#include "sim/skpd_session.hpp"

#include "sim/skpd_protocol.hpp"
#include "util/require.hpp"

namespace skp {

void SkpdSession::acknowledge(std::uint64_t ack) {
  SKP_REQUIRE(ack <= executed(),
              "ack " << ack << " past executed watermark " << executed());
  while (!replay_.empty() && replay_.front().seq <= ack) {
    replay_.pop_front();
  }
  acked_ = std::max(acked_, ack);
}

NetsimStepSnapshot SkpdSession::step(std::uint64_t seq,
                                     std::uint64_t ack) {
  acknowledge(ack);
  SKP_REQUIRE(seq >= acked_ + 1 && seq <= executed() + 1,
              "step seq " << seq << " outside window ["
                          << acked_ + 1 << ", " << executed() + 1
                          << "]");
  if (seq <= executed()) {
    // Redelivery after a lost result: answer from the buffer. The cycle
    // ran exactly once; this is what keeps resume bit-identical.
    const std::size_t idx = static_cast<std::size_t>(seq - acked_ - 1);
    SKP_ASSERT(idx < replay_.size());
    return replay_[idx];
  }
  SKP_REQUIRE(!stepper_.done(),
              "step seq " << seq << " past the spec's "
                          << stepper_.total() << " cycles");
  const NetsimStepSnapshot snap = stepper_.step();
  SKP_ASSERT(snap.seq == seq);
  replay_.push_back(snap);
  return snap;
}

SkpdSession& SkpdSessionStore::create(const std::string& spec_text) {
  return create(decode_sim_spec(spec_text), nullptr);
}

SkpdSession& SkpdSessionStore::create(
    const SimSpec& spec, std::shared_ptr<const SharedCatalog> catalog) {
  const std::uint64_t token = next_token_++;
  auto session = catalog
                     ? std::make_unique<SkpdSession>(token, spec,
                                                     std::move(catalog))
                     : std::make_unique<SkpdSession>(token, spec);
  return *sessions_.emplace(token, std::move(session)).first->second;
}

}  // namespace skp
