// skpd session store: exactly-once execution under at-least-once delivery.
//
// A session is one NetsimStepper plus a replay buffer of results the
// client has not yet acknowledged. The resume contract: no matter how
// many times the connection dies and the client replays STEP frames, a
// cycle is EXECUTED at most once — a seq at or below the executed
// watermark is answered from the buffer, never re-run — so a resumed
// session's counter trajectory is bit-identical to an uninterrupted one.
// (A result the client never acks is retained until it acks past it or
// the session dies, bounding the buffer by the client's in-flight
// window; the synchronous skpd client keeps it at <= 1 entry.)
//
// The store is transport-free on purpose: tools/skpd.cpp owns sockets
// and timers and calls into this, and tests drive kill/resume sequences
// directly against the store without a single byte of TCP.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "sim/catalog.hpp"
#include "sim/netsim_stepper.hpp"

namespace skp {

class SkpdSession {
 public:
  SkpdSession(std::uint64_t token, const SimSpec& spec)
      : token_(token), stepper_(spec) {}

  // Bulk-hosting constructor: the session runs against an explicitly
  // provided shared catalog (see NetsimStepper's two-argument
  // constructor) so preloading many sessions of one spec group pays for
  // the group's grounding exactly once.
  SkpdSession(std::uint64_t token, const SimSpec& spec,
              std::shared_ptr<const SharedCatalog> catalog)
      : token_(token), stepper_(spec, std::move(catalog)) {}

  std::uint64_t token() const noexcept { return token_; }
  NetsimStepper& stepper() noexcept { return stepper_; }
  const NetsimStepper& stepper() const noexcept { return stepper_; }
  std::uint64_t executed() const noexcept {
    return static_cast<std::uint64_t>(stepper_.executed());
  }
  std::uint64_t acked() const noexcept { return acked_; }
  std::size_t unacked() const noexcept { return replay_.size(); }
  bool done() const noexcept { return stepper_.done(); }

  // Drops buffered results with seq <= ack (the client has them).
  // Acking past the executed watermark is a protocol violation.
  void acknowledge(std::uint64_t ack);

  // Handles one STEP{seq, ack}: first acknowledges, then either replays
  // the stored result (seq <= executed) or executes the next cycle
  // (seq == executed + 1). Throws std::invalid_argument when seq falls
  // outside [acked + 1, executed + 1] or runs past the spec's cycle
  // count — the caller answers with an ERROR frame.
  NetsimStepSnapshot step(std::uint64_t seq, std::uint64_t ack);

 private:
  std::uint64_t token_;
  NetsimStepper stepper_;
  std::uint64_t acked_ = 0;
  // Results for seqs acked_+1 .. executed(), oldest first.
  std::deque<NetsimStepSnapshot> replay_;
};

// Token-keyed session table. Tokens are dense counters starting at 1 —
// they are resumption handles on a loopback socket, not authentication
// (ROADMAP scopes the daemon to localhost single-user). Every call runs
// on the poll thread. Sessions sit behind unique_ptr so the map's
// rebalancing never moves one: the poll loop parks raw SkpdSession*
// across cycles, valid until erase.
class SkpdSessionStore {
 public:
  // Creates a session for `spec_text` (decoded via decode_sim_spec) and
  // returns it. Throws std::invalid_argument on a malformed or
  // unservable spec.
  SkpdSession& create(const std::string& spec_text);

  // Bulk-preload creation path: an already-decoded spec plus its group's
  // shared catalog (pass nullptr to let the stepper acquire one).
  SkpdSession& create(const SimSpec& spec,
                      std::shared_ptr<const SharedCatalog> catalog);

  // nullptr when the token is unknown (expired or never issued).
  SkpdSession* find(std::uint64_t token) {
    const auto it = sessions_.find(token);
    return it == sessions_.end() ? nullptr : it->second.get();
  }

  void erase(std::uint64_t token) { sessions_.erase(token); }
  std::size_t size() const noexcept { return sessions_.size(); }

  // Ascending-token iteration for drain-time stats emission; fn receives
  // (token, SkpdSession&).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& [token, session] : sessions_) fn(token, *session);
  }

 private:
  std::uint64_t next_token_ = 1;
  std::map<std::uint64_t, std::unique_ptr<SkpdSession>> sessions_;
};

}  // namespace skp
