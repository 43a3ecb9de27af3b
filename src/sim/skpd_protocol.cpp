#include "sim/skpd_protocol.hpp"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "util/parse_digits.hpp"
#include "util/require.hpp"

namespace skp {

const char* to_string(SkpdFrameType type) {
  switch (type) {
    case SkpdFrameType::kHello: return "HELLO";
    case SkpdFrameType::kWelcome: return "WELCOME";
    case SkpdFrameType::kStep: return "STEP";
    case SkpdFrameType::kStepResult: return "STEP_RESULT";
    case SkpdFrameType::kPing: return "PING";
    case SkpdFrameType::kPong: return "PONG";
    case SkpdFrameType::kStats: return "STATS";
    case SkpdFrameType::kStatsResult: return "STATS_RESULT";
    case SkpdFrameType::kBye: return "BYE";
    case SkpdFrameType::kError: return "ERROR";
  }
  return "?";
}

namespace {

// ---- Little-endian scalar packing ---------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(byte()) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(byte()) << (8 * i);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  bool flag() { return byte() != 0; }
  std::string_view rest() {
    std::string_view r = data_.substr(pos_);
    pos_ = data_.size();
    return r;
  }
  void done() const {
    SKP_REQUIRE(pos_ == data_.size(),
                "skpd frame payload has " << data_.size() - pos_
                                          << " trailing bytes");
  }

 private:
  std::uint8_t byte() {
    SKP_REQUIRE(pos_ < data_.size(), "skpd frame payload truncated");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---- key=value text helpers ---------------------------------------------

std::string fmt_double(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  SKP_REQUIRE(ec == std::errc(), "double formatting failed");
  return std::string(buf, ptr);
}

void put_kv(std::string& out, std::string_view key, std::string_view v) {
  out += key;
  out += '=';
  out += v;
  out += '\n';
}

void put_kv(std::string& out, std::string_view key, const char* v) {
  put_kv(out, key, std::string_view(v));
}

void put_kv(std::string& out, std::string_view key, double v) {
  put_kv(out, key, std::string_view(fmt_double(v)));
}

void put_kv(std::string& out, std::string_view key, bool v) {
  put_kv(out, key, std::string_view(v ? "1" : "0"));
}

template <typename Int>
  requires std::is_integral_v<Int>
void put_kv(std::string& out, std::string_view key, Int v) {
  put_kv(out, key, std::string_view(std::to_string(v)));
}

double parse_double(std::string_view text, std::string_view key) {
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  SKP_REQUIRE(ec == std::errc() && ptr == text.data() + text.size(),
              "bad double for skpd key " << key << ": " << text);
  return v;
}

// Spec values must be finite. from_chars accepts "nan" and "inf", and
// a non-finite knob runs as nonsense instead of failing: a NaN
// predictor_min_prob filters nothing, an infinite v_hi reads mean T 0.
// decode_sim_result keeps parse_double: it carries back whatever a run
// recorded.
double parse_spec_double(std::string_view text, std::string_view key) {
  const double v = parse_double(text, key);
  SKP_REQUIRE(std::isfinite(v),
              "non-finite value for skpd key " << key << ": " << text);
  return v;
}

std::uint64_t parse_u64(std::string_view text, std::string_view key) {
  const std::optional<std::uint64_t> v = parse_digits_u64(text);
  SKP_REQUIRE(v.has_value(),
              "bad integer for skpd key " << key << ": " << text);
  return *v;
}

std::size_t parse_size(std::string_view text, std::string_view key) {
  return static_cast<std::size_t>(parse_u64(text, key));
}

bool parse_bool(std::string_view text, std::string_view key) {
  SKP_REQUIRE(text == "0" || text == "1",
              "bad flag for skpd key " << key << ": " << text);
  return text == "1";
}

// Applies `fn(key, value)` to every `key=value` line of `text`.
template <typename Fn>
void for_each_kv(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    SKP_REQUIRE(eq != std::string_view::npos && eq > 0,
                "malformed skpd key=value line: " << line);
    fn(line.substr(0, eq), line.substr(eq + 1));
  }
}

}  // namespace

// ---- Framing ------------------------------------------------------------

void append_skpd_frame(std::string& out, SkpdFrameType type,
                       std::string_view payload) {
  SKP_REQUIRE(payload.size() + 1 <= kSkpdMaxFrameBytes,
              "skpd frame payload too large: " << payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size() + 1));
  out.push_back(static_cast<char>(type));
  out += payload;
}

std::optional<SkpdFrame> parse_skpd_frame(std::string_view buf,
                                          std::size_t& offset) {
  SKP_REQUIRE(offset <= buf.size(), "frame offset past buffer end");
  if (buf.size() - offset < 4) return std::nullopt;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= std::uint32_t(static_cast<std::uint8_t>(buf[offset + i]))
              << (8 * i);
  }
  SKP_REQUIRE(length >= 1 && length <= kSkpdMaxFrameBytes,
              "skpd frame length " << length << " out of range 1.."
                                   << kSkpdMaxFrameBytes);
  if (buf.size() - offset - 4 < length) return std::nullopt;
  const auto raw = static_cast<std::uint8_t>(buf[offset + 4]);
  SKP_REQUIRE(raw >= static_cast<std::uint8_t>(SkpdFrameType::kHello) &&
                  raw <= static_cast<std::uint8_t>(SkpdFrameType::kError),
              "unknown skpd frame type " << int(raw));
  SkpdFrame frame;
  frame.type = static_cast<SkpdFrameType>(raw);
  frame.payload = buf.substr(offset + 5, length - 1);
  offset += 4 + length;
  return frame;
}

// ---- Fixed-layout payloads ----------------------------------------------

std::string encode_hello(const SkpdHello& hello) {
  std::string out;
  put_u32(out, kSkpdMagic);
  put_u32(out, hello.version);
  put_u64(out, hello.token);
  put_u64(out, hello.last_ack);
  out += hello.spec_text;
  return out;
}

SkpdHello decode_hello(std::string_view payload) {
  WireReader r(payload);
  SKP_REQUIRE(r.u32() == kSkpdMagic, "skpd HELLO magic mismatch");
  SkpdHello hello;
  hello.version = r.u32();
  hello.token = r.u64();
  hello.last_ack = r.u64();
  hello.spec_text = std::string(r.rest());
  return hello;
}

std::string encode_welcome(const SkpdWelcome& welcome) {
  std::string out;
  put_u64(out, welcome.token);
  put_u64(out, welcome.executed);
  out.push_back(welcome.resumed ? 1 : 0);
  return out;
}

SkpdWelcome decode_welcome(std::string_view payload) {
  WireReader r(payload);
  SkpdWelcome welcome;
  welcome.token = r.u64();
  welcome.executed = r.u64();
  welcome.resumed = r.flag();
  r.done();
  return welcome;
}

std::string encode_step(const SkpdStep& step) {
  std::string out;
  put_u64(out, step.seq);
  put_u64(out, step.ack);
  return out;
}

SkpdStep decode_step(std::string_view payload) {
  WireReader r(payload);
  SkpdStep step;
  step.seq = r.u64();
  step.ack = r.u64();
  r.done();
  return step;
}

std::string encode_step_result(const NetsimStepSnapshot& snap) {
  std::string out;
  put_u64(out, snap.seq);
  put_f64(out, snap.T);
  put_u64(out, snap.requests);
  put_u64(out, snap.hits);
  put_u64(out, snap.demand_fetches);
  put_u64(out, snap.prefetch_fetches);
  put_u64(out, snap.solver_nodes);
  put_u64(out, snap.plans);
  put_u64(out, snap.deadline_hits);
  return out;
}

NetsimStepSnapshot decode_step_result(std::string_view payload) {
  WireReader r(payload);
  NetsimStepSnapshot snap;
  snap.seq = r.u64();
  snap.T = r.f64();
  snap.requests = r.u64();
  snap.hits = r.u64();
  snap.demand_fetches = r.u64();
  snap.prefetch_fetches = r.u64();
  snap.solver_nodes = r.u64();
  snap.plans = r.u64();
  snap.deadline_hits = r.u64();
  r.done();
  return snap;
}

std::string encode_ping(std::uint64_t nonce) {
  std::string out;
  put_u64(out, nonce);
  return out;
}

std::uint64_t decode_ping(std::string_view payload) {
  WireReader r(payload);
  const std::uint64_t nonce = r.u64();
  r.done();
  return nonce;
}

// ---- Spec and result text ----------------------------------------------

namespace {

// Wire tokens of the enum fields.
const char* token(SimDriverKind v) { return to_string(v); }
const char* token(SimWorkloadKind v) { return to_string(v); }
const char* token(ProbMethod v) { return to_string(v); }
const char* token(PrefetchPolicy v) { return policy_token(v); }
const char* token(SubArbitration v) { return sub_token(v); }
const char* token(DeltaRule v) { return delta_token(v); }
const char* token(PredictorKind v) { return to_string(v); }
const char* token(ReplacementKind v) { return to_string(v); }

// Parsers of those tokens; the second argument only picks the overload.
auto from_token(std::string_view t, SimDriverKind) {
  return parse_driver_kind(t);
}
auto from_token(std::string_view t, SimWorkloadKind) {
  return parse_workload_kind(t);
}
auto from_token(std::string_view t, ProbMethod) { return parse_prob_method(t); }
auto from_token(std::string_view t, PrefetchPolicy) { return parse_policy(t); }
auto from_token(std::string_view t, SubArbitration) {
  return parse_sub_arbitration(t);
}
auto from_token(std::string_view t, DeltaRule) { return parse_delta_rule(t); }
auto from_token(std::string_view t, PredictorKind) {
  return parse_predictor_kind(t);
}
auto from_token(std::string_view t, ReplacementKind) {
  return parse_replacement_kind(t);
}

// The wire's key for every SimSpec field, in wire order. Both codecs walk
// this one list: `fn(key, field)` for each field of `spec`, which is a
// const SimSpec when encoding and a mutable one when decoding.
// multi_client is not on the wire (encode_sim_spec refuses it).
template <typename Spec, typename Fn>
void visit_spec_fields(Spec& spec, Fn&& fn) {
  auto& w = spec.workload;
  fn("driver", spec.driver);
  fn("workload", w.kind);
  fn("n_items", w.n_items);
  fn("out_degree_lo", w.out_degree_lo);
  fn("out_degree_hi", w.out_degree_hi);
  fn("v_lo", w.v_lo);
  fn("v_hi", w.v_hi);
  fn("r_lo", w.r_lo);
  fn("r_hi", w.r_hi);
  fn("integer_times", w.integer_times);
  fn("method", w.method);
  fn("skew_exponent", w.skew_exponent);
  fn("iid_viewing_time", w.iid_viewing_time);
  fn("zipf_exponent", w.zipf_exponent);
  fn("zipf_shuffle", w.zipf_shuffle);
  fn("drift_period", w.drift_period);
  fn("adv_hot_set", w.adv_hot_set);
  fn("adv_escape", w.adv_escape);
  fn("policy", spec.policy);
  fn("sub", spec.sub);
  fn("delta", spec.delta_rule);
  fn("min_profit_threshold", spec.min_profit_threshold);
  fn("predictor", spec.predictor);
  fn("predictor_min_prob", spec.predictor_min_prob);
  fn("predictor_warmup", spec.predictor_warmup);
  fn("cache_size", spec.cache_size);
  fn("sized_capacity", spec.sized_capacity);
  fn("size_per_r", spec.size_per_r);
  fn("size_lo", spec.size_lo);
  fn("size_hi", spec.size_hi);
  fn("replacement", spec.replacement);
  fn("pr_planning", spec.pr_planning);
  fn("bandwidth", spec.bandwidth);
  fn("latency", spec.latency);
  fn("link_schedule", spec.link_schedule);  // written only when non-empty
  fn("fail_rate", spec.fault.fail_rate);
  fn("stall_rate", spec.fault.stall_rate);
  fn("stall_factor", spec.fault.stall_factor);
  fn("fault_timeout", spec.fault.timeout);
  fn("retry_max_attempts", spec.fault.retry.max_attempts);
  fn("retry_backoff_base", spec.fault.retry.backoff_base);
  fn("retry_backoff_factor", spec.fault.retry.backoff_factor);
  fn("retry_jitter", spec.fault.retry.jitter);
  fn("overload_enabled", spec.overload.enabled);
  fn("overload_window", spec.overload.window);
  fn("overload_degrade_ratio", spec.overload.degrade_ratio);
  fn("overload_recover_ratio", spec.overload.recover_ratio);
  fn("overload_recover_windows", spec.overload.recover_windows);
  fn("overload_headroom", spec.overload.headroom);
  fn("overload_lookahead_depth", spec.overload.lookahead_depth);
  fn("overload_budget_items", spec.overload.budget_items);
  fn("deadline", spec.deadline);
  fn("requests", spec.requests);
  fn("warmup", spec.warmup);
  fn("seed", spec.seed);
  fn("use_plan_cache", spec.use_plan_cache);
  fn("plan_cache_capacity", spec.plan_cache_capacity);
}

// The access-time OnlineStats state, which travels as five keys so the
// client-side accumulator is the same object the in-process run holds.
struct AccessTimeState {
  std::uint64_t n = 0;
  double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0;
};

// The SimResult counterpart of visit_spec_fields. The access-time state
// goes through `at`; the overload rungs are the keys ov_rung0, ov_rung1...
template <typename Result, typename At, typename Fn>
void visit_result_fields(Result& result, At& at, Fn&& fn) {
  auto& m = result.metrics;
  auto& plans = result.plan_cache.plans;
  auto& sel = result.plan_cache.selections;
  fn("requests", m.requests);
  fn("hits", m.hits);
  fn("demand_fetches", m.demand_fetches);
  fn("prefetch_fetches", m.prefetch_fetches);
  fn("wasted_prefetches", m.wasted_prefetches);
  fn("network_time", m.network_time);
  fn("prefetch_network_time", m.prefetch_network_time);
  fn("demand_network_time", m.demand_network_time);
  fn("solver_nodes", m.solver_nodes);
  fn("at_n", at.n);
  fn("at_mean", at.mean);
  fn("at_m2", at.m2);
  fn("at_min", at.min);
  fn("at_max", at.max);
  fn("pc_plan_hits", plans.hits);
  fn("pc_plan_misses", plans.misses);
  fn("pc_plan_inserts", plans.inserts);
  fn("pc_plan_evictions", plans.evictions);
  fn("pc_plan_door_rejects", plans.door_rejects);
  fn("pc_sel_hits", sel.hits);
  fn("pc_sel_misses", sel.misses);
  fn("pc_sel_inserts", sel.inserts);
  fn("pc_sel_evictions", sel.evictions);
  fn("pc_sel_door_rejects", sel.door_rejects);
  fn("over_viewing_time", result.over_viewing_time);
  fn("plans", result.plans);
  fn("churn_events", result.churn_events);
  fn("budget_violations", result.budget_violations);
  fn("worst_budget_overrun", result.worst_budget_overrun);
  fn("link_utilization", result.link_utilization);
  fn("fault_failed", result.fault.failed_transfers);
  fn("fault_timeouts", result.fault.timeouts);
  fn("fault_stalled", result.fault.stalled);
  fn("fault_retries", result.fault.retries);
  fn("fault_abandoned", result.fault.abandoned);
  fn("ov_transitions", result.overload.transitions);
  fn("ov_forced_transitions", result.overload.forced_transitions);
  fn("ov_max_rung", result.overload.max_rung);
  fn("ov_degraded_requests", result.overload.degraded_requests);
  fn("ov_rung", result.overload.requests_at_rung);
  fn("deadline_hits", result.deadline_hits);
}

// ---- Encoding: one put_kv overload per field type ----

template <typename Enum>
  requires std::is_enum_v<Enum>
void put_kv(std::string& out, std::string_view key, Enum v) {
  put_kv(out, key, token(v));
}

// duration:bandwidth:latency phases, ';'-separated.
void put_kv(std::string& out, std::string_view key,
            const std::vector<LinkPhase>& schedule) {
  if (schedule.empty()) return;
  std::string phases;
  for (const LinkPhase& p : schedule) {
    if (!phases.empty()) phases += ';';
    phases += fmt_double(p.duration);
    phases += ':';
    phases += fmt_double(p.bandwidth);
    phases += ':';
    phases += fmt_double(p.latency);
  }
  put_kv(out, key, std::string_view(phases));
}

template <std::size_t N>
void put_kv(std::string& out, std::string_view key,
            const std::array<std::uint64_t, N>& rungs) {
  for (std::size_t i = 0; i < N; ++i) {
    put_kv(out, std::string(key) + std::to_string(i), rungs[i]);
  }
}

// ---- Decoding: one parse_value overload per field type ----

void parse_value(std::string_view text, std::string_view key, bool& out) {
  out = parse_bool(text, key);
}

template <typename Int>
  requires std::is_integral_v<Int>
void parse_value(std::string_view text, std::string_view key, Int& out) {
  out = static_cast<Int>(parse_u64(text, key));
}

template <typename Enum>
  requires std::is_enum_v<Enum>
void parse_value(std::string_view text, std::string_view key, Enum& out) {
  const std::optional<Enum> v = from_token(text, out);
  SKP_REQUIRE(v, "unknown " << key << " token: " << text);
  out = *v;
}

void parse_value(std::string_view text, std::string_view key,
                 std::vector<LinkPhase>& schedule) {
  schedule.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view phase = text.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t c1 = phase.find(':');
    const std::size_t c2 =
        c1 == std::string_view::npos ? c1 : phase.find(':', c1 + 1);
    SKP_REQUIRE(c1 != std::string_view::npos && c2 != std::string_view::npos,
                "malformed link phase: " << phase);
    LinkPhase p;
    p.duration = parse_spec_double(phase.substr(0, c1), key);
    p.bandwidth = parse_spec_double(phase.substr(c1 + 1, c2 - c1 - 1), key);
    p.latency = parse_spec_double(phase.substr(c2 + 1), key);
    schedule.push_back(p);
  }
}

template <typename T>
inline constexpr bool kIsRungArray = false;
template <std::size_t N>
inline constexpr bool kIsRungArray<std::array<std::uint64_t, N>> = true;

// Decodes every `key=value` line of `text` into the field `visit` binds
// to that key; double fields go through `ParseDouble` (parse_spec_double
// for a spec, parse_double for a result). A later line overrides an
// earlier one. A key no field claims is refused (reject-don't-drop: a
// field this build does not know cannot be silently ignored without
// breaking "the spec you sent is the spec that ran").
template <auto ParseDouble, typename Visit>
void decode_fields(std::string_view text, const char* what, Visit&& visit) {
  for_each_kv(text, [&](std::string_view key, std::string_view v) {
    bool known = false;
    visit([&](std::string_view name, auto& field) {
      using Field = std::remove_cvref_t<decltype(field)>;
      if (known) return;
      if (kIsRungArray<Field> ? !key.starts_with(name) : key != name) return;
      known = true;
      if constexpr (kIsRungArray<Field>) {
        const std::size_t i = parse_size(key.substr(name.size()), key);
        SKP_REQUIRE(i < field.size(),
                    "overload rung index out of range: " << key);
        field[i] = parse_u64(v, key);
      } else if constexpr (std::is_same_v<Field, double>) {
        field = ParseDouble(v, key);
      } else {
        parse_value(v, key, field);
      }
    });
    SKP_REQUIRE(known, "unknown skpd " << what << " key: " << key);
  });
}

}  // namespace

std::string encode_sim_spec(const SimSpec& spec) {
  SKP_REQUIRE(spec.multi_client == MultiClientSpec{},
              "the skpd wire carries single-client specs; the "
              "multi_client section does not serialize");
  std::string out;
  visit_spec_fields(spec, [&](std::string_view key, const auto& value) {
    put_kv(out, key, value);
  });
  return out;
}

SimSpec decode_sim_spec(std::string_view text) {
  SimSpec spec;
  decode_fields<parse_spec_double>(
      text, "spec", [&](auto&& fn) { visit_spec_fields(spec, fn); });
  return spec;
}

std::string encode_sim_result(const SimResult& result) {
  SKP_REQUIRE(!result.avg_T_by_v && result.per_client.empty(),
              "the skpd wire carries netsim_des results; per-client rows "
              "and the avg-T-by-v curve do not serialize");
  const OnlineStats& a = result.metrics.access_time;
  const AccessTimeState at{a.count(), a.mean(), a.m2(), a.min(), a.max()};
  std::string out;
  visit_result_fields(result, at,
                      [&](std::string_view key, const auto& value) {
                        put_kv(out, key, value);
                      });
  return out;
}

SimResult decode_sim_result(std::string_view text) {
  SimResult result;
  AccessTimeState at;
  decode_fields<parse_double>(text, "result", [&](auto&& fn) {
    visit_result_fields(result, at, fn);
  });
  result.metrics.access_time = OnlineStats::restore(
      static_cast<std::size_t>(at.n), at.mean, at.m2, at.min, at.max);
  return result;
}

}  // namespace skp
