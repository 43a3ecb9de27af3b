#include "sim/skpd_protocol.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <optional>

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

// ---- Spec text ----------------------------------------------------------

std::string encode_sim_spec(const SimSpec& spec) {
  SKP_REQUIRE(spec.multi_client == MultiClientSpec{},
              "the skpd wire carries single-client specs; the "
              "multi_client section does not serialize");
  std::string out;
  put_kv(out, "driver", to_string(spec.driver));
  const SimWorkload& w = spec.workload;
  put_kv(out, "workload", to_string(w.kind));
  put_kv(out, "n_items", w.n_items);
  put_kv(out, "out_degree_lo", w.out_degree_lo);
  put_kv(out, "out_degree_hi", w.out_degree_hi);
  put_kv(out, "v_lo", w.v_lo);
  put_kv(out, "v_hi", w.v_hi);
  put_kv(out, "r_lo", w.r_lo);
  put_kv(out, "r_hi", w.r_hi);
  put_kv(out, "integer_times", w.integer_times);
  put_kv(out, "method", w.method == ProbMethod::Skewy ? "skewy" : "flat");
  put_kv(out, "skew_exponent", w.skew_exponent);
  put_kv(out, "iid_viewing_time", w.iid_viewing_time);
  put_kv(out, "zipf_exponent", w.zipf_exponent);
  put_kv(out, "zipf_shuffle", w.zipf_shuffle);
  put_kv(out, "drift_period", w.drift_period);
  put_kv(out, "adv_hot_set", w.adv_hot_set);
  put_kv(out, "adv_escape", w.adv_escape);
  put_kv(out, "policy", policy_token(spec.policy));
  put_kv(out, "sub", sub_token(spec.sub));
  put_kv(out, "delta", delta_token(spec.delta_rule));
  put_kv(out, "min_profit_threshold", spec.min_profit_threshold);
  put_kv(out, "predictor", to_string(spec.predictor));
  put_kv(out, "predictor_min_prob", spec.predictor_min_prob);
  put_kv(out, "predictor_warmup", spec.predictor_warmup);
  put_kv(out, "cache_size", spec.cache_size);
  put_kv(out, "sized_capacity", spec.sized_capacity);
  put_kv(out, "size_per_r", spec.size_per_r);
  put_kv(out, "size_lo", spec.size_lo);
  put_kv(out, "size_hi", spec.size_hi);
  put_kv(out, "replacement", to_string(spec.replacement));
  put_kv(out, "pr_planning", spec.pr_planning);
  put_kv(out, "bandwidth", spec.bandwidth);
  put_kv(out, "latency", spec.latency);
  if (!spec.link_schedule.empty()) {
    // duration:bandwidth:latency phases, ';'-separated.
    std::string phases;
    for (const LinkPhase& p : spec.link_schedule) {
      if (!phases.empty()) phases += ';';
      phases += fmt_double(p.duration);
      phases += ':';
      phases += fmt_double(p.bandwidth);
      phases += ':';
      phases += fmt_double(p.latency);
    }
    put_kv(out, "link_schedule", std::string_view(phases));
  }
  put_kv(out, "fail_rate", spec.fault.fail_rate);
  put_kv(out, "stall_rate", spec.fault.stall_rate);
  put_kv(out, "stall_factor", spec.fault.stall_factor);
  put_kv(out, "fault_timeout", spec.fault.timeout);
  put_kv(out, "retry_max_attempts", spec.fault.retry.max_attempts);
  put_kv(out, "retry_backoff_base", spec.fault.retry.backoff_base);
  put_kv(out, "retry_backoff_factor", spec.fault.retry.backoff_factor);
  put_kv(out, "retry_jitter", spec.fault.retry.jitter);
  put_kv(out, "overload_enabled", spec.overload.enabled);
  put_kv(out, "overload_window", spec.overload.window);
  put_kv(out, "overload_degrade_ratio", spec.overload.degrade_ratio);
  put_kv(out, "overload_recover_ratio", spec.overload.recover_ratio);
  put_kv(out, "overload_recover_windows", spec.overload.recover_windows);
  put_kv(out, "overload_headroom", spec.overload.headroom);
  put_kv(out, "overload_lookahead_depth", spec.overload.lookahead_depth);
  put_kv(out, "overload_budget_items", spec.overload.budget_items);
  put_kv(out, "deadline", spec.deadline);
  put_kv(out, "requests", spec.requests);
  put_kv(out, "warmup", spec.warmup);
  put_kv(out, "seed", spec.seed);
  put_kv(out, "use_plan_cache", spec.use_plan_cache);
  put_kv(out, "plan_cache_capacity", spec.plan_cache_capacity);
  return out;
}

SimSpec decode_sim_spec(std::string_view text) {
  SimSpec spec;
  for_each_kv(text, [&](std::string_view key, std::string_view v) {
    SimWorkload& w = spec.workload;
    if (key == "driver") {
      const auto kind = parse_driver_kind(std::string(v));
      SKP_REQUIRE(kind, "unknown driver token: " << v);
      spec.driver = *kind;
    } else if (key == "workload") {
      const auto kind = parse_workload_kind(std::string(v));
      SKP_REQUIRE(kind, "unknown workload token: " << v);
      w.kind = *kind;
    } else if (key == "n_items") {
      w.n_items = parse_size(v, key);
    } else if (key == "out_degree_lo") {
      w.out_degree_lo = parse_size(v, key);
    } else if (key == "out_degree_hi") {
      w.out_degree_hi = parse_size(v, key);
    } else if (key == "v_lo") {
      w.v_lo = parse_double(v, key);
    } else if (key == "v_hi") {
      w.v_hi = parse_double(v, key);
    } else if (key == "r_lo") {
      w.r_lo = parse_double(v, key);
    } else if (key == "r_hi") {
      w.r_hi = parse_double(v, key);
    } else if (key == "integer_times") {
      w.integer_times = parse_bool(v, key);
    } else if (key == "method") {
      const auto method = parse_prob_method(std::string(v));
      SKP_REQUIRE(method, "unknown method token: " << v);
      w.method = *method;
    } else if (key == "skew_exponent") {
      w.skew_exponent = parse_double(v, key);
    } else if (key == "iid_viewing_time") {
      w.iid_viewing_time = parse_double(v, key);
    } else if (key == "zipf_exponent") {
      w.zipf_exponent = parse_double(v, key);
    } else if (key == "zipf_shuffle") {
      w.zipf_shuffle = parse_bool(v, key);
    } else if (key == "drift_period") {
      w.drift_period = parse_size(v, key);
    } else if (key == "adv_hot_set") {
      w.adv_hot_set = parse_size(v, key);
    } else if (key == "adv_escape") {
      w.adv_escape = parse_double(v, key);
    } else if (key == "policy") {
      const auto policy = parse_policy(std::string(v));
      SKP_REQUIRE(policy, "unknown policy token: " << v);
      spec.policy = *policy;
    } else if (key == "sub") {
      const auto sub = parse_sub_arbitration(std::string(v));
      SKP_REQUIRE(sub, "unknown sub token: " << v);
      spec.sub = *sub;
    } else if (key == "delta") {
      const auto delta = parse_delta_rule(std::string(v));
      SKP_REQUIRE(delta, "unknown delta token: " << v);
      spec.delta_rule = *delta;
    } else if (key == "min_profit_threshold") {
      spec.min_profit_threshold = parse_double(v, key);
    } else if (key == "predictor") {
      const auto predictor = parse_predictor_kind(std::string(v));
      SKP_REQUIRE(predictor, "unknown predictor token: " << v);
      spec.predictor = *predictor;
    } else if (key == "predictor_min_prob") {
      spec.predictor_min_prob = parse_double(v, key);
    } else if (key == "predictor_warmup") {
      spec.predictor_warmup = parse_size(v, key);
    } else if (key == "cache_size") {
      spec.cache_size = parse_size(v, key);
    } else if (key == "sized_capacity") {
      spec.sized_capacity = parse_double(v, key);
    } else if (key == "size_per_r") {
      spec.size_per_r = parse_double(v, key);
    } else if (key == "size_lo") {
      spec.size_lo = parse_double(v, key);
    } else if (key == "size_hi") {
      spec.size_hi = parse_double(v, key);
    } else if (key == "replacement") {
      const auto repl = parse_replacement_kind(std::string(v));
      SKP_REQUIRE(repl, "unknown replacement token: " << v);
      spec.replacement = *repl;
    } else if (key == "pr_planning") {
      spec.pr_planning = parse_bool(v, key);
    } else if (key == "bandwidth") {
      spec.bandwidth = parse_double(v, key);
    } else if (key == "latency") {
      spec.latency = parse_double(v, key);
    } else if (key == "link_schedule") {
      spec.link_schedule.clear();
      std::size_t pos = 0;
      while (pos < v.size()) {
        std::size_t end = v.find(';', pos);
        if (end == std::string_view::npos) end = v.size();
        const std::string_view phase = v.substr(pos, end - pos);
        pos = end + 1;
        const std::size_t c1 = phase.find(':');
        const std::size_t c2 =
            c1 == std::string_view::npos ? c1 : phase.find(':', c1 + 1);
        SKP_REQUIRE(c1 != std::string_view::npos &&
                        c2 != std::string_view::npos,
                    "malformed link phase: " << phase);
        LinkPhase p;
        p.duration = parse_double(phase.substr(0, c1), key);
        p.bandwidth = parse_double(phase.substr(c1 + 1, c2 - c1 - 1), key);
        p.latency = parse_double(phase.substr(c2 + 1), key);
        spec.link_schedule.push_back(p);
      }
    } else if (key == "fail_rate") {
      spec.fault.fail_rate = parse_double(v, key);
    } else if (key == "stall_rate") {
      spec.fault.stall_rate = parse_double(v, key);
    } else if (key == "stall_factor") {
      spec.fault.stall_factor = parse_double(v, key);
    } else if (key == "fault_timeout") {
      spec.fault.timeout = parse_double(v, key);
    } else if (key == "retry_max_attempts") {
      spec.fault.retry.max_attempts = parse_size(v, key);
    } else if (key == "retry_backoff_base") {
      spec.fault.retry.backoff_base = parse_double(v, key);
    } else if (key == "retry_backoff_factor") {
      spec.fault.retry.backoff_factor = parse_double(v, key);
    } else if (key == "retry_jitter") {
      spec.fault.retry.jitter = parse_double(v, key);
    } else if (key == "overload_enabled") {
      spec.overload.enabled = parse_bool(v, key);
    } else if (key == "overload_window") {
      spec.overload.window = parse_size(v, key);
    } else if (key == "overload_degrade_ratio") {
      spec.overload.degrade_ratio = parse_double(v, key);
    } else if (key == "overload_recover_ratio") {
      spec.overload.recover_ratio = parse_double(v, key);
    } else if (key == "overload_recover_windows") {
      spec.overload.recover_windows = parse_size(v, key);
    } else if (key == "overload_headroom") {
      spec.overload.headroom = parse_double(v, key);
    } else if (key == "overload_lookahead_depth") {
      spec.overload.lookahead_depth = parse_size(v, key);
    } else if (key == "overload_budget_items") {
      spec.overload.budget_items = parse_size(v, key);
    } else if (key == "deadline") {
      spec.deadline = parse_double(v, key);
    } else if (key == "requests") {
      spec.requests = parse_size(v, key);
    } else if (key == "warmup") {
      spec.warmup = parse_size(v, key);
    } else if (key == "seed") {
      spec.seed = parse_u64(v, key);
    } else if (key == "use_plan_cache") {
      spec.use_plan_cache = parse_bool(v, key);
    } else if (key == "plan_cache_capacity") {
      spec.plan_cache_capacity = parse_size(v, key);
    } else {
      // Reject-don't-drop at the wire too: a field this build does not
      // know cannot be silently ignored without breaking the "the spec
      // you sent is the spec that ran" contract.
      SKP_REQUIRE(false, "unknown skpd spec key: " << key);
    }
  });
  return spec;
}

// ---- Result text --------------------------------------------------------

namespace {

void put_plan_cache_stats(std::string& out, std::string_view prefix,
                          const PlanCacheStats& s) {
  put_kv(out, std::string(prefix) + "_hits", s.hits);
  put_kv(out, std::string(prefix) + "_misses", s.misses);
  put_kv(out, std::string(prefix) + "_inserts", s.inserts);
  put_kv(out, std::string(prefix) + "_evictions", s.evictions);
  put_kv(out, std::string(prefix) + "_door_rejects", s.door_rejects);
}

}  // namespace

std::string encode_sim_result(const SimResult& result) {
  SKP_REQUIRE(!result.avg_T_by_v && result.per_client.empty(),
              "the skpd wire carries netsim_des results; per-client rows "
              "and the avg-T-by-v curve do not serialize");
  std::string out;
  const SimMetrics& m = result.metrics;
  put_kv(out, "requests", m.requests);
  put_kv(out, "hits", m.hits);
  put_kv(out, "demand_fetches", m.demand_fetches);
  put_kv(out, "prefetch_fetches", m.prefetch_fetches);
  put_kv(out, "wasted_prefetches", m.wasted_prefetches);
  put_kv(out, "network_time", m.network_time);
  put_kv(out, "prefetch_network_time", m.prefetch_network_time);
  put_kv(out, "demand_network_time", m.demand_network_time);
  put_kv(out, "solver_nodes", m.solver_nodes);
  // Exact OnlineStats state so the client-side accumulator is the same
  // object the in-process run would hold.
  put_kv(out, "at_n", m.access_time.count());
  put_kv(out, "at_mean", m.access_time.mean());
  put_kv(out, "at_m2", m.access_time.m2());
  put_kv(out, "at_min", m.access_time.min());
  put_kv(out, "at_max", m.access_time.max());
  put_plan_cache_stats(out, "pc_plan", result.plan_cache.plans);
  put_plan_cache_stats(out, "pc_sel", result.plan_cache.selections);
  put_kv(out, "over_viewing_time", result.over_viewing_time);
  put_kv(out, "plans", result.plans);
  put_kv(out, "churn_events", result.churn_events);
  put_kv(out, "budget_violations", result.budget_violations);
  put_kv(out, "worst_budget_overrun", result.worst_budget_overrun);
  put_kv(out, "link_utilization", result.link_utilization);
  put_kv(out, "fault_failed", result.fault.failed_transfers);
  put_kv(out, "fault_timeouts", result.fault.timeouts);
  put_kv(out, "fault_stalled", result.fault.stalled);
  put_kv(out, "fault_retries", result.fault.retries);
  put_kv(out, "fault_abandoned", result.fault.abandoned);
  put_kv(out, "ov_transitions", result.overload.transitions);
  put_kv(out, "ov_forced_transitions", result.overload.forced_transitions);
  put_kv(out, "ov_max_rung", result.overload.max_rung);
  put_kv(out, "ov_degraded_requests", result.overload.degraded_requests);
  for (std::size_t i = 0; i < result.overload.requests_at_rung.size();
       ++i) {
    put_kv(out, "ov_rung" + std::to_string(i),
           result.overload.requests_at_rung[i]);
  }
  put_kv(out, "deadline_hits", result.deadline_hits);
  return out;
}

SimResult decode_sim_result(std::string_view text) {
  SimResult result;
  std::uint64_t at_n = 0;
  double at_mean = 0.0, at_m2 = 0.0, at_min = 0.0, at_max = 0.0;
  for_each_kv(text, [&](std::string_view key, std::string_view v) {
    SimMetrics& m = result.metrics;
    if (key == "requests") {
      m.requests = parse_u64(v, key);
    } else if (key == "hits") {
      m.hits = parse_u64(v, key);
    } else if (key == "demand_fetches") {
      m.demand_fetches = parse_u64(v, key);
    } else if (key == "prefetch_fetches") {
      m.prefetch_fetches = parse_u64(v, key);
    } else if (key == "wasted_prefetches") {
      m.wasted_prefetches = parse_u64(v, key);
    } else if (key == "network_time") {
      m.network_time = parse_double(v, key);
    } else if (key == "prefetch_network_time") {
      m.prefetch_network_time = parse_double(v, key);
    } else if (key == "demand_network_time") {
      m.demand_network_time = parse_double(v, key);
    } else if (key == "solver_nodes") {
      m.solver_nodes = parse_u64(v, key);
    } else if (key == "at_n") {
      at_n = parse_u64(v, key);
    } else if (key == "at_mean") {
      at_mean = parse_double(v, key);
    } else if (key == "at_m2") {
      at_m2 = parse_double(v, key);
    } else if (key == "at_min") {
      at_min = parse_double(v, key);
    } else if (key == "at_max") {
      at_max = parse_double(v, key);
    } else if (key == "pc_plan_hits") {
      result.plan_cache.plans.hits = parse_u64(v, key);
    } else if (key == "pc_plan_misses") {
      result.plan_cache.plans.misses = parse_u64(v, key);
    } else if (key == "pc_plan_inserts") {
      result.plan_cache.plans.inserts = parse_u64(v, key);
    } else if (key == "pc_plan_evictions") {
      result.plan_cache.plans.evictions = parse_u64(v, key);
    } else if (key == "pc_plan_door_rejects") {
      result.plan_cache.plans.door_rejects = parse_u64(v, key);
    } else if (key == "pc_sel_hits") {
      result.plan_cache.selections.hits = parse_u64(v, key);
    } else if (key == "pc_sel_misses") {
      result.plan_cache.selections.misses = parse_u64(v, key);
    } else if (key == "pc_sel_inserts") {
      result.plan_cache.selections.inserts = parse_u64(v, key);
    } else if (key == "pc_sel_evictions") {
      result.plan_cache.selections.evictions = parse_u64(v, key);
    } else if (key == "pc_sel_door_rejects") {
      result.plan_cache.selections.door_rejects = parse_u64(v, key);
    } else if (key == "over_viewing_time") {
      result.over_viewing_time = parse_u64(v, key);
    } else if (key == "plans") {
      result.plans = parse_u64(v, key);
    } else if (key == "churn_events") {
      result.churn_events = parse_u64(v, key);
    } else if (key == "budget_violations") {
      result.budget_violations = parse_u64(v, key);
    } else if (key == "worst_budget_overrun") {
      result.worst_budget_overrun = parse_double(v, key);
    } else if (key == "link_utilization") {
      result.link_utilization = parse_double(v, key);
    } else if (key == "fault_failed") {
      result.fault.failed_transfers = parse_u64(v, key);
    } else if (key == "fault_timeouts") {
      result.fault.timeouts = parse_u64(v, key);
    } else if (key == "fault_stalled") {
      result.fault.stalled = parse_u64(v, key);
    } else if (key == "fault_retries") {
      result.fault.retries = parse_u64(v, key);
    } else if (key == "fault_abandoned") {
      result.fault.abandoned = parse_u64(v, key);
    } else if (key == "ov_transitions") {
      result.overload.transitions = parse_u64(v, key);
    } else if (key == "ov_forced_transitions") {
      result.overload.forced_transitions = parse_u64(v, key);
    } else if (key == "ov_max_rung") {
      result.overload.max_rung = static_cast<int>(parse_u64(v, key));
    } else if (key == "ov_degraded_requests") {
      result.overload.degraded_requests = parse_u64(v, key);
    } else if (key.rfind("ov_rung", 0) == 0) {
      const std::size_t i = parse_size(key.substr(7), key);
      SKP_REQUIRE(i < result.overload.requests_at_rung.size(),
                  "overload rung index out of range: " << key);
      result.overload.requests_at_rung[i] = parse_u64(v, key);
    } else if (key == "deadline_hits") {
      result.deadline_hits = parse_u64(v, key);
    } else {
      SKP_REQUIRE(false, "unknown skpd result key: " << key);
    }
  });
  result.metrics.access_time = OnlineStats::restore(
      static_cast<std::size_t>(at_n), at_mean, at_m2, at_min, at_max);
  return result;
}

}  // namespace skp
