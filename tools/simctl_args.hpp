// Shared argument-parsing helpers for the simctl CLI, factored out of
// the binary so the axis grammar, the JSON spec-file lowering and the
// `simctl run` command line are unit-testable
// (tests/test_simctl_args.cpp). Everything throws std::invalid_argument
// on bad input; simctl turns that into a "simctl: ..." diagnostic and
// exit 2, like every other usage error.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/fault.hpp"
#include "sim/link_schedule.hpp"
#include "sim/runtime.hpp"
#include "util/json.hpp"
#include "util/parse_digits.hpp"
#include "util/thread_pool.hpp"

namespace skp::simctl {

[[noreturn]] inline void bad_arg(const std::string& message) {
  throw std::invalid_argument(message);
}

// The items of a flag's `sep`-separated value. Every list reads its items
// here, so an empty item ("a,,b", "a," or "") is rejected alike in all.
inline std::vector<std::string> list_items(const std::string& value, char sep,
                                           const char* flag) {
  std::vector<std::string> items;
  for (std::size_t at = 0, end = 0; end != std::string::npos; at = end + 1) {
    end = value.find(sep, at);
    items.push_back(value.substr(at, end - at));
  }
  if (std::ranges::find(items, "") != items.end()) {
    bad_arg(std::string(flag) + ": empty item in '" + value + "'");
  }
  return items;
}

inline std::uint64_t parse_u64(const std::string& value, const char* flag) {
  // Digits only (util/parse_digits.hpp): a wrapped "-1" would turn a
  // typo into a near-infinite sweep.
  const std::optional<std::uint64_t> v = skp::parse_digits_u64(value);
  if (!v) {
    bad_arg(std::string(flag) + " expects an unsigned integer, got '" +
            value + "'");
  }
  return *v;
}

// --threads: at most kMaxThreads, so a typo cannot ask for millions of
// workers; 0 still means one per hardware thread.
inline std::size_t parse_thread_count(const std::string& value,
                                      const char* flag) {
  const std::uint64_t threads = parse_u64(value, flag);
  if (threads > kMaxThreads) {
    bad_arg(std::string(flag) + ": " + std::to_string(threads) +
            " exceeds the cap of " + std::to_string(kMaxThreads));
  }
  return static_cast<std::size_t>(threads);
}

inline double parse_double(const std::string& value, const char* flag) {
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty()) {
    bad_arg(std::string(flag) + " expects a number, got '" + value + "'");
  }
  // std::stod happily accepts "inf"/"nan" (any sign/case), and every
  // numeric spec field treats non-finite values as nonsense — a
  // `--threshold inf` would otherwise run a whole sweep of garbage
  // before anything notices. Reject once here, for every caller.
  if (!std::isfinite(parsed)) {
    bad_arg(std::string(flag) + " expects a finite number, got '" + value +
            "'");
  }
  return parsed;
}

// The most specs one sweep holds, and so the most points of any one
// axis. The largest committed sweep (tools/specs/nightly_scenario.json)
// has 240 specs.
inline constexpr std::size_t kMaxSweepSpecs = std::size_t{1} << 16;

// Rejects adding `steps` + 1 points to an axis that holds `have` when it
// would then pass kMaxSweepSpecs, before any of them is pushed. A count
// that is not finite is rejected too.
inline void require_axis_room(std::size_t have, double steps,
                              const char* flag) {
  if (!(steps < static_cast<double>(kMaxSweepSpecs - have))) {
    bad_arg(std::string(flag) + ": more than " +
            std::to_string(kMaxSweepSpecs) + " points");
  }
}

// The number of specs in the cross product of axes holding these many
// points; an empty axis stands for the base spec's single value. Rejects
// a product past kMaxSweepSpecs before the sweep is built.
inline std::size_t sweep_size(const std::vector<std::size_t>& points) {
  std::size_t specs = 1;
  for (const std::size_t n : points) {
    specs *= std::max<std::size_t>(1, n);
    if (specs > kMaxSweepSpecs) {
      bad_arg("the sweep holds more than " +
              std::to_string(kMaxSweepSpecs) + " specs");
    }
  }
  return specs;
}

// Numeric axis: "1,5,10" or "1:100:5" (inclusive bounds). Range
// expansion is index-based (lo + i*step) over a count fixed up front by
// rounding (hi-lo)/step to the nearest integer, ties DOWN — a half-step
// endpoint tolerance. Repeated `x += step` accumulated floating-point
// error that could skip the HI endpoint outright (0:1:0.1 used to yield
// 10 points, not 11) and emitted drifted 0.30000000000000004-style grid
// values; a single multiply keeps each value within one rounding of
// exact, and deciding the count once keeps the inclusive upper bound
// robust to that rounding (a HI within half a step of the grid snaps to
// the nearest grid point instead of falling off the axis). Ties round
// down so an exact half-step remainder — 1:10:2 — never emits a value a
// full step/2 past HI.
inline std::vector<double> parse_numeric_axis(const std::string& value,
                                              const char* flag) {
  std::vector<double> axis;
  for (const std::string& token : list_items(value, ',', flag)) {
    const std::vector<std::string> range = list_items(token, ':', flag);
    if (range.size() == 3) {
      const double lo = parse_double(range[0], flag);
      const double hi = parse_double(range[1], flag);
      const double step = parse_double(range[2], flag);
      if (step <= 0.0 || hi < lo) {
        bad_arg(std::string(flag) + ": bad range '" + token + "'");
      }
      const double steps = std::ceil((hi - lo) / step - 0.5);
      require_axis_room(axis.size(), steps, flag);
      const auto count = static_cast<std::size_t>(std::max(0.0, steps));
      for (std::size_t i = 0; i <= count; ++i) {
        axis.push_back(lo + static_cast<double>(i) * step);
      }
    } else if (range.size() == 1) {
      require_axis_room(axis.size(), 0.0, flag);
      axis.push_back(parse_double(token, flag));
    } else {
      bad_arg(std::string(flag) + ": bad token '" + token + "'");
    }
  }
  return axis;
}

// Integer axis: "1,5,10" or "1:9:2" (inclusive bounds). Seeds must not go
// through the double-valued axis — values above 2^53 (or fractional ones)
// would be silently corrupted by the round-trip.
inline std::vector<std::uint64_t> parse_integer_axis(
    const std::string& value, const char* flag) {
  std::vector<std::uint64_t> axis;
  for (const std::string& token : list_items(value, ',', flag)) {
    const std::vector<std::string> range = list_items(token, ':', flag);
    if (range.size() == 3) {
      const std::uint64_t lo = parse_u64(range[0], flag);
      const std::uint64_t hi = parse_u64(range[1], flag);
      const std::uint64_t step = parse_u64(range[2], flag);
      if (step == 0 || hi < lo) {
        bad_arg(std::string(flag) + ": bad range '" + token + "'");
      }
      // lo + i * step never passes hi, so no value wraps around.
      const std::uint64_t steps = (hi - lo) / step;
      require_axis_room(axis.size(), static_cast<double>(steps), flag);
      for (std::uint64_t i = 0; i <= steps; ++i) {
        axis.push_back(lo + i * step);
      }
    } else if (range.size() == 1) {
      require_axis_room(axis.size(), 0.0, flag);
      axis.push_back(parse_u64(token, flag));
    } else {
      bad_arg(std::string(flag) + ": bad token '" + token + "'");
    }
  }
  return axis;
}

// "LO:HI", each bound read by Parse.
template <auto Parse>
auto parse_pair(const std::string& value, const char* flag) {
  const std::vector<std::string> parts = list_items(value, ':', flag);
  if (parts.size() != 2) bad_arg(std::string(flag) + " expects LO:HI");
  return std::pair{Parse(parts[0], flag), Parse(parts[1], flag)};
}

// Link schedule: comma list of DUR:BW:LAT phases, e.g.
// "200:1:0,50:0.25:2" = 200 time units at full quality, then a 50-unit
// degraded window, cycling (sim/link_schedule.hpp).
inline std::vector<LinkPhase> parse_link_schedule(const std::string& value,
                                                  const char* flag) {
  std::vector<LinkPhase> schedule;
  for (const std::string& token : list_items(value, ',', flag)) {
    const std::vector<std::string> parts = list_items(token, ':', flag);
    if (parts.size() != 3) {
      bad_arg(std::string(flag) + ": phase '" + token +
              "' expects DUR:BW:LAT");
    }
    LinkPhase phase;
    phase.duration = parse_double(parts[0], flag);
    phase.bandwidth = parse_double(parts[1], flag);
    phase.latency = parse_double(parts[2], flag);
    if (phase.duration <= 0.0 || phase.bandwidth <= 0.0 ||
        phase.latency < 0.0) {
      bad_arg(std::string(flag) + ": phase '" + token +
              "' needs duration > 0, bandwidth > 0, latency >= 0");
    }
    schedule.push_back(phase);
  }
  return schedule;
}

// Retry policy: "MAX[:BASE[:FACTOR[:JITTER]]]", e.g. "3:0.5:2:0.1" =
// up to 3 attempts, re-attempt k waiting 0.5 * 2^(k-1), inflated by up
// to 10% deterministic jitter (sim/fault.hpp). Omitted fields keep the
// RetryPolicy defaults; range checks live in validate_fault_spec so the
// CLI and the JSON path reject the same inputs the runtime would.
inline RetryPolicy parse_retry_policy(const std::string& value,
                                      const char* flag) {
  const std::vector<std::string> parts = list_items(value, ':', flag);
  if (parts.size() > 4) {
    bad_arg(std::string(flag) + " expects MAX[:BASE[:FACTOR[:JITTER]]], "
            "got '" + value + "'");
  }
  RetryPolicy policy;
  policy.max_attempts =
      static_cast<std::size_t>(parse_u64(parts[0], flag));
  if (parts.size() > 1) policy.backoff_base = parse_double(parts[1], flag);
  if (parts.size() > 2) {
    policy.backoff_factor = parse_double(parts[2], flag);
  }
  if (parts.size() > 3) policy.jitter = parse_double(parts[3], flag);
  return policy;
}

// ---- JSON spec files ----------------------------------------------------
//
// A sweep definition as a document instead of a hand-assembled flag
// string:
//
//   {
//     "base":  {"driver": "netsim_des", "n_items": 24, "requests": 300,
//               "predictor_warmup": 32, "min_prob": 0.02},
//     "axes":  {"predictors": ["oracle", "markov1"], "seeds": "1:3:1",
//               "cache_sizes": [6, 12]},
//     "shard": "0/2",
//     "csv":   "shard0.csv",
//     "threads": 4
//   }
//
// Lowering is purely syntactic: every "base" member becomes the
// single-value flag of the same name (underscores spelled as dashes),
// every "axes" member the axis flag of the same name, and "shard" /
// "csv" / "threads" their execution flags. Values keep their literal
// text (numbers are never round-tripped through double), arrays join
// with commas, `true` lowers a bare switch (e.g. "pr", "no_plan_cache"),
// and `false`/`null` omit it. Unknown member names simply lower to
// unknown flags, which the flag parser then rejects with its usual
// message — one grammar, one validator. Flags given on the command line
// AFTER --spec override the file (last assignment wins).
inline std::vector<std::string> spec_file_to_flags(
    const std::string& json_text) {
  const JsonValue doc = JsonValue::parse(json_text);
  if (doc.kind() != JsonValue::Kind::Object) {
    bad_arg("--spec: document must be a JSON object");
  }
  std::vector<std::string> flags;
  auto flag_name = [](const std::string& key) {
    std::string name = "--" + key;
    for (char& c : name) {
      if (c == '_') c = '-';
    }
    return name;
  };
  auto scalar_text = [&](const std::string& key,
                         const JsonValue& v) -> std::string {
    switch (v.kind()) {
      case JsonValue::Kind::String: return v.as_string();
      case JsonValue::Kind::Number: return v.number_text();
      default:
        bad_arg("--spec: member '" + key + "' must be a " +
                "string or number, got " + JsonValue::kind_name(v.kind()));
    }
  };
  auto lower_member = [&](const std::string& key, const JsonValue& v) {
    switch (v.kind()) {
      case JsonValue::Kind::Bool:
        if (v.as_bool()) flags.push_back(flag_name(key));
        break;
      case JsonValue::Kind::Null:
        break;
      case JsonValue::Kind::Array: {
        std::string joined;
        for (const JsonValue& item : v.items()) {
          if (!joined.empty()) joined += ',';
          joined += scalar_text(key, item);
        }
        if (joined.empty()) {
          bad_arg("--spec: member '" + key + "' is an empty array");
        }
        flags.push_back(flag_name(key));
        flags.push_back(joined);
        break;
      }
      default:
        flags.push_back(flag_name(key));
        flags.push_back(scalar_text(key, v));
        break;
    }
  };

  for (const auto& [key, value] : doc.members()) {
    if (key == "base" || key == "axes") {
      if (value.kind() != JsonValue::Kind::Object) {
        bad_arg("--spec: '" + key + "' must be a JSON object");
      }
      for (const auto& [name, member] : value.members()) {
        lower_member(name, member);
      }
    } else if (key == "shard" || key == "csv") {
      flags.push_back(flag_name(key));
      flags.push_back(value.as_string());
    } else if (key == "threads") {
      flags.push_back("--threads");
      flags.push_back(scalar_text(key, value));
    } else {
      bad_arg("--spec: unknown top-level member '" + key +
              "' (expected base | axes | shard | csv | threads)");
    }
  }
  return flags;
}

// ---- simctl run's flag table ---------------------------------------------
//
// Every `simctl run` flag is one row of kRunFlags. parse_run looks each
// argument up in the table, one pass rejects the flags used outside
// their scope, run_flags_usage prints the rows, and the sweep is a
// mixed-radix decode over the axis rows. Adding a flag or an axis is
// adding a row.

// A `simctl run` command line, read: the specs this shard runs, each
// with its index in the whole sweep, and where the rows go.
struct RunPlan {
  std::vector<std::pair<std::size_t, SimSpec>> owned;
  std::size_t sweep_size = 0;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::optional<std::string> csv_path;
  std::optional<std::string> per_client_csv_path;
  std::size_t threads = 0;
};

// One point of a sweep axis: sets the axis's field of a spec.
using AxisPoint = std::function<void(SimSpec&)>;

// What a command line has set so far. An axis with no points keeps the
// base spec's value.
struct RunLine {
  SimSpec base;
  std::vector<std::vector<AxisPoint>> axes;  // by nesting position
  RunPlan plan;
};

// The runs a flag applies to: a flag of a spec section is read only by
// the drivers whose registry row reads the section (SimDriver::reads),
// a workload flag only by its workload, and any other flag by every run.
// A flag the run would never consult is rejected at parse rather than
// left in a sweep the CSV mislabels (reject-don't-drop, as in the
// drivers). A row names its scope by the section or the workload alone.
struct Scope {
  std::optional<SpecSection> section;
  std::optional<SimWorkloadKind> workload;

  constexpr Scope() = default;
  constexpr Scope(SpecSection s) : section(s) {}
  constexpr Scope(SimWorkloadKind w) : workload(w) {}
};

enum class FlagSection : unsigned char { Spec, Axis, Execution };

struct RunFlag {
  const char* name;
  const char* value;  // the placeholder; nullptr for a switch
  // Help lines, split at '\n'. A line holding "{}" gets fill()'s text in
  // its place and is wrapped; the others print as written. A scoped row
  // ends with a note of its scope: the drivers that read its spec
  // section, or its workload. Axis rows print that note alone.
  const char* help;
  // Reads the value into the line. nullptr for --spec, which simctl
  // expands into flags before the line is parsed.
  void (*set)(RunLine&, const RunFlag&, const std::string&);
  Scope scope = {};
  std::string (*fill)() = nullptr;
  FlagSection section = FlagSection::Spec;
  std::size_t nest = 0;  // axis rows: place in the nesting, 0 outermost
};

// "a | b | c": a token table's tokens, in table order.
template <const auto& Table>
std::string token_list() {
  std::string list;
  for (const auto& entry : Table) {
    list += (list.empty() ? "" : " | ") + std::string(entry.token);
  }
  return list;
}

inline std::string driver_list() {
  std::string list;
  for (const SimDriver& driver : driver_registry()) {
    list += (list.empty() ? "" : " | ") + std::string(driver.name);
  }
  return list;
}

[[noreturn]] inline void unknown_token(const char* flag,
                                       const std::string& token,
                                       const std::string& expected) {
  bad_arg(std::string(flag) + ": unknown token '" + token + "' (expected " +
          expected + ")");
}

template <const auto& Table>
auto read_token(const std::string& token, const char* flag) {
  using Enum = std::remove_cvref_t<decltype(Table[0].value)>;
  const std::optional<Enum> value = parse_token<Enum>(Table, token);
  if (!value) unknown_token(flag, token, token_list<Table>());
  return *value;
}

template <const auto& Table>
auto read_tokens(const std::string& list, const char* flag) {
  std::vector<decltype(read_token<Table>(list, flag))> values;
  for (const std::string& token : list_items(list, ',', flag)) {
    values.push_back(read_token<Table>(token, flag));
  }
  return values;
}

inline SimDriverKind read_driver(const std::string& name, const char* flag) {
  const SimDriver* driver = find_driver(name);
  if (!driver) unknown_token(flag, name, driver_list());
  return driver->kind;
}

inline std::string client_predictor_list() {
  return token_list<kPredictorTokens>() + " | inherit";
}

// One predictor token per client, "inherit" keeping the base spec's.
inline std::vector<MultiClientOverride> read_client_predictors(
    const std::string& list, const char* flag) {
  std::vector<MultiClientOverride> overrides;
  for (const std::string& token : list_items(list, ',', flag)) {
    overrides.emplace_back();
    if (token == "inherit") continue;
    overrides.back().predictor =
        parse_token<PredictorKind>(kPredictorTokens, token);
    if (!overrides.back().predictor) {
      unknown_token(flag, token, client_predictor_list());
    }
  }
  return overrides;
}

// The part of a spec that holds a Part's members, so a row names a
// field by one member pointer, such as &FaultSpec::timeout.
template <typename Part>
Part& part(SimSpec& spec) {
  if constexpr (std::is_same_v<Part, SimWorkload>) {
    return spec.workload;
  } else if constexpr (std::is_same_v<Part, MultiClientSpec>) {
    return spec.multi_client;
  } else if constexpr (std::is_same_v<Part, FaultSpec>) {
    return spec.fault;
  } else if constexpr (std::is_same_v<Part, OverloadConfig>) {
    return spec.overload;
  } else {
    return spec;
  }
}

template <typename Part, typename T>
T& field(SimSpec& spec, T Part::*member) {
  return part<Part>(spec).*member;
}

// The common row actions: Parse reads the value into the Member field.
template <auto Parse, auto Member>
void set_field(RunLine& line, const RunFlag& flag, const std::string& value) {
  field(line.base, Member) = Parse(value, flag.name);
}

template <bool On, auto Member>
void set_switch(RunLine& line, const RunFlag&, const std::string&) {
  field(line.base, Member) = On;
}

template <auto Parse, auto Member>
void set_axis(RunLine& line, const RunFlag& flag, const std::string& value) {
  std::vector<AxisPoint> points;
  for (const auto& point : Parse(value, flag.name)) {
    points.emplace_back(
        [point](SimSpec& spec) { field(spec, Member) = point; });
  }
  line.axes[flag.nest] = std::move(points);
}

inline constexpr RunFlag kRunFlags[] = {
    {"--driver", "NAME",
     "{}\n                              (default prefetch_cache)",
     set_field<read_driver, &SimSpec::driver>, {}, driver_list},
    {"--workload", "NAME", "{}",
     set_field<read_token<kWorkloadTokens>, &SimWorkload::kind>, {},
     token_list<kWorkloadTokens>},
    {"--n-items", "N", "catalog/state count",
     set_field<parse_u64, &SimWorkload::n_items>},
    {"--policy", "P", "{}",
     set_field<read_token<kPolicyTokens>, &SimSpec::policy>, {},
     token_list<kPolicyTokens>},
    {"--sub", "S", "{}", set_field<read_token<kSubTokens>, &SimSpec::sub>,
     {}, token_list<kSubTokens>},
    {"--delta", "D", "{}",
     set_field<read_token<kDeltaTokens>, &SimSpec::delta_rule>, {},
     token_list<kDeltaTokens>},
    {"--predictor", "K", "{}",
     set_field<read_token<kPredictorTokens>, &SimSpec::predictor>, {},
     token_list<kPredictorTokens>},
    {"--replacement", "R", "{}",
     set_field<read_token<kReplacementTokens>, &SimSpec::replacement>,
     SpecSection::Scenario, token_list<kReplacementTokens>},
    {"--pr", nullptr, "Figure-6 Pr-arbitration planning",
     set_switch<true, &SimSpec::pr_planning>, SpecSection::Scenario},
    {"--cache-size", "N", "slot-cache capacity",
     set_field<parse_u64, &SimSpec::cache_size>},
    {"--sized-capacity", "X", "byte-cache capacity",
     set_field<parse_double, &SimSpec::sized_capacity>, SpecSection::Sized},
    {"--size-per-r", "X", "sized-cache size coupling (0 = uniform draw)",
     set_field<parse_double, &SimSpec::size_per_r>, SpecSection::Sized},
    {"--requests", "N",
     "requests / iterations per spec (multi_client:\nper client)",
     set_field<parse_u64, &SimSpec::requests>},
    {"--warmup", "N", "leading requests excluded from metrics",
     set_field<parse_u64, &SimSpec::warmup>, SpecSection::Warmup},
    {"--seed", "N", "root RNG seed", set_field<parse_u64, &SimSpec::seed>},
    {"--bandwidth", "X", "net grounding",
     set_field<parse_double, &SimSpec::bandwidth>, SpecSection::Net},
    {"--latency", "X", "", set_field<parse_double, &SimSpec::latency>,
     SpecSection::Net},
    {"--threshold", "X", "min-profit prefetch suppression threshold",
     set_field<parse_double, &SimSpec::min_profit_threshold>},
    {"--min-prob", "X", "predictor shortlist floor",
     set_field<parse_double, &SimSpec::predictor_min_prob>},
    {"--predictor-warmup", "N", "observe-only prefix",
     set_field<parse_u64, &SimSpec::predictor_warmup>,
     SpecSection::PredictorWarmup},
    {"--clients", "N", "client count",
     set_field<parse_u64, &MultiClientSpec::clients>,
     SpecSection::MultiClient},
    {"--link-speedup", "X", "shared-link speed multiplier",
     set_field<parse_double, &MultiClientSpec::link_speedup>,
     SpecSection::MultiClient},
    {"--phase-align", "X", "flash-crowd alignment in [0,1]",
     set_field<parse_double, &MultiClientSpec::phase_align>,
     SpecSection::MultiClient},
    {"--churn-period", "X",
     "simulated time between client\n"
     "departures (0 = no churn)",
     set_field<parse_double, &MultiClientSpec::churn_period>,
     SpecSection::MultiClient},
    {"--churn-downtime", "X", "offline span per departure",
     set_field<parse_double, &MultiClientSpec::churn_downtime>,
     SpecSection::MultiClient},
    {"--client-predictors", "LIST",
     "one predictor token per\n"
     "client ({}), lowering to per-client\n"
     "overrides for mixed-predictor fleets. Count\n"
     "must equal --clients; an all-\"inherit\" list\n"
     "reproduces the run without the flag.",
     set_field<read_client_predictors, &MultiClientSpec::overrides>,
     SpecSection::MultiClient, client_predictor_list},
    {"--link-phases", "LIST",
     "time-varying link:\ncomma list of DUR:BW:LAT phases, cycling",
     set_field<parse_link_schedule, &SimSpec::link_schedule>,
     SpecSection::Des},
    {"--fail-rate", "X",
     "fault injection:\nP(prefetch attempt fails outright), in [0,1]",
     set_field<parse_double, &FaultSpec::fail_rate>, SpecSection::Des},
    {"--stall-rate", "X", "P(attempt runs --stall-factor x slower)",
     set_field<parse_double, &FaultSpec::stall_rate>, SpecSection::Des},
    {"--stall-factor", "X", "stall slowdown multiplier (default 4)",
     set_field<parse_double, &FaultSpec::stall_factor>, SpecSection::Des},
    {"--timeout", "X", "abort prefetch attempts longer than X (0 = off)",
     set_field<parse_double, &FaultSpec::timeout>, SpecSection::Des},
    {"--retry", "SPEC",
     "MAX[:BASE[:FACTOR[:JITTER]]] retry policy for\n"
     "failed prefetch attempts (default 1 = no retries)",
     set_field<parse_retry_policy, &FaultSpec::retry>, SpecSection::Des},
    {"--overload", nullptr, "enable the adaptive overload controller",
     set_switch<true, &OverloadConfig::enabled>, SpecSection::Des},
    {"--overload-window", "N", "realized-time sample window (default 64)",
     set_field<parse_u64, &OverloadConfig::window>, SpecSection::Des},
    {"--overload-degrade", "X", "descend a rung at sample/baseline >= X",
     set_field<parse_double, &OverloadConfig::degrade_ratio>,
     SpecSection::Des},
    {"--overload-recover", "X", "calm window at sample/baseline <= X",
     set_field<parse_double, &OverloadConfig::recover_ratio>,
     SpecSection::Des},
    {"--overload-recover-windows", "N",
     "consecutive calm windows before ascending",
     set_field<parse_u64, &OverloadConfig::recover_windows>,
     SpecSection::Des},
    {"--overload-depth", "N", "rung-1 lookahead candidate cap",
     set_field<parse_u64, &OverloadConfig::lookahead_depth>,
     SpecSection::Des},
    {"--overload-budget", "N", "rung-2 prefetch budget cap",
     set_field<parse_u64, &OverloadConfig::budget_items>, SpecSection::Des},
    {"--deadline", "X", "count requests served within X time units",
     set_field<parse_double, &SimSpec::deadline>, SpecSection::Des},
    {"--method", "M", "row: {}",
     set_field<read_token<kProbMethodTokens>, &SimWorkload::method>,
     SimWorkloadKind::Iid, token_list<kProbMethodTokens>},
    {"--skew-exponent", "X", "skewy exponent",
     set_field<parse_double, &SimWorkload::skew_exponent>,
     SimWorkloadKind::Iid},
    {"--zipf-s", "X", "tail exponent",
     set_field<parse_double, &SimWorkload::zipf_exponent>,
     SimWorkloadKind::Zipf},
    {"--no-zipf-shuffle", nullptr, "keep item id == popularity rank",
     set_switch<false, &SimWorkload::zipf_shuffle>, SimWorkloadKind::Zipf},
    {"--drift-period", "N", "changepoint period",
     set_field<parse_u64, &SimWorkload::drift_period>,
     SimWorkloadKind::MarkovDrift},
    {"--adv-hot-set", "N", "clique size (2 cliques of N items)",
     set_field<parse_u64, &SimWorkload::adv_hot_set>,
     SimWorkloadKind::Adversarial},
    {"--adv-escape", "X", "clique-escape probability",
     set_field<parse_double, &SimWorkload::adv_escape>,
     SimWorkloadKind::Adversarial},
    {"--out-degree", "LO:HI", "chain out-degree bounds",
     [](RunLine& line, const RunFlag& flag, const std::string& value) {
       // Integer bounds: a double would truncate fractions and make a
       // negative bound undefined behavior.
       SimWorkload& w = line.base.workload;
       std::tie(w.out_degree_lo, w.out_degree_hi) =
           parse_pair<parse_u64>(value, flag.name);
     }},
    {"--viewing", "LO:HI", "viewing-time range",
     [](RunLine& line, const RunFlag& flag, const std::string& value) {
       SimWorkload& w = line.base.workload;
       std::tie(w.v_lo, w.v_hi) = parse_pair<parse_double>(value, flag.name);
     }},
    {"--retrieval", "LO:HI", "retrieval-time range",
     [](RunLine& line, const RunFlag& flag, const std::string& value) {
       SimWorkload& w = line.base.workload;
       std::tie(w.r_lo, w.r_hi) = parse_pair<parse_double>(value, flag.name);
     }},
    {"--no-plan-cache", nullptr, "disable cross-request plan memoization",
     set_switch<false, &SimSpec::use_plan_cache>},

    // The axes, in help order; `nest` orders the sweep. Newer axes nest
    // inside the older ones, so a sweep that leaves them singleton keeps
    // its historical spec indices (the shard/merge key).
    {"--cache-sizes", "LIST", "",
     set_axis<parse_integer_axis, &SimSpec::cache_size>, {}, nullptr,
     FlagSection::Axis, 5},
    {"--policies", "LIST", "",
     set_axis<read_tokens<kPolicyTokens>, &SimSpec::policy>, {}, nullptr,
     FlagSection::Axis, 1},
    {"--subs", "LIST", "", set_axis<read_tokens<kSubTokens>, &SimSpec::sub>,
     {}, nullptr, FlagSection::Axis, 2},
    {"--predictors", "LIST", "",
     set_axis<read_tokens<kPredictorTokens>, &SimSpec::predictor>, {},
     nullptr, FlagSection::Axis, 3},
    {"--seeds", "LIST", "", set_axis<parse_integer_axis, &SimSpec::seed>, {},
     nullptr, FlagSection::Axis, 0},
    {"--thresholds", "LIST", "",
     set_axis<parse_numeric_axis, &SimSpec::min_profit_threshold>, {},
     nullptr, FlagSection::Axis, 4},
    {"--replacements", "LIST", "",
     set_axis<read_tokens<kReplacementTokens>, &SimSpec::replacement>,
     SpecSection::Scenario, nullptr, FlagSection::Axis, 6},
    {"--client-counts", "LIST", "",
     set_axis<parse_integer_axis, &MultiClientSpec::clients>,
     SpecSection::MultiClient, nullptr, FlagSection::Axis, 7},
    {"--link-speedups", "LIST", "",
     set_axis<parse_numeric_axis, &MultiClientSpec::link_speedup>,
     SpecSection::MultiClient, nullptr, FlagSection::Axis, 8},
    {"--fail-rates", "LIST", "",
     set_axis<parse_numeric_axis, &FaultSpec::fail_rate>, SpecSection::Des,
     nullptr, FlagSection::Axis, 9},

    {"--spec", "FILE", "JSON sweep definition (base/axes/shard/csv/threads)",
     nullptr, {}, nullptr, FlagSection::Execution},
    {"--shard", "I/N", "run only the specs with index % N == I",
     [](RunLine& line, const RunFlag& flag, const std::string& value) {
       const std::vector<std::string> parts =
           list_items(value, '/', flag.name);
       if (parts.size() != 2) bad_arg(std::string(flag.name) + " expects I/N");
       RunPlan& plan = line.plan;
       plan.shard_index = parse_u64(parts[0], flag.name);
       plan.shard_count = parse_u64(parts[1], flag.name);
       if (plan.shard_count == 0 || plan.shard_index >= plan.shard_count) {
         bad_arg(std::string(flag.name) + " index out of range");
       }
     },
     {}, nullptr, FlagSection::Execution},
    {"--csv", "PATH", "write CSV to PATH instead of stdout",
     [](RunLine& line, const RunFlag&, const std::string& value) {
       line.plan.csv_path = value;
     },
     {}, nullptr, FlagSection::Execution},
    {"--per-client-csv", "PATH",
     "companion CSV with one row\n"
     "per (spec, client); shard companions merge like\n"
     "the main document (simctl merge)",
     [](RunLine& line, const RunFlag&, const std::string& value) {
       line.plan.per_client_csv_path = value;
     },
     SpecSection::MultiClient, nullptr, FlagSection::Execution},
    {"--threads", "N", "sweep threads (0 = hardware concurrency,\nat most {})",
     [](RunLine& line, const RunFlag& flag, const std::string& value) {
       line.plan.threads = parse_thread_count(value, flag.name);
     },
     {}, [] { return std::to_string(kMaxThreads); }, FlagSection::Execution},
};

inline const RunFlag* find_run_flag(std::string_view name) {
  for (const RunFlag& flag : kRunFlags) {
    if (name == flag.name) return &flag;
  }
  return nullptr;
}

inline void check_scope(const RunFlag& flag, const SimSpec& spec) {
  const Scope& scope = flag.scope;
  if (scope.section && !find_driver(spec.driver).reads(*scope.section)) {
    bad_arg(std::string(flag.name) + " applies to --driver " +
            drivers_reading(*scope.section) + " only");
  }
  if (scope.workload && spec.workload.kind != *scope.workload) {
    bad_arg(std::string(flag.name) + " applies to --workload " +
            to_string(*scope.workload) + " only");
  }
}

// Reads a `simctl run` command line whose --spec files are already
// expanded into flags; when a flag repeats, the last one wins. nullopt
// when it asks for --help; every rejected argument throws
// std::invalid_argument.
inline std::optional<RunPlan> parse_run(
    const std::vector<std::string>& args) {
  RunLine line;
  line.axes.resize(static_cast<std::size_t>(
      std::ranges::count(kRunFlags, FlagSection::Axis, &RunFlag::section)));
  bool given[std::size(kRunFlags)] = {};
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--help" || args[i] == "-h") return std::nullopt;
    const RunFlag* flag = find_run_flag(args[i]);
    if (!flag || !flag->set) {
      bad_arg("unknown flag '" + args[i] + "' (see simctl --help)");
    }
    if (flag->value && ++i == args.size()) {
      bad_arg(std::string(flag->name) + " needs a value");
    }
    flag->set(line, *flag, flag->value ? args[i] : std::string());
    given[flag - kRunFlags] = true;
  }

  // Scope is checked once the whole line is read, so a flag may come
  // before the --driver or --workload that puts it in scope. An axis is
  // used when its last list has points.
  for (const RunFlag& flag : kRunFlags) {
    if (flag.section == FlagSection::Axis ? !line.axes[flag.nest].empty()
                                          : given[&flag - kRunFlags]) {
      check_scope(flag, line.base);
    }
  }
  // --client-predictors holds one entry per client for EVERY spec, so
  // it is sized to one fixed client count.
  const MultiClientSpec& mc = line.base.multi_client;
  if (!mc.overrides.empty()) {
    if (!line.axes[find_run_flag("--client-counts")->nest].empty()) {
      bad_arg("--client-predictors cannot combine with --client-counts "
              "(the list is sized to one fixed client count)");
    }
    if (mc.overrides.size() != mc.clients) {
      bad_arg("--client-predictors lists " +
              std::to_string(mc.overrides.size()) + " predictor(s) for " +
              std::to_string(mc.clients) + " client(s)");
    }
  }

  // A spec's index is a mixed-radix number over the axes in nesting
  // order, the outermost axis its most significant digit: the
  // shard/merge key depends on the flags alone. The product is bounded
  // before any spec is decoded, and a shard decodes only its own
  // indices.
  std::vector<std::size_t> radices;
  for (const std::vector<AxisPoint>& points : line.axes) {
    radices.push_back(points.size());
  }
  RunPlan& plan = line.plan;
  plan.sweep_size = sweep_size(radices);
  for (std::size_t index = 0; index < plan.sweep_size; ++index) {
    if (!shard_owns(index, plan.shard_index, plan.shard_count)) continue;
    SimSpec spec = line.base;
    std::size_t rest = index;
    for (auto axis = line.axes.rbegin(); axis != line.axes.rend(); ++axis) {
      if (axis->empty()) continue;
      (*axis)[rest % axis->size()](spec);
      rest /= axis->size();
    }
    plan.owned.emplace_back(index, std::move(spec));
  }
  return std::move(plan);
}

// Help text starts at kHelpColumn, and generated lines end by
// kHelpWidth.
inline constexpr std::size_t kHelpColumn = 25;
inline constexpr std::size_t kHelpWidth = 78;

// Appends `text` at the help column, broken at spaces so that no line
// passes kHelpWidth.
inline void append_wrapped(std::string& out, std::string_view text) {
  const std::size_t room = kHelpWidth - kHelpColumn;
  while (text.size() > room) {
    const std::size_t cut = text.rfind(' ', room);
    if (cut == std::string_view::npos) break;
    out += std::string(text.substr(0, cut)) + "\n" +
           std::string(kHelpColumn, ' ');
    text.remove_prefix(cut + 1);
  }
  out += text;
}

// The usage text's run-flag sections, printed from kRunFlags: a row per
// flag, and the axes packed onto shared lines.
inline std::string run_flags_usage() {
  static constexpr std::pair<FlagSection, const char*> kSections[] = {
      {FlagSection::Spec, "run flags (single-value spec fields):"},
      {FlagSection::Axis, "run flags (sweep axes; comma lists, numeric axes "
                          "accept LO:HI:STEP):"},
      {FlagSection::Execution, "run flags (execution):"},
  };
  std::string out;
  for (const auto& [section, heading] : kSections) {
    out += std::string("\n") + heading + "\n";
    std::string packed;  // the axis line being filled
    for (const RunFlag& flag : kRunFlags) {
      if (flag.section != section) continue;
      std::string label = flag.name;
      if (flag.value) label += std::string(" ") + flag.value;
      // The scope note: the drivers that read the flag's section, from
      // the registry, or the flag's workload.
      const Scope& scope = flag.scope;
      const std::string note =
          scope.section    ? "(" + drivers_reading(*scope.section) + ")"
          : scope.workload ? "(" + std::string(to_string(*scope.workload)) + ")"
                           : "";
      if (section == FlagSection::Axis) {
        if (!note.empty()) label += " " + note;
        if (!packed.empty() && packed.size() + 1 + label.size() > kHelpWidth) {
          out += packed + "\n";
          packed.clear();
        }
        packed += (packed.empty() ? "  " : " ") + label;
        continue;
      }
      // Every row has help or a note. The help starts on the label's line
      // when two spaces still fit.
      const std::string indent(kHelpColumn, ' ');
      out += "  " + label +
             (label.size() + 4 <= kHelpColumn
                  ? std::string(kHelpColumn - 2 - label.size(), ' ')
                  : "\n" + indent);
      std::istringstream lines(flag.help);
      std::string text;
      for (bool first = true; std::getline(lines, text); first = false) {
        if (!first) out += "\n" + indent;
        const std::size_t hole = text.find("{}");
        if (hole == std::string::npos) {
          out += text;
        } else {
          append_wrapped(out, text.replace(hole, 2, flag.fill()));
        }
      }
      // The note ends the help's last line when it fits there.
      if (!note.empty()) {
        const std::size_t column = out.size() - out.rfind('\n') - 1;
        const bool fits = column + 1 + note.size() <= kHelpWidth;
        out += (!*flag.help ? "" : fits ? " " : "\n" + indent) + note;
      }
      out += "\n";
    }
    if (!packed.empty()) out += packed + "\n";
  }
  return out + "\nA sweep holds at most " + std::to_string(kMaxSweepSpecs) +
         " specs: each axis, and their cross product.\n";
}

}  // namespace skp::simctl
