// Shared argument-parsing helpers for the simctl CLI, factored out of
// the binary so the axis grammar and the JSON spec-file lowering are
// unit-testable (tests/test_simctl_args.cpp). Everything throws
// std::invalid_argument on bad input; simctl turns that into a
// "simctl: ..." diagnostic and exit 2, like every other usage error.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fault.hpp"
#include "sim/link_schedule.hpp"
#include "util/json.hpp"
#include "util/parse_digits.hpp"
#include "util/thread_pool.hpp"

namespace skp::simctl {

[[noreturn]] inline void bad_arg(const std::string& message) {
  throw std::invalid_argument(message);
}

inline std::vector<std::string> split(const std::string& value, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(value);
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
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
inline std::size_t sweep_size(std::initializer_list<std::size_t> points) {
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
  for (const std::string& token : split(value, ',')) {
    const std::vector<std::string> range = split(token, ':');
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
  if (axis.empty()) bad_arg(std::string(flag) + ": empty axis");
  return axis;
}

// Integer axis: "1,5,10" or "1:9:2" (inclusive bounds). Seeds must not go
// through the double-valued axis — values above 2^53 (or fractional ones)
// would be silently corrupted by the round-trip.
inline std::vector<std::uint64_t> parse_integer_axis(
    const std::string& value, const char* flag) {
  std::vector<std::uint64_t> axis;
  for (const std::string& token : split(value, ',')) {
    const std::vector<std::string> range = split(token, ':');
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
  if (axis.empty()) bad_arg(std::string(flag) + ": empty axis");
  return axis;
}

inline void parse_range_pair(const std::string& value, const char* flag,
                             double& lo, double& hi) {
  const std::vector<std::string> parts = split(value, ':');
  if (parts.size() != 2) bad_arg(std::string(flag) + " expects LO:HI");
  lo = parse_double(parts[0], flag);
  hi = parse_double(parts[1], flag);
}

// Link schedule: comma list of DUR:BW:LAT phases, e.g.
// "200:1:0,50:0.25:2" = 200 time units at full quality, then a 50-unit
// degraded window, cycling (sim/link_schedule.hpp).
inline std::vector<LinkPhase> parse_link_schedule(const std::string& value,
                                                  const char* flag) {
  std::vector<LinkPhase> schedule;
  for (const std::string& token : split(value, ',')) {
    const std::vector<std::string> parts = split(token, ':');
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
  if (schedule.empty()) bad_arg(std::string(flag) + ": empty schedule");
  return schedule;
}

// Retry policy: "MAX[:BASE[:FACTOR[:JITTER]]]", e.g. "3:0.5:2:0.1" =
// up to 3 attempts, re-attempt k waiting 0.5 * 2^(k-1), inflated by up
// to 10% deterministic jitter (sim/fault.hpp). Omitted fields keep the
// RetryPolicy defaults; range checks live in validate_fault_spec so the
// CLI and the JSON path reject the same inputs the runtime would.
inline RetryPolicy parse_retry_policy(const std::string& value,
                                      const char* flag) {
  const std::vector<std::string> parts = split(value, ':');
  if (parts.empty() || parts.size() > 4) {
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

}  // namespace skp::simctl
