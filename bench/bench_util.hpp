// Shared command-line handling for the figure-reproduction binaries.
//
// Every bench accepts:
//   --full          paper-scale run (50 000 iterations etc.); default is a
//                   reduced-scale run that finishes in seconds
//   --seed <u64>    RNG seed (default 1)
//   --csv <dir>     also write each series as CSV files into <dir>, which
//                   must already exist
//   --threads <n>   worker threads for the sweep drivers (0 = one per
//                   hardware thread, the default; 1 = serial; at most
//                   kMaxThreads = 1024). Sweep results are bit-identical
//                   for every thread count — each sim point is
//                   independently seeded — so this only changes
//                   wall-clock.
//   --no-plan-cache disable cross-request plan memoization in sims that
//                   support it (A/B switch; results are bit-identical
//                   either way, only wall-clock changes)
//
// Bad input (an unknown flag, a missing or non-numeric value, a thread
// count past the cap, a --csv directory that does not exist) exits 2 with
// a message before the bench runs anything.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "util/parse_digits.hpp"
#include "util/thread_pool.hpp"

namespace skp::bench {

[[noreturn]] inline void reject_arg(const std::string& message) {
  std::cerr << message << "\n";
  std::exit(2);
}

// Digits only (util/parse_digits.hpp): strtoull would read "abc" as 0 and
// wrap "-1" into 2^64 - 1.
inline std::uint64_t parse_u64(const std::string& value, const char* flag) {
  const std::optional<std::uint64_t> v = skp::parse_digits_u64(value);
  if (!v) {
    reject_arg(std::string(flag) + " expects an unsigned integer, got '" +
               value + "'");
  }
  return *v;
}

struct BenchArgs {
  bool full = false;
  std::uint64_t seed = 1;
  std::optional<std::string> csv_dir;
  std::size_t threads = 0;  // 0 = hardware concurrency
  bool no_plan_cache = false;
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--full") {
      args.full = true;
    } else if (a == "--seed" && i + 1 < argc) {
      args.seed = parse_u64(argv[++i], "--seed");
    } else if (a == "--csv" && i + 1 < argc) {
      args.csv_dir = argv[++i];
      std::error_code ec;
      if (!std::filesystem::is_directory(*args.csv_dir, ec)) {
        reject_arg("--csv: '" + *args.csv_dir +
                   "' is not an existing directory");
      }
    } else if (a == "--threads" && i + 1 < argc) {
      const std::uint64_t threads = parse_u64(argv[++i], "--threads");
      if (threads > skp::kMaxThreads) {
        reject_arg("--threads: " + std::to_string(threads) +
                   " exceeds the cap of " +
                   std::to_string(skp::kMaxThreads));
      }
      args.threads = static_cast<std::size_t>(threads);
    } else if (a == "--no-plan-cache") {
      args.no_plan_cache = true;
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--full] [--seed <u64>] [--csv <dir>]"
                   " [--threads <n>] [--no-plan-cache]\n";
      std::exit(0);
    } else {
      reject_arg("unknown argument: " + a);
    }
  }
  return args;
}

}  // namespace skp::bench
