// simctl — one binary for any SimSpec the unified runtime can execute,
// with multi-process sharding and byte-identical CSV merging.
//
//   simctl run [spec flags] [sweep flags] [--shard I/N] [--csv PATH]
//   simctl run --spec FILE [overriding flags]
//   simctl merge OUT IN1 [IN2 ...]
//   simctl drivers
//
// `run` reads its flags from one table (tools/simctl_args.hpp), decodes
// the specs the requested shard owns (index % N == I) from the
// cross-product of every sweep flag (fixed nesting order, so each spec
// has a stable index), fans them onto the thread pool via
// sim/sweep.hpp, and emits one CSV row per spec. Because every spec is
// fully determined by its fields — never by which process/thread ran
// it — `merge` of any shard partition reproduces the single-process
// document byte for byte; tools/simctl_shard_check.sh (ctest
// simctl_shard_merge) locks that down.
//
// `--spec FILE` reads the same flags from a file, one per line
// (tools/simctl_args.hpp documents the format), so cluster runs are a
// committed document, not a hand-assembled flag string; flags after
// --spec override the file.
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sim/runtime.hpp"
#include "sim/sweep.hpp"
#include "simctl_args.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace skp;

// SIGINT/SIGTERM mid-sweep: finish the specs already running, skip the
// rest, and emit a VALID partial document (header + completed rows + a
// "# interrupted at spec N" trailer) instead of a torn file. The merge
// path rejects trailered documents, so a partial shard cannot silently
// produce an incomplete sweep.
volatile std::sig_atomic_t g_interrupted = 0;

void on_interrupt(int) { g_interrupted = 1; }

[[noreturn]] void usage(int exit_code) {
  std::ostream& os = exit_code == 0 ? std::cout : std::cerr;
  os << R"(usage:
  simctl run [flags]         execute a spec sweep, emit CSV
  simctl run --spec FILE     read run flags from FILE, one per line
                             (later flags override the file)
  simctl merge OUT IN...     merge shard CSVs into the single-run document
                             (rejects duplicate/overlapping spec indices)
  simctl drivers             list registered drivers and enum tokens
)" << simctl::run_flags_usage();
  std::exit(exit_code);
}

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "simctl: " << message << "\n";
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// Collects argv into strings, expanding each `--spec FILE` in place into
// the flags the file holds — so flags AFTER --spec override the file, and
// everything funnels through one flag grammar/validator.
std::vector<std::string> expand_args(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec") {
      if (i + 1 >= argc) fail("--spec needs a file path");
      const std::string path = argv[++i];
      std::ifstream in(path);
      const std::vector<std::string> flags =
          simctl::read_spec_flags(in, path);
      out.insert(out.end(), flags.begin(), flags.end());
    } else {
      out.push_back(arg);
    }
  }
  return out;
}

// Every rejected argument exits 2 through fail(): parse_run and the
// spec-file reader throw std::invalid_argument for each, and so does
// an output path that cannot be opened, which is opened before the
// sweep runs. Once the sweep runs, an exception (a spec the driver
// rejects) reaches main and exits 1.
int run_command(int argc, char** argv) {
  std::optional<simctl::RunPlan> parsed;
  std::ofstream file;
  std::ofstream pc_file;
  try {
    parsed = simctl::parse_run(expand_args(argc, argv));
    if (parsed && parsed->csv_path) file = open_csv(*parsed->csv_path);
    if (parsed && parsed->per_client_csv_path) {
      pc_file = open_csv(*parsed->per_client_csv_path);
    }
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  if (!parsed) usage(0);
  // The owned (index, spec) pairs carry their global index into the
  // merge.
  const auto& [owned, sweep_size, shard_index, shard_count, csv_path,
               per_client_csv_path, threads] = *parsed;

  std::signal(SIGINT, &on_interrupt);
  std::signal(SIGTERM, &on_interrupt);
  ThreadPool pool(threads);
  // Each job checks the interrupt flag before starting: specs already
  // in flight run to completion (their rows are valid), specs not yet
  // started are skipped (nullopt).
  const std::vector<std::optional<SimResult>> results = sweep_points(
      pool, owned.size(),
      [&](std::size_t i) -> std::optional<SimResult> {
        if (g_interrupted) return std::nullopt;
        return run_sim(owned[i].second);
      });
  // First owned spec (global index) without a result — the interruption
  // point named by the trailer.
  std::optional<std::size_t> interrupted_at;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    if (!results[i]) {
      interrupted_at = owned[i].first;
      break;
    }
  }

  std::ostream& os = csv_path ? static_cast<std::ostream&>(file)
                              : std::cout;
  CsvWriter writer(os);
  writer.row(sim_csv_header());
  for (std::size_t i = 0; i < owned.size(); ++i) {
    if (!results[i]) continue;
    append_sim_csv_row(writer, owned[i].first, owned[i].second,
                       *results[i]);
  }
  if (interrupted_at) {
    os << "# interrupted at spec " << *interrupted_at << "\n";
  }
  os.flush();
  if (!os) fail("write failed: " + csv_path.value_or("stdout"));
  if (per_client_csv_path) {
    CsvWriter pc_writer(pc_file);
    pc_writer.row(per_client_csv_header());
    for (std::size_t i = 0; i < owned.size(); ++i) {
      if (!results[i]) continue;
      append_per_client_csv_rows(pc_writer, owned[i].first,
                                 owned[i].second, *results[i]);
    }
    if (interrupted_at) {
      pc_file << "# interrupted at spec " << *interrupted_at << "\n";
    }
    pc_file.flush();
    if (!pc_file) fail("write failed: " + *per_client_csv_path);
  }
  if (shard_count > 1) {
    std::cerr << "simctl: shard " << shard_index << "/" << shard_count
              << " ran " << owned.size() << " of " << sweep_size
              << " specs\n";
  }
  if (g_interrupted) {
    std::cerr << "simctl: interrupted"
              << (interrupted_at
                      ? " at spec " + std::to_string(*interrupted_at)
                      : std::string(" after the final spec"))
              << "; partial document written\n";
    return 130;
  }
  return 0;
}


int merge_command(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string out_path = argv[0];
  std::vector<std::string> shards;
  std::vector<std::string> names;
  for (int i = 1; i < argc; ++i) {
    names.push_back(argv[i]);
    shards.push_back(read_file(argv[i]));
  }
  const std::string merged = merge_sharded_csv(shards, names);
  if (out_path == "-") {
    std::cout << merged;
    std::cout.flush();
    if (!std::cout) fail("write failed: stdout");
  } else {
    std::ofstream os(out_path);
    if (!os) fail("cannot write " + out_path);
    os << merged;
    os.flush();
    if (!os) fail("write failed: " + out_path);
  }
  return 0;
}

template <typename Enum>
void print_tokens(const char* label, std::span<const EnumToken<Enum>> table) {
  std::cout << label << ":";
  for (const EnumToken<Enum>& t : table) std::cout << ' ' << t.token;
  std::cout << "\n";
}

int drivers_command() {
  std::cout << "registered drivers:\n";
  for (const SimDriver& driver : driver_registry()) {
    std::cout << "  " << driver.name << "\n";
  }
  print_tokens<SimWorkloadKind>("workloads", kWorkloadTokens);
  print_tokens<ProbMethod>("methods", kProbMethodTokens);
  print_tokens<PrefetchPolicy>("policies", kPolicyTokens);
  print_tokens<SubArbitration>("subs", kSubTokens);
  print_tokens<DeltaRule>("deltas", kDeltaTokens);
  print_tokens<PredictorKind>("predictors", kPredictorTokens);
  print_tokens<ReplacementKind>("replacements", kReplacementTokens);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string command = argv[1];
  try {
    if (command == "run") return run_command(argc - 2, argv + 2);
    if (command == "merge") return merge_command(argc - 2, argv + 2);
    if (command == "drivers") return drivers_command();
    if (command == "--help" || command == "-h") usage(0);
  } catch (const std::exception& e) {
    std::cerr << "simctl: " << e.what() << "\n";
    return 1;
  }
  usage(2);
}
