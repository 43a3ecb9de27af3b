// simctl — one binary for any SimSpec the unified runtime can execute,
// with multi-process sharding and byte-identical CSV merging.
//
//   simctl run [spec flags] [sweep flags] [--shard I/N] [--csv PATH]
//   simctl run --spec FILE [overriding flags]
//   simctl merge OUT IN1 [IN2 ...]
//   simctl drivers
//
// `run` enumerates the cross-product of every sweep flag (fixed nesting
// order, so each spec has a stable index), keeps the indices owned by the
// requested shard (index % N == I), fans them onto the thread pool via
// sim/sweep.hpp, and emits one CSV row per spec. Because every spec is
// fully determined by its fields — never by which process/thread ran
// it — `merge` of any shard partition reproduces the single-process
// document byte for byte; the CI shard check and
// tools/simctl_shard_check.sh lock that down.
//
// `--spec FILE` reads the same flags from a JSON sweep definition
// (tools/simctl_args.hpp documents the schema) so cluster runs are a
// committed document, not a hand-assembled flag string; flags after
// --spec override the file.
#include <csignal>
#include <cstdint>
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
using simctl::parse_double;
using simctl::parse_integer_axis;
using simctl::parse_numeric_axis;
using simctl::parse_range_pair;
using simctl::parse_thread_count;
using simctl::parse_u64;
using simctl::split;
using simctl::sweep_size;

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
  simctl run --spec FILE     read base/axes/shard from a JSON sweep file
                             (later flags override the file)
  simctl merge OUT IN...     merge shard CSVs into the single-run document
                             (rejects duplicate/overlapping spec indices)
  simctl drivers             list registered drivers and enum tokens

run flags (single-value spec fields):
  --driver NAME          prefetch_only | prefetch_cache | trace_replay |
                         netsim_des | scenario | multi_client
                                                       (default prefetch_cache)
  --workload NAME        markov | iid | zipf | markov_drift | trace_text |
                         adversarial
  --n-items N            catalog/state count
  --policy P             none | kp | skp | perfect
  --sub S                none | lfu | ds
  --delta D              exact | paper
  --predictor K          oracle | markov1 | ppm | lz78 | depgraph
  --replacement R        lru | fifo | lfu | random     (scenario driver)
  --pr                   scenario driver: Figure-6 Pr-arbitration planning
  --cache-size N         slot-cache capacity
  --sized-capacity X     byte-cache capacity (prefetch_cache driver)
  --size-per-r X         sized-cache size coupling (0 = uniform draw)
  --requests N           requests / iterations per spec (multi_client:
                         per client)
  --warmup N             leading requests excluded from metrics
  --seed N               root RNG seed
  --bandwidth X          net grounding (netsim_des / scenario / multi_client)
  --latency X
  --threshold X          min-profit prefetch suppression threshold
  --min-prob X           predictor shortlist floor
  --predictor-warmup N   observe-only prefix (scenario / netsim_des /
                         multi_client)
  --clients N            multi_client driver: client count
  --link-speedup X       multi_client driver: shared-link speed multiplier
  --phase-align X        multi_client driver: flash-crowd alignment in [0,1]
  --churn-period X       multi_client driver: simulated time between client
                         departures (0 = no churn)
  --churn-downtime X     multi_client driver: offline span per departure
  --client-predictors LIST
                         multi_client driver: one predictor token per
                         client (oracle | markov1 | ppm | lz78 |
                         depgraph | inherit), lowering to per-client
                         overrides for mixed-predictor fleets. Count
                         must equal --clients; an all-"inherit" list
                         reproduces the run without the flag.
  --link-phases LIST     time-varying link (netsim_des / multi_client):
                         comma list of DUR:BW:LAT phases, cycling
  --fail-rate X          fault injection (netsim_des / multi_client):
                         P(prefetch attempt fails outright), in [0,1]
  --stall-rate X         P(attempt runs --stall-factor x slower)
  --stall-factor X       stall slowdown multiplier (default 4)
  --timeout X            abort prefetch attempts longer than X (0 = off)
  --retry SPEC           MAX[:BASE[:FACTOR[:JITTER]]] retry policy for
                         failed prefetch attempts (default 1 = no retries)
  --overload             enable the adaptive overload controller
                         (netsim_des / multi_client)
  --overload-window N    realized-time sample window (default 64)
  --overload-degrade X   descend a rung at sample/baseline >= X
  --overload-recover X   calm window at sample/baseline <= X
  --overload-recover-windows N
                         consecutive calm windows before ascending
  --overload-depth N     rung-1 lookahead candidate cap
  --overload-budget N    rung-2 prefetch budget cap
  --deadline X           count requests served within X time units
                         (netsim_des / multi_client)
  --method M             iid row: skewy | flat
  --skew-exponent X      iid skewy exponent
  --zipf-s X             Zipf tail exponent
  --no-zipf-shuffle      keep item id == popularity rank
  --drift-period N       markov_drift changepoint period
  --adv-hot-set N        adversarial clique size (2 cliques of N items)
  --adv-escape X         adversarial clique-escape probability
  --out-degree LO:HI     chain out-degree bounds
  --viewing LO:HI        viewing-time range
  --retrieval LO:HI      retrieval-time range
  --no-plan-cache        disable cross-request plan memoization

run flags (sweep axes; comma lists, numeric axes accept LO:HI:STEP):
  --cache-sizes LIST --policies LIST --subs LIST --predictors LIST
  --seeds LIST --thresholds LIST --replacements LIST (scenario)
  --client-counts LIST --link-speedups LIST (multi_client)
  --fail-rates LIST (netsim_des / multi_client)

run flags (execution):
  --spec FILE            JSON sweep definition (base/axes/shard/csv/threads)
  --shard I/N            run only the specs with index % N == I
  --csv PATH             write CSV to PATH instead of stdout
  --per-client-csv PATH  multi_client driver: companion CSV with one row
                         per (spec, client); shard companions merge like
                         the main document (simctl merge)
  --threads N            sweep threads (0 = hardware concurrency,
                         at most )" << kMaxThreads << R"()

A sweep holds at most )" << simctl::kMaxSweepSpecs
     << R"( specs: each axis, and their cross product.
)";
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
// the flags its JSON document lowers to — so flags AFTER --spec override
// the file, and everything funnels through one flag grammar/validator.
std::vector<std::string> expand_args(int argc, char** argv) {
  std::vector<std::string> out;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec") {
      if (i + 1 >= argc) fail("--spec needs a file path");
      const std::string path = argv[++i];
      const std::vector<std::string> lowered =
          simctl::spec_file_to_flags(read_file(path));
      out.insert(out.end(), lowered.begin(), lowered.end());
    } else {
      out.push_back(arg);
    }
  }
  return out;
}

// A `simctl run` command line, read: the whole sweep, the shard of it
// this process runs and where the rows go.
struct RunPlan {
  std::vector<SimSpec> sweep;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::optional<std::string> csv_path;
  std::optional<std::string> per_client_csv_path;
  std::size_t threads = 0;
};

RunPlan parse_run(const std::vector<std::string>& args) {
  SimSpec base;
  // Sweep axes (empty = use the base spec's single value).
  std::vector<double> thresholds, link_speedups, fail_rates;
  std::vector<std::uint64_t> cache_sizes, seeds, client_counts;
  std::vector<PrefetchPolicy> policies;
  std::vector<SubArbitration> subs;
  std::vector<PredictorKind> predictors;
  std::vector<ReplacementKind> replacements;
  // --client-predictors: one predictor per client, "inherit" keeping the
  // base spec's choice; lowered into multi_client overrides after the
  // whole command line is parsed (so --clients may come later).
  std::vector<std::optional<PredictorKind>> client_predictors;
  std::size_t shard_index = 0, shard_count = 1;
  std::optional<std::string> csv_path;
  std::optional<std::string> per_client_csv_path;
  std::size_t threads = 0;
  // Workload-/driver-scoped flags: remember they were given so a flag the
  // selected workload or driver never consults fails the run instead of
  // silently producing a sweep the CSV mislabels (reject-don't-drop, as
  // in the runtime's drivers).
  bool drift_flag = false, zipf_flag = false, iid_flag = false;
  bool adv_flag = false;
  bool multi_client_flag = false;
  bool link_schedule_flag = false;
  bool robustness_flag = false;

  auto need_value = [&](std::size_t& i, const char* flag) ->
      const std::string& {
    if (i + 1 >= args.size()) fail(std::string(flag) + " needs a value");
    return args[++i];
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--driver") {
      const std::string v = need_value(i, "--driver");
      const auto kind = parse_driver_kind(v);
      if (!kind) fail("unknown driver '" + v + "'");
      base.driver = *kind;
    } else if (flag == "--workload") {
      const std::string v = need_value(i, "--workload");
      const auto kind = parse_workload_kind(v);
      if (!kind) fail("unknown workload '" + v + "'");
      base.workload.kind = *kind;
    } else if (flag == "--n-items") {
      base.workload.n_items = parse_u64(need_value(i, flag.c_str()),
                                        "--n-items");
    } else if (flag == "--policy") {
      const std::string v = need_value(i, "--policy");
      const auto p = parse_policy(v);
      if (!p) fail("unknown policy '" + v + "'");
      base.policy = *p;
    } else if (flag == "--sub") {
      const std::string v = need_value(i, "--sub");
      const auto s = parse_sub_arbitration(v);
      if (!s) fail("unknown sub-arbitration '" + v + "'");
      base.sub = *s;
    } else if (flag == "--delta") {
      const std::string v = need_value(i, "--delta");
      const auto d = parse_delta_rule(v);
      if (!d) fail("unknown delta rule '" + v + "'");
      base.delta_rule = *d;
    } else if (flag == "--predictor") {
      const std::string v = need_value(i, "--predictor");
      const auto p = parse_predictor_kind(v);
      if (!p) fail("unknown predictor '" + v + "'");
      base.predictor = *p;
    } else if (flag == "--replacement") {
      const std::string v = need_value(i, "--replacement");
      const auto r = parse_replacement_kind(v);
      if (!r) fail("unknown replacement policy '" + v + "'");
      base.replacement = *r;
    } else if (flag == "--pr") {
      base.pr_planning = true;
    } else if (flag == "--cache-size") {
      base.cache_size = parse_u64(need_value(i, flag.c_str()),
                                  "--cache-size");
    } else if (flag == "--sized-capacity") {
      base.sized_capacity = parse_double(need_value(i, flag.c_str()),
                                         "--sized-capacity");
    } else if (flag == "--size-per-r") {
      base.size_per_r = parse_double(need_value(i, flag.c_str()),
                                     "--size-per-r");
    } else if (flag == "--requests") {
      base.requests = parse_u64(need_value(i, flag.c_str()), "--requests");
    } else if (flag == "--warmup") {
      base.warmup = parse_u64(need_value(i, flag.c_str()), "--warmup");
    } else if (flag == "--seed") {
      base.seed = parse_u64(need_value(i, flag.c_str()), "--seed");
    } else if (flag == "--bandwidth") {
      base.bandwidth = parse_double(need_value(i, flag.c_str()),
                                    "--bandwidth");
    } else if (flag == "--latency") {
      base.latency = parse_double(need_value(i, flag.c_str()), "--latency");
    } else if (flag == "--threshold") {
      base.min_profit_threshold =
          parse_double(need_value(i, flag.c_str()), "--threshold");
    } else if (flag == "--min-prob") {
      base.predictor_min_prob =
          parse_double(need_value(i, flag.c_str()), "--min-prob");
    } else if (flag == "--predictor-warmup") {
      base.predictor_warmup =
          parse_u64(need_value(i, flag.c_str()), "--predictor-warmup");
    } else if (flag == "--clients") {
      base.multi_client.clients =
          parse_u64(need_value(i, flag.c_str()), "--clients");
      multi_client_flag = true;
    } else if (flag == "--link-speedup") {
      base.multi_client.link_speedup =
          parse_double(need_value(i, flag.c_str()), "--link-speedup");
      multi_client_flag = true;
    } else if (flag == "--phase-align") {
      base.multi_client.phase_align =
          parse_double(need_value(i, flag.c_str()), "--phase-align");
      multi_client_flag = true;
    } else if (flag == "--churn-period") {
      base.multi_client.churn_period =
          parse_double(need_value(i, flag.c_str()), "--churn-period");
      multi_client_flag = true;
    } else if (flag == "--churn-downtime") {
      base.multi_client.churn_downtime =
          parse_double(need_value(i, flag.c_str()), "--churn-downtime");
      multi_client_flag = true;
    } else if (flag == "--client-predictors") {
      client_predictors.clear();
      for (const std::string& token :
           split(need_value(i, "--client-predictors"), ',')) {
        if (token == "inherit") {
          client_predictors.push_back(std::nullopt);
          continue;
        }
        const auto p = parse_predictor_kind(token);
        if (!p) {
          fail("unknown client predictor '" + token +
               "' (expected a predictor token or 'inherit')");
        }
        client_predictors.push_back(*p);
      }
      if (client_predictors.empty()) fail("--client-predictors: empty list");
      multi_client_flag = true;
    } else if (flag == "--link-phases") {
      base.link_schedule = simctl::parse_link_schedule(
          need_value(i, flag.c_str()), "--link-phases");
      link_schedule_flag = true;
    } else if (flag == "--fail-rate") {
      base.fault.fail_rate =
          parse_double(need_value(i, flag.c_str()), "--fail-rate");
      robustness_flag = true;
    } else if (flag == "--stall-rate") {
      base.fault.stall_rate =
          parse_double(need_value(i, flag.c_str()), "--stall-rate");
      robustness_flag = true;
    } else if (flag == "--stall-factor") {
      base.fault.stall_factor =
          parse_double(need_value(i, flag.c_str()), "--stall-factor");
      robustness_flag = true;
    } else if (flag == "--timeout") {
      base.fault.timeout =
          parse_double(need_value(i, flag.c_str()), "--timeout");
      robustness_flag = true;
    } else if (flag == "--retry") {
      base.fault.retry =
          simctl::parse_retry_policy(need_value(i, "--retry"), "--retry");
      robustness_flag = true;
    } else if (flag == "--overload") {
      base.overload.enabled = true;
      robustness_flag = true;
    } else if (flag == "--overload-window") {
      base.overload.window = static_cast<std::size_t>(
          parse_u64(need_value(i, flag.c_str()), "--overload-window"));
      robustness_flag = true;
    } else if (flag == "--overload-degrade") {
      base.overload.degrade_ratio =
          parse_double(need_value(i, flag.c_str()), "--overload-degrade");
      robustness_flag = true;
    } else if (flag == "--overload-recover") {
      base.overload.recover_ratio =
          parse_double(need_value(i, flag.c_str()), "--overload-recover");
      robustness_flag = true;
    } else if (flag == "--overload-recover-windows") {
      base.overload.recover_windows = static_cast<std::size_t>(parse_u64(
          need_value(i, flag.c_str()), "--overload-recover-windows"));
      robustness_flag = true;
    } else if (flag == "--overload-depth") {
      base.overload.lookahead_depth = static_cast<std::size_t>(
          parse_u64(need_value(i, flag.c_str()), "--overload-depth"));
      robustness_flag = true;
    } else if (flag == "--overload-budget") {
      base.overload.budget_items = static_cast<std::size_t>(
          parse_u64(need_value(i, flag.c_str()), "--overload-budget"));
      robustness_flag = true;
    } else if (flag == "--deadline") {
      base.deadline =
          parse_double(need_value(i, flag.c_str()), "--deadline");
      robustness_flag = true;
    } else if (flag == "--method") {
      const std::string v = need_value(i, "--method");
      const auto m = parse_prob_method(v);
      if (!m) fail("unknown method '" + v + "'");
      base.workload.method = *m;
      iid_flag = true;
    } else if (flag == "--skew-exponent") {
      base.workload.skew_exponent =
          parse_double(need_value(i, flag.c_str()), "--skew-exponent");
      iid_flag = true;
    } else if (flag == "--zipf-s") {
      base.workload.zipf_exponent =
          parse_double(need_value(i, flag.c_str()), "--zipf-s");
      zipf_flag = true;
    } else if (flag == "--no-zipf-shuffle") {
      base.workload.zipf_shuffle = false;
      zipf_flag = true;
    } else if (flag == "--drift-period") {
      base.workload.drift_period =
          parse_u64(need_value(i, flag.c_str()), "--drift-period");
      drift_flag = true;
    } else if (flag == "--adv-hot-set") {
      base.workload.adv_hot_set =
          parse_u64(need_value(i, flag.c_str()), "--adv-hot-set");
      adv_flag = true;
    } else if (flag == "--adv-escape") {
      base.workload.adv_escape =
          parse_double(need_value(i, flag.c_str()), "--adv-escape");
      adv_flag = true;
    } else if (flag == "--out-degree") {
      // Integer bounds: the double-valued pair parser would truncate
      // fractions and make a negative bound undefined behavior.
      const std::vector<std::string> parts =
          split(need_value(i, "--out-degree"), ':');
      if (parts.size() != 2) fail("--out-degree expects LO:HI");
      base.workload.out_degree_lo =
          static_cast<std::size_t>(parse_u64(parts[0], "--out-degree"));
      base.workload.out_degree_hi =
          static_cast<std::size_t>(parse_u64(parts[1], "--out-degree"));
    } else if (flag == "--viewing") {
      parse_range_pair(need_value(i, flag.c_str()), "--viewing",
                       base.workload.v_lo, base.workload.v_hi);
    } else if (flag == "--retrieval") {
      parse_range_pair(need_value(i, flag.c_str()), "--retrieval",
                       base.workload.r_lo, base.workload.r_hi);
    } else if (flag == "--no-plan-cache") {
      base.use_plan_cache = false;
    } else if (flag == "--cache-sizes") {
      cache_sizes = parse_integer_axis(need_value(i, flag.c_str()),
                                       "--cache-sizes");
    } else if (flag == "--seeds") {
      seeds = parse_integer_axis(need_value(i, flag.c_str()), "--seeds");
    } else if (flag == "--thresholds") {
      thresholds = parse_numeric_axis(need_value(i, flag.c_str()),
                                      "--thresholds");
    } else if (flag == "--policies") {
      policies.clear();
      for (const std::string& token :
           split(need_value(i, "--policies"), ',')) {
        const auto p = parse_policy(token);
        if (!p) fail("unknown policy '" + token + "'");
        policies.push_back(*p);
      }
    } else if (flag == "--subs") {
      subs.clear();
      for (const std::string& token : split(need_value(i, "--subs"), ',')) {
        const auto s = parse_sub_arbitration(token);
        if (!s) fail("unknown sub-arbitration '" + token + "'");
        subs.push_back(*s);
      }
    } else if (flag == "--predictors") {
      predictors.clear();
      for (const std::string& token :
           split(need_value(i, "--predictors"), ',')) {
        const auto p = parse_predictor_kind(token);
        if (!p) fail("unknown predictor '" + token + "'");
        predictors.push_back(*p);
      }
    } else if (flag == "--replacements") {
      replacements.clear();
      for (const std::string& token :
           split(need_value(i, "--replacements"), ',')) {
        const auto r = parse_replacement_kind(token);
        if (!r) fail("unknown replacement policy '" + token + "'");
        replacements.push_back(*r);
      }
    } else if (flag == "--client-counts") {
      client_counts = parse_integer_axis(need_value(i, flag.c_str()),
                                         "--client-counts");
      multi_client_flag = true;
    } else if (flag == "--link-speedups") {
      link_speedups = parse_numeric_axis(need_value(i, flag.c_str()),
                                         "--link-speedups");
      multi_client_flag = true;
    } else if (flag == "--fail-rates") {
      fail_rates = parse_numeric_axis(need_value(i, flag.c_str()),
                                      "--fail-rates");
      robustness_flag = true;
    } else if (flag == "--shard") {
      const std::vector<std::string> parts =
          split(need_value(i, "--shard"), '/');
      if (parts.size() != 2) fail("--shard expects I/N");
      shard_index = parse_u64(parts[0], "--shard");
      shard_count = parse_u64(parts[1], "--shard");
      if (shard_count == 0 || shard_index >= shard_count) {
        fail("--shard index out of range");
      }
    } else if (flag == "--csv") {
      csv_path = need_value(i, "--csv");
    } else if (flag == "--per-client-csv") {
      per_client_csv_path = need_value(i, "--per-client-csv");
    } else if (flag == "--threads") {
      threads = parse_thread_count(need_value(i, flag.c_str()), "--threads");
    } else if (flag == "--help" || flag == "-h") {
      usage(0);
    } else {
      fail("unknown flag '" + flag + "' (see simctl --help)");
    }
  }

  if (drift_flag && base.workload.kind != SimWorkloadKind::MarkovDrift) {
    fail("--drift-period applies to --workload markov_drift only");
  }
  if (zipf_flag && base.workload.kind != SimWorkloadKind::Zipf) {
    fail("--zipf-s/--no-zipf-shuffle apply to --workload zipf only");
  }
  if (iid_flag && base.workload.kind != SimWorkloadKind::Iid) {
    fail("--method/--skew-exponent apply to --workload iid only");
  }
  if (adv_flag && base.workload.kind != SimWorkloadKind::Adversarial) {
    fail("--adv-hot-set/--adv-escape apply to --workload adversarial only");
  }
  if (multi_client_flag &&
      base.driver != SimDriverKind::MultiClientDes) {
    fail("--clients/--link-speedup/--phase-align/--churn-period/"
         "--churn-downtime/--client-predictors/--client-counts/"
         "--link-speedups apply to --driver multi_client only");
  }
  if (!client_predictors.empty()) {
    // The override vector must stay one-entry-per-client for EVERY spec
    // in the sweep, so a client-count axis is incompatible with a fixed
    // predictor list.
    if (!client_counts.empty()) {
      fail("--client-predictors cannot combine with --client-counts "
           "(the list is sized to one fixed client count)");
    }
    if (client_predictors.size() != base.multi_client.clients) {
      fail("--client-predictors lists " +
           std::to_string(client_predictors.size()) +
           " predictor(s) for " +
           std::to_string(base.multi_client.clients) + " client(s)");
    }
    base.multi_client.overrides.resize(client_predictors.size());
    for (std::size_t c = 0; c < client_predictors.size(); ++c) {
      base.multi_client.overrides[c].predictor = client_predictors[c];
    }
  }
  if (link_schedule_flag && base.driver != SimDriverKind::NetsimDes &&
      base.driver != SimDriverKind::MultiClientDes) {
    fail("--link-phases applies to --driver netsim_des or multi_client");
  }
  if (!replacements.empty() && base.driver != SimDriverKind::Scenario) {
    fail("--replacements applies to --driver scenario only");
  }
  if (robustness_flag && base.driver != SimDriverKind::NetsimDes &&
      base.driver != SimDriverKind::MultiClientDes) {
    fail("--fail-rate/--stall-rate/--stall-factor/--timeout/--retry/"
         "--fail-rates/--overload*/--deadline apply to --driver "
         "netsim_des or multi_client only");
  }
  if (per_client_csv_path && base.driver != SimDriverKind::MultiClientDes) {
    fail("--per-client-csv applies to --driver multi_client only");
  }

  // Enumerate the cross-product in a fixed nesting order — the spec
  // index this induces is the shard/merge key, so it must not depend on
  // anything but the flags. Its size is checked before it is built.
  const std::size_t specs = sweep_size(
      {seeds.size(), policies.size(), subs.size(), predictors.size(),
       thresholds.size(), cache_sizes.size(), replacements.size(),
       client_counts.size(), link_speedups.size(), fail_rates.size()});
  std::vector<SimSpec> sweep;
  sweep.reserve(specs);
  for (const std::uint64_t seed :
       seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds) {
    for (const PrefetchPolicy policy :
         policies.empty() ? std::vector<PrefetchPolicy>{base.policy}
                          : policies) {
      for (const SubArbitration sub :
           subs.empty() ? std::vector<SubArbitration>{base.sub} : subs) {
        for (const PredictorKind predictor :
             predictors.empty() ? std::vector<PredictorKind>{base.predictor}
                                : predictors) {
          for (const double threshold :
               thresholds.empty()
                   ? std::vector<double>{base.min_profit_threshold}
                   : thresholds) {
            for (const std::uint64_t cache_size :
                 cache_sizes.empty()
                     ? std::vector<std::uint64_t>{base.cache_size}
                     : cache_sizes) {
              // Newer axes nest INSIDE the original six so a sweep that
              // leaves them singleton keeps its historical spec indices
              // (the shard/merge key must stay stable across releases).
              for (const ReplacementKind replacement :
                   replacements.empty()
                       ? std::vector<ReplacementKind>{base.replacement}
                       : replacements) {
                for (const std::uint64_t clients :
                     client_counts.empty()
                         ? std::vector<std::uint64_t>{
                               base.multi_client.clients}
                         : client_counts) {
                  for (const double link_speedup :
                       link_speedups.empty()
                           ? std::vector<double>{
                                 base.multi_client.link_speedup}
                           : link_speedups) {
                    for (const double fail_rate :
                         fail_rates.empty()
                             ? std::vector<double>{base.fault.fail_rate}
                             : fail_rates) {
                      SimSpec spec = base;
                      spec.seed = seed;
                      spec.policy = policy;
                      spec.sub = sub;
                      spec.predictor = predictor;
                      spec.min_profit_threshold = threshold;
                      spec.cache_size =
                          static_cast<std::size_t>(cache_size);
                      spec.replacement = replacement;
                      spec.multi_client.clients =
                          static_cast<std::size_t>(clients);
                      spec.multi_client.link_speedup = link_speedup;
                      spec.fault.fail_rate = fail_rate;

                      sweep.push_back(spec);
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }

  return RunPlan{std::move(sweep), shard_index, shard_count, csv_path,
                 per_client_csv_path, threads};
}

// Every rejected argument exits 2 through fail(): the parsers' and the
// spec-file lowering's std::invalid_argument as much as an unknown flag.
// Once the sweep runs, an exception (a spec the driver rejects) reaches
// main and exits 1.
int run_command(int argc, char** argv) {
  RunPlan plan;
  try {
    plan = parse_run(expand_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
  const auto& [sweep, shard_index, shard_count, csv_path,
               per_client_csv_path, threads] = plan;

  // Shard selection keeps (index, spec) pairs so rows carry their global
  // index into the merge.
  std::vector<std::pair<std::size_t, SimSpec>> owned;
  for (std::size_t index = 0; index < sweep.size(); ++index) {
    if (shard_owns(index, shard_index, shard_count)) {
      owned.emplace_back(index, sweep[index]);
    }
  }

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

  std::ofstream file;
  if (csv_path) {
    file = open_csv(*csv_path);
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
    std::ofstream pc_file = open_csv(*per_client_csv_path);
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
              << " ran " << owned.size() << " of " << sweep.size()
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
