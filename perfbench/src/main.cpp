// perfbench: runs one named workload for a fixed time and prints one
// JSON result line (see perfbench/README.md). Normally started by
// perfbench/run.py, which builds this binary and the daemon first.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--skpd-bin PATH] [--out-dir DIR] [--perturb]
//
// --skpd-bin is needed by the learned_des traced run, which also drives
// the skpd daemon.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <span>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"requests_per_s", "req/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},       {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
};

const MetricDef kPerLayer[] = {
    {"workload.ns", "ns"},
    {"core.plan.ns", "ns"},
    {"core.memo.plan_hit_rate", "ratio"},
    {"core.memo.select_hit_rate", "ratio"},
    {"core.solver.nodes_per_req", "count"},
    {"core.solver.cold_start_nodes", "count"},
    {"core.victim.ns", "ns"},
    {"core.victim.calls_per_req", "count"},
    {"core.access.ns", "ns"},
    {"cache.ns", "ns"},
    {"predict.markov1.predict_ns", "ns"},
    {"predict.markov1.observe_ns", "ns"},
    {"predict.markov1.heap_mb", "MB"},
    {"predict.lz78.predict_ns", "ns"},
    {"predict.lz78.observe_ns", "ns"},
    {"predict.lz78.heap_mb", "MB"},
    {"predict.ppm.predict_ns", "ns"},
    {"predict.ppm.observe_ns", "ns"},
    {"predict.ppm.heap_mb", "MB"},
    {"sim.netsim.request_ns", "ns"},
    {"sim.multi_client.requests_per_s", "req/s"},
    {"sim.stepper.step_ns", "ns"},
    {"sim.protocol.encode_ns", "ns"},
    {"sim.protocol.decode_ns", "ns"},
    {"tools.skpd.setup_s", "s"},
    {"tools.skpd.peak_rss_mb", "MB"},
    {"tools.skpd.steps_per_s", "steps/s"},
    {"tools.skpd.heavy_p50_us", "us"},
    {"tools.skpd.heavy_p90_us", "us"},
    {"tools.skpd.light_p50_us", "us"},
    {"tools.skpd.light_p99_us", "us"},
    {"tools.skpd.slo_steps_per_s", "steps/s"},
    {"tools.skpd.cpu_us_per_step", "us"},
    {"tools.skpd.busy_frac", "ratio"},
    {"tools.skpd.hello_us", "us"},
    {"tools.skpd.rtt_us", "us"},
    {"tools.skpd.inflight_max", "count"},
    {"tools.skpd.forced_degrades", "count"},
    {"tools.skpd.plan_hit_rate", "ratio"},
    {"tools.skpd.select_hit_rate", "ratio"},
    {"tools.skpd.nodes_per_step", "count"},
    {"loadgen.send_lag_p99_us", "us"},
    {"loadgen.cpu_frac", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

}  // namespace

void declare_metrics(Report& report, bool trace) {
  const std::span<const MetricDef> defs =
      trace ? std::span<const MetricDef>(kPerLayer)
            : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : defs) report.set(def.name, 0.0, def.unit);
}

}  // namespace perfbench

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload fig7_oracle|learned_des "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--skpd-bin PATH] [--out-dir DIR] "
               "[--perturb]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--perturb") {
      opt.perturb = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--skpd-bin") {
      opt.skpd_bin = value;
    } else if (arg == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0.0) return usage();
  try {
    perfbench::Report report;
    if (opt.workload == "fig7_oracle") {
      report = perfbench::run_fig7_oracle(opt);
    } else if (opt.workload == "learned_des") {
      report = perfbench::run_learned_des(opt);
    } else {
      return usage();
    }
    std::cout << report.json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
