// The perfbench workloads (see perfbench/README.md for why each exists
// and which layer metric should move which end-to-end metric).
#pragma once

#include "common.hpp"

namespace perfbench {

Report run_fig7_oracle(const Options& opt);
Report run_learned_des(const Options& opt);
// Drives a spawned skpd daemon for `seconds` and sets its per-layer
// metrics (sim.stepper.*, sim.protocol.*, tools.skpd.*, loadgen.*) in
// `report`, adding its steps to attempted/failed.
void measure_skpd(const Options& opt, double seconds, Report& report);

// Seeds `report` with every metric of the run kind at 0, in report
// order, so each workload only sets the metrics it measures. Every run
// reports all of them; a layer the workload does not exercise reads 0 in
// the traced run.
void declare_metrics(Report& report, bool trace);

}  // namespace perfbench
