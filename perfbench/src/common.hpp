// Shared plumbing of the perfbench workloads: run options, the metric
// report, timing helpers, process probes and the span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/runtime.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Self-test: corrupt one expected value so the output check must fail.
  bool perturb = false;
  std::string skpd_bin;   // built tools/skpd (skpd_open_loop only)
  std::string out_dir;    // span dumps and daemon logs land here
};

// One workload run's outcome: the last stdout line of the benchmark.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics;  // name -> (value, unit), in report order

  void set(const std::string& name, double value, const std::string& unit);
  // Records a failed output check (printed to stderr) without aborting.
  void fail_check(const std::string& what);
  std::string json() const;
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

// Peak resident set (VmHWM) of a process in MB; pid 0 = this process.
double peak_rss_mb(int pid = 0);
// utime + stime of a process in seconds (from /proc/<pid>/stat).
double process_cpu_s(int pid);
// CPU time consumed by this thread so far, in seconds.
double thread_cpu_s();
// Bytes the allocator reports as in use by this process.
std::size_t heap_in_use_bytes();

// Runs every spec once through run_sim, in order, and returns the pass's
// wall seconds. `best_s`, when given, keeps each spec's fastest time over
// the passes so far.
double run_pass(const std::vector<skp::SimSpec>& specs,
                std::vector<skp::SimResult>& results,
                std::vector<double>* best_s);

// The end-to-end metrics of an in-process workload, from each spec's
// fastest time over a run's passes (`requests[i]` requests each; set-up,
// redone before every pass, is likewise reported by its fastest run):
// requests_per_s over the whole grid and the p50/p90 over specs of the
// host time per simulated request. On the shared reference host the same
// pass ran anywhere from 580k to 910k req/s within minutes, as other
// tenants came and went; a spec's best time over a dozen passes repeats
// where the median of pass rates did not.
void report_best_times(Report& report, const std::vector<double>& best_s,
                       const std::vector<std::uint64_t>& requests);

// Moves this process (and `other`, when > 0) onto one CPU, the next of
// the CPUs it may run on at each call. The skpd workload shares one core
// between the generator and the daemon: run on two cores, every wake-up
// crossed CPUs, and under other tenants' load identical runs on the
// 4-vCPU reference host moved by 2x; on one core they stayed within
// ~20%. Rotating the core between a run's segments (or passes) means one
// slow core, with a busy neighbour on its host core, moves a share of the
// samples rather than the whole run.
class CpuRotation {
 public:
  CpuRotation();
  void next(int other = 0);

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

// Exact text form of every deterministic counter of a SimResult, for
// comparing two code paths that must agree bit for bit.
std::string result_digest(const skp::SimResult& result);

// result_digest with the plan-memo counters cleared: what the same spec
// run with use_plan_cache=false must reproduce.
std::string digest_without_memo(skp::SimResult result);

// Keeps the first pass's results in `first` (when it is empty) and
// counts a failure for every later result that differs from it: the
// simulation is deterministic, so every pass must repeat the first.
void check_repeat(const std::vector<skp::SimResult>& results,
                  std::vector<skp::SimResult>& first, const char* what,
                  Report& report);

// Mixes the benchmark seed with a salt into an independent spec seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

// Span tracer for the traced runs. Layers are fixed per workload; each
// request is one root span whose children are the calls into layers.
// Self time per layer is accumulated for every request; full spans
// (name, start, end, parent, request id) are kept in memory for every
// `sample_every`-th request and written out at exit.
class Tracer {
 public:
  Tracer(std::vector<std::string> layer_names, std::uint64_t sample_every);

  void begin_request(std::uint64_t request_id);
  void end_request();

  // Runs `f` as a child span of the current request under `layer`.
  template <class F>
  decltype(auto) span(std::size_t layer, F&& f) {
    struct Closer {
      Tracer* t;
      std::size_t layer;
      std::int64_t start;
      ~Closer() { t->close(layer, start, now_ns()); }
    } closer{this, layer, now_ns()};
    return f();
  }

  // Total self time (ns) and call count of one layer.
  double self_ns(std::size_t layer) const { return self_ns_[layer]; }
  std::uint64_t calls(std::size_t layer) const { return calls_[layer]; }
  // Requests traced so far.
  std::uint64_t requests() const noexcept { return requests_; }
  // Sum of layer self times / request time.
  double coverage() const;

  // Writes the sampled spans as CSV (request,span,parent,name,start_ns,
  // end_ns), start times relative to the first span.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t request;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::uint32_t name;    // layers() = the request span itself
    std::int64_t start;
    std::int64_t end;
  };
  void close(std::size_t layer, std::int64_t start, std::int64_t end);

  std::vector<std::string> names_;
  std::uint64_t sample_every_;
  std::vector<double> self_ns_;
  std::vector<std::uint64_t> calls_;
  double request_ns_ = 0.0;
  std::uint64_t requests_ = 0;
  std::uint64_t current_ = 0;
  std::int64_t request_start_ = 0;
  bool sampled_ = false;
  std::uint32_t next_id_ = 0;
  std::uint32_t root_id_ = 0;
  std::vector<Span> spans_;
};

}  // namespace perfbench
