// Figure 4 reproduction: scatter plots of access time T against viewing
// time v for the SKP prefetch and the KP prefetch, under the skewy and
// flat probability methods (panels a-d). n = 10, v ~ U{1..100},
// r ~ U{1..30}; the paper plots 500 of 50 000 iterations.
//
// Expected shapes (paper Section 4.4):
//   (a) SKP/skewy: points ABOVE T = 30 = max r exist (stretch intrusion);
//   (c) KP/skewy: dense triangular region above the line T = v for small v
//       (high-probability items whose r exceeds v are never prefetched);
//   (b)/(d) flat: SKP and KP look almost identical.
#include <iostream>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "sim/prefetch_only.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"

namespace {

using namespace skp;

struct Panel {
  const char* label;
  PrefetchPolicy policy;
  ProbMethod method;
};

void run_panel(const Panel& panel, const bench::BenchArgs& args) {
  SimSpec spec;
  spec.driver = SimDriverKind::PrefetchOnly;
  spec.workload.kind = SimWorkloadKind::Iid;
  spec.workload.n_items = 10;
  spec.workload.method = panel.method;
  spec.policy = panel.policy;
  spec.delta_rule = DeltaRule::PaperTail;  // paper-faithful Figure-3 rule
  spec.requests = args.full ? 50'000 : 8'000;
  spec.seed = args.seed;
  std::vector<std::pair<double, double>> scatter(500);  // the paper's 500
  const SimResult res = run_prefetch_only(spec, scatter);

  PlotOptions opts;
  opts.title = std::string("Fig 4") + panel.label + "  " +
               to_string(panel.policy) + " prefetch, " +
               to_string(panel.method) + " method, n = 10";
  opts.x_label = "v";
  opts.y_label = "T";
  opts.x_min = 0;
  opts.x_max = 100;
  opts.y_min = 0;
  opts.y_max = 50;
  opts.width = 76;
  opts.height = 24;
  std::cout << render_scatter(scatter, opts, '*') << "\n";

  // Shape diagnostics the paper calls out.
  std::size_t above_max_r = 0, above_line_T_eq_v = 0;
  for (const auto& [v, T] : scatter) {
    if (T > 30.0) ++above_max_r;
    if (T > v) ++above_line_T_eq_v;
  }
  std::cout << "  points with T > max r (30): " << above_max_r
            << "   points above T = v: " << above_line_T_eq_v
            << "   mean T: " << res.metrics.mean_access_time() << "\n\n";

  if (args.csv_dir) {
    auto f = open_csv(*args.csv_dir + "/fig4" + panel.label + "_" +
                      to_string(panel.policy) + "_" +
                      to_string(panel.method) + ".csv");
    CsvWriter w(f);
    w.row({"v", "T"});
    for (const auto& [v, T] : scatter) w.row_of(v, T);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = skp::bench::parse_args(argc, argv);
  std::cout << "=== Figure 4: scatter of T against v ('prefetch only') ===\n"
            << "    " << (args.full ? "full" : "reduced")
            << " scale; seed " << args.seed << "\n\n";
  const Panel panels[] = {
      {"a", skp::PrefetchPolicy::SKP, skp::ProbMethod::Skewy},
      {"b", skp::PrefetchPolicy::SKP, skp::ProbMethod::Flat},
      {"c", skp::PrefetchPolicy::KP, skp::ProbMethod::Skewy},
      {"d", skp::PrefetchPolicy::KP, skp::ProbMethod::Flat},
  };
  for (const auto& p : panels) run_panel(p, args);
  return 0;
}
