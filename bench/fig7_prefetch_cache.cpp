// Figure 7 reproduction: access time per request against cache size for
// the five prefetch-cache policies:
//   No+Pr, KP+Pr, SKP+Pr, SKP+Pr+LFU, SKP+Pr+DS.
// Workload per the paper's caption: 100-state Markov source, 10-20
// transitions per state, viewing times 1..100, retrieval times 1..30,
// 50 000 requests per point, cache size swept 1..100.
//
// Expected shape: all curves fall with cache size and converge once the
// cache approaches the catalog size; SKP+Pr+DS lowest, then SKP+Pr+LFU,
// SKP+Pr, KP+Pr, No+Pr highest.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <iterator>

#include "bench_util.hpp"
#include "sim/runtime.hpp"
#include "sim/sweep.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace skp;

struct Policy {
  const char* name;
  PrefetchPolicy policy;
  SubArbitration sub;
  char glyph;
};

const Policy kPolicies[] = {
    {"No+Pr", PrefetchPolicy::None, SubArbitration::None, 'n'},
    {"KP+Pr", PrefetchPolicy::KP, SubArbitration::None, 'k'},
    {"SKP+Pr", PrefetchPolicy::SKP, SubArbitration::None, 's'},
    {"SKP+Pr+LFU", PrefetchPolicy::SKP, SubArbitration::LFU, 'l'},
    {"SKP+Pr+DS", PrefetchPolicy::SKP, SubArbitration::DS, 'd'},
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = skp::bench::parse_args(argc, argv);
  const std::size_t requests = args.full ? 50'000 : 4'000;
  const std::size_t step = args.full ? 1 : 5;  // cache sizes 1,1+step,...
  ThreadPool pool(args.threads);
  std::cout << "=== Figure 7: access time per request vs cache size ===\n"
            << "    " << (args.full ? "full" : "reduced") << " scale ("
            << requests << " requests/point, cache step " << step
            << "); seed " << args.seed << "; " << pool.thread_count()
            << " sweep thread(s)\n\n";

  std::vector<std::size_t> sizes;
  sizes.push_back(1);
  for (std::size_t c = step; c <= 100; c += step) sizes.push_back(c);

  // Every (policy, cache size) cell is one SimSpec — an independently
  // seeded sim — so the registry-dispatched parallel fan-out reproduces
  // the serial numbers bit-for-bit (each point owns its PlanCache, so
  // memoization does not couple points either).
  std::vector<SimSpec> specs;
  for (const Policy& pol : kPolicies) {
    for (const std::size_t cache_size : sizes) {
      SimSpec spec;  // prefetch_cache driver, paper-default Markov source
      spec.cache_size = cache_size;
      spec.policy = pol.policy;
      spec.sub = pol.sub;
      // ExactComplement reproduces the paper's "SKP prefetch performs
      // better than KP prefetch"; the verbatim Figure-3 tail-sum delta
      // inverts that ordering (see DESIGN.md D1 / ablation_delta).
      spec.delta_rule = DeltaRule::ExactComplement;
      spec.requests = requests;
      spec.seed = args.seed;  // same chain + walk for every policy
      spec.use_plan_cache = !args.no_plan_cache;
      specs.push_back(spec);
    }
  }
  struct PointResult {
    double mean_T;
    PlanMemoStats plan_cache;
  };
  const std::size_t n_points = specs.size();
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<PointResult> points =
      sweep_configs(pool, specs, [&](const SimSpec& spec) {
        const SimResult res = run_sim(spec);
        return PointResult{res.metrics.mean_access_time(), res.plan_cache};
      });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::vector<double> mean_T;
  mean_T.reserve(points.size());
  PlanMemoStats plan_cache_total;
  for (const auto& p : points) {
    mean_T.push_back(p.mean_T);
    plan_cache_total.merge(p.plan_cache);
  }

  std::vector<PlotSeries> series;
  for (std::size_t p = 0; p < std::size(kPolicies); ++p) {
    PlotSeries s;
    s.name = kPolicies[p].name;
    s.glyph = kPolicies[p].glyph;
    for (std::size_t c = 0; c < sizes.size(); ++c) {
      s.points.emplace_back(static_cast<double>(sizes[c]),
                            mean_T[p * sizes.size() + c]);
    }
    std::cout << "  finished " << kPolicies[p].name << " (last point: T = "
              << s.points.back().second << ")\n";
    series.push_back(std::move(s));
  }
  const double total_requests =
      static_cast<double>(requests) * static_cast<double>(n_points);
  std::cout << "  sweep: " << n_points << " sim points, "
            << static_cast<std::uint64_t>(total_requests) << " requests in "
            << elapsed << " s  ("
            << static_cast<std::uint64_t>(total_requests / elapsed)
            << " requests/s)\n";
  if (plan_cache_total.plans.lookups() > 0) {
    std::cout << "  plan cache: plans "
              << plan_cache_total.plans.hit_rate() * 100.0 << "% of "
              << plan_cache_total.plans.lookups() << " lookups hit"
              << ", selections "
              << plan_cache_total.selections.hit_rate() * 100.0 << "% of "
              << plan_cache_total.selections.lookups() << "\n";
  } else if (args.no_plan_cache) {
    std::cout << "  plan cache: disabled (--no-plan-cache)\n";
  }
  std::cout << "\n";

  PlotOptions opts;
  opts.title = "Fig 7  access time per request vs cache size";
  opts.x_label = "cache size";
  opts.y_label = "T/req";
  opts.x_min = 0;
  opts.x_max = 100;
  opts.y_min = 0;
  opts.y_max = 14;
  opts.width = 76;
  opts.height = 24;
  std::cout << render_plot(series, opts) << "\n";

  // Tabulated rows for a few representative cache sizes.
  std::cout << "  cache";
  for (const auto& pol : kPolicies) std::cout << "\t" << pol.name;
  std::cout << "\n";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] != 1 && sizes[i] % 20 != 0) continue;
    std::cout << "  " << sizes[i];
    for (const auto& s : series) std::cout << "\t" << s.points[i].second;
    std::cout << "\n";
  }

  if (args.csv_dir) {
    auto f = open_csv(*args.csv_dir + "/fig7_prefetch_cache.csv");
    CsvWriter w(f);
    w.row({"cache_size", "No+Pr", "KP+Pr", "SKP+Pr", "SKP+Pr+LFU",
           "SKP+Pr+DS"});
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      w.row_of(sizes[i], series[0].points[i].second,
               series[1].points[i].second, series[2].points[i].second,
               series[3].points[i].second, series[4].points[i].second);
    }
  }
  return 0;
}
