// E7 (paper Section 6 extension): replace the oracle transition row with a
// learned access model and measure the cost. The paper presupposes the
// probabilities are known; this bench shows how the SKP+Pr pipeline
// degrades under Markov-count, PPM and dependency-graph predictors on the
// Fig. 7 workload, and how it recovers as the predictor trains.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "sim/runtime.hpp"
#include "util/csv.hpp"

namespace {

using namespace skp;

}  // namespace

int main(int argc, char** argv) {
  const auto args = skp::bench::parse_args(argc, argv);
  const std::size_t requests = args.full ? 50'000 : 6'000;
  std::cout << "=== E7: oracle vs learned access models (SKP+Pr, Fig. 7 "
               "workload) ===\n"
            << "    " << requests << " requests per cell; seed "
            << args.seed << "\n\n";

  const PredictorKind kinds[] = {
      PredictorKind::Oracle, PredictorKind::Markov1, PredictorKind::Ppm,
      PredictorKind::Lz78, PredictorKind::DependencyWindow};
  const std::size_t cache_sizes[] = {5, 20, 50};

  std::optional<std::ofstream> csv;
  if (args.csv_dir) {
    csv = open_csv(*args.csv_dir + "/predictor_quality.csv");
    CsvWriter(*csv).row({"predictor", "cache_size", "mean_T", "hit_rate",
                         "net_time_per_req"});
  }

  std::cout << "  predictor  cache  mean T    hit rate  net time/req\n";
  for (const auto kind : kinds) {
    for (const std::size_t cache_size : cache_sizes) {
      SimSpec spec;  // prefetch_cache driver, paper-default Markov source
      spec.cache_size = cache_size;
      spec.policy = PrefetchPolicy::SKP;
      spec.sub = SubArbitration::DS;
      spec.requests = requests;
      spec.warmup = requests / 5;  // let the predictor train
      spec.seed = args.seed;
      spec.predictor = kind;
      const SimResult res = run_sim(spec);
      std::cout << "  " << std::setw(9) << to_string(kind) << "  "
                << std::setw(5) << cache_size << "  " << std::setw(8)
                << res.metrics.mean_access_time() << "  " << std::setw(8)
                << res.metrics.hit_rate() << "  "
                << res.metrics.network_time_per_request() << "\n";
      if (csv) {
        CsvWriter(*csv).row_of(to_string(kind), cache_size,
                               res.metrics.mean_access_time(),
                               res.metrics.hit_rate(),
                               res.metrics.network_time_per_request());
      }
    }
  }
  std::cout << "\n  expected shape: oracle lowest; learned predictors "
               "approach it with training;\n"
            << "  all predictors beat No+Pr at equal cache size (compare "
               "with fig7 bench).\n";
  return 0;
}
