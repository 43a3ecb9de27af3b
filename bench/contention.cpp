// E11 (extension): shared-link contention — the system-level cost of
// speculation in a *distributed* information system. K clients share one
// server link; each extra speculative transfer delays everyone's demand
// fetches (the paper's no-abort assumption now couples the clients).
// Sweeps client count x prefetch profit threshold.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "sim/runtime.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace skp;
  const auto args = skp::bench::parse_args(argc, argv);
  const std::size_t requests = args.full ? 10'000 : 1'500;
  std::cout << "=== E11: shared-link contention (multi-client DES) ===\n"
            << "    " << requests
            << " requests per client; 40-state chains; 10-slot caches; "
               "seed "
            << args.seed << "\n\n";

  std::optional<std::ofstream> csv;
  if (args.csv_dir) {
    csv = open_csv(*args.csv_dir + "/contention.csv");
    CsvWriter(*csv).row({"clients", "threshold", "mean_T",
                         "link_utilization", "net_time_per_req"});
  }

  std::cout << "  clients  threshold  mean T     link util  "
               "net time/req\n";
  for (const std::size_t clients : {1u, 2u, 4u, 8u}) {
    for (const double threshold : {0.0, 2.0, 6.0, 1e9}) {
      SimSpec spec;
      spec.driver = SimDriverKind::MultiClientDes;
      spec.workload.n_items = 40;
      spec.workload.out_degree_lo = 5;
      spec.workload.out_degree_hi = 10;
      spec.cache_size = 10;
      spec.policy = PrefetchPolicy::SKP;
      spec.sub = SubArbitration::DS;
      spec.min_profit_threshold = threshold;
      spec.multi_client.clients = clients;
      // Keep per-client offered load constant: the link serves all
      // clients, so scale its speed with the population.
      spec.multi_client.link_speedup = static_cast<double>(clients);
      spec.requests = requests;
      spec.seed = args.seed;
      const SimResult res = run_sim(spec);
      std::cout << "  " << std::setw(7) << clients << "  " << std::setw(9)
                << threshold << "  " << std::setw(9)
                << res.metrics.mean_access_time() << "  "
                << std::setw(9) << res.link_utilization << "  "
                << res.metrics.network_time_per_request() << "\n";
      if (csv) {
        CsvWriter(*csv).row_of(clients, threshold,
                               res.metrics.mean_access_time(),
                               res.link_utilization,
                               res.metrics.network_time_per_request());
      }
    }
  }
  std::cout << "\n  threshold 1e9 disables speculation (demand only). One "
               "client gains most\n  from eager speculation (threshold 0). "
               "From two clients on a threshold\n  beats it, and from four "
               "clients on eager speculation is slower than demand\n  only: "
               "queueing behind other clients' speculative transfers erases "
               "its\n  win — the Section-6 policy question at system "
               "scale.\n";
  return 0;
}
