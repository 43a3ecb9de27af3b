// The "prefetch only" Monte-Carlo simulation of Section 4.4.
//
// Paper protocol (verbatim steps): "1) generate n, P, r and v randomly,
// 2) prefetch, 3) generate a random request, 4) calculate access time,
// 5) output v and T." The cache is used only for prefetched items and is
// flushed after each request, so every iteration is independent:
//   * P via the workload's skewy or flat method (workload/prob_gen.hpp),
//   * r_i ~ U{r_lo..r_hi}, v ~ U{v_lo..v_hi} (integers by default,
//     paper-style),
//   * prefetch list chosen by the spec's policy and delta rule,
//   * T = realized access time of Figure 2.
// Figures 4 (scatter of T vs v) and 5 (average T vs v) are both produced
// from this loop.
#pragma once

#include <span>
#include <utility>

#include "sim/runtime.hpp"

namespace skp {

// The registry's prefetch_only entry: spec.requests iterations over an
// iid workload of spec.workload.n_items items; the result carries the
// Figure-5 average-T-by-v curve (avg_T_by_v). Fully deterministic in
// spec.seed. The protocol redraws (P, r, v) i.i.d. every iteration, so no
// instance recurs and no plan is memoized.
SimResult run_prefetch_only(const SimSpec& spec);

// As above, and writes the first scatter.size() (v, T) samples — the
// Figure-4 scatter — into `scatter`, which may not outnumber the
// iterations.
SimResult run_prefetch_only(const SimSpec& spec,
                            std::span<std::pair<double, double>> scatter);

}  // namespace skp
