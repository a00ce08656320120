// Scan Gale-Shapley engine: the rank-table ablation baseline (E9). It runs
// the queue engine's schedule (gs/propose_loop.hpp), so matchings, proposal
// counts, and traces are bitwise-identical to gale_shapley_queue; only the
// responder's accept/reject compare differs: it walks the responder's
// preference list instead of consulting the rank table. O(n) per comparison,
// O(n³) worst case; quantifies what the rank table buys (DESIGN.md §Key
// design decisions).
#pragma once

#include "gs/gale_shapley.hpp"

namespace kstable::gs {

/// Queue-based GS(i, j) using list scans for every preference comparison.
/// Returns the same matching and proposal count as gale_shapley_queue.
GsResult gale_shapley_scan(const KPartiteInstance& inst, Gender i, Gender j);

}  // namespace kstable::gs
