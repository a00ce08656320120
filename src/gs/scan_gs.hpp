// Scan-family Gale-Shapley engines: the rank-table ablation baseline (E9,
// E19). Both run the queue engine's schedule (gs/propose_loop.hpp), so
// matchings, proposal counts, and traces are bitwise-identical to
// gale_shapley_queue; only the responder's accept/reject compare differs:
//
//   * gale_shapley_scan      — the compare walks the responder's preference
//     list instead of consulting the rank table. O(n) per comparison, O(n³)
//     worst case; quantifies what the rank table buys (DESIGN.md §Key
//     design decisions).
//   * gale_shapley_scan_simd — the same walk with the vectorized
//     first-of-pair kernel (gs/simd.hpp): 8 entries per AVX2 step,
//     runtime-dispatched, falling back to SSE2/scalar. Identical scan
//     semantics (earliest hit wins), so identical everything.
#pragma once

#include "gs/gale_shapley.hpp"

namespace kstable::gs {

/// Queue-based GS(i, j) using list scans for every preference comparison.
/// Returns the same matching and proposal count as gale_shapley_queue.
GsResult gale_shapley_scan(const KPartiteInstance& inst, Gender i, Gender j);

/// gale_shapley_scan with the vectorized first-of-pair scan kernel
/// (runtime-dispatched AVX2/SSE2/scalar; KSTABLE_SIMD overrides). Bitwise
/// identical to gale_shapley_scan and gale_shapley_queue.
GsResult gale_shapley_scan_simd(const KPartiteInstance& inst, Gender i,
                                Gender j);

}  // namespace kstable::gs
