#include "gs/scan_gs.hpp"

#include "gs/propose_loop.hpp"
#include "observability/metrics.hpp"

namespace kstable::gs {

GsResult gale_shapley_scan(const KPartiteInstance& inst, Gender i, Gender j) {
  GsWorkspace workspace;
  GsResult result;
  solve<StackSchedule, ScanAccept>(inst, i, j, {}, workspace, result);
  result.engine = "gs.scan";
  KSTABLE_COUNTER_ADD("gs.scan.solves", 1);
  KSTABLE_COUNTER_ADD("gs.scan.proposals", result.proposals);
  return result;
}

GsResult gale_shapley_scan_simd(const KPartiteInstance& inst, Gender i,
                                Gender j) {
  GsWorkspace workspace;
  GsResult result;
  solve<StackSchedule, SimdScanAccept>(inst, i, j, {}, workspace, result);
  result.engine = "gs.scan_simd";
  KSTABLE_COUNTER_ADD("gs.scan_simd.solves", 1);
  KSTABLE_COUNTER_ADD("gs.scan_simd.proposals", result.proposals);
  return result;
}

}  // namespace kstable::gs
