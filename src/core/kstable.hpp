// Umbrella header: the full public API of the kstable library.
//
// Quick tour (see README.md for a walkthrough):
//   KPartiteInstance            — balanced complete k-partite preferences
//   gen::*                      — instance generators (uniform/adversarial/...)
//   gs::gale_shapley_*          — binary Gale-Shapley engines
//   rm::solve / solve_fair_smp  — Irving stable roommates + fair SMP
//   rm::solve_kpartite_binary   — stable binary matching in k-partite graphs
//   core::iterative_binding     — Algorithm 1 (stable k-ary matching)
//   core::priority_binding      — Algorithm 2 (weakened stability, §IV.D)
//   core::execute_binding       — parallel binding (EREW/CREW schedules)
//   core::GsEdgeCache           — per-instance memo of per-edge GS results
//   core::BatchSolver           — many instances across the thread pool
//   core::sweep_all_trees       — work-stealing parallel sweep over all
//                                 k^(k-2) binding trees (TreeSweep engine)
//   incremental::*              — preference-churn mutations, warm-restart
//                                 GS, and rematch() incremental
//                                 re-stabilization (docs/INCREMENTAL.md)
//   analysis::*                 — stability checkers, oracles, metrics
//   resilience::*               — deadlines/cancellation (ExecControl), fault
//                                 injection, and the tree-fallback solve ladder
//   obs::*                      — observability: MetricsRegistry counters,
//                                 per-solve SolveTelemetry, JSON/Prometheus
//                                 exporters (docs/OBSERVABILITY.md)
//   verify::*                   — cross-engine differential harness: seeded
//                                 instance generation, the agreement battery,
//                                 independent certificate checkers, and the
//                                 delta-debugging shrinker (docs/VERIFY.md)
#pragma once

#include "analysis/assignment.hpp"
#include "analysis/dot.hpp"
#include "analysis/metrics.hpp"
#include "analysis/oracle.hpp"
#include "analysis/quorum.hpp"
#include "analysis/stability.hpp"
#include "core/batch_solver.hpp"
#include "core/binding.hpp"
#include "core/cyclic3dsm.hpp"
#include "core/equivalence.hpp"
#include "core/existence.hpp"
#include "core/gs_cache.hpp"
#include "core/oriented_binding.hpp"
#include "core/parallel_binding.hpp"
#include "core/priority_binding.hpp"
#include "core/supergender.hpp"
#include "core/tree_selection.hpp"
#include "core/tree_sweep.hpp"
#include "graph/binding_structure.hpp"
#include "graph/prufer.hpp"
#include "graph/scheduling.hpp"
#include "gs/gale_shapley.hpp"
#include "gs/hospitals.hpp"
#include "gs/scan_gs.hpp"
#include "incremental/mutation.hpp"
#include "incremental/rematch.hpp"
#include "incremental/warm_gs.hpp"
#include "observability/metrics.hpp"
#include "observability/telemetry.hpp"
#include "parallel/pram.hpp"
#include "parallel/thread_pool.hpp"
#include "prefs/catalog.hpp"
#include "prefs/examples.hpp"
#include "prefs/generators.hpp"
#include "prefs/io.hpp"
#include "prefs/kpartite.hpp"
#include "prefs/matching.hpp"
#include "prefs/matching_io.hpp"
#include "resilience/control.hpp"
#include "resilience/errors.hpp"
#include "resilience/fault_injection.hpp"
#include "resilience/solve_ladder.hpp"
#include "roommates/adapters.hpp"
#include "roommates/examples.hpp"
#include "roommates/io.hpp"
#include "roommates/lattice.hpp"
#include "roommates/solver.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "verify/cert_checker.hpp"
#include "verify/diff_runner.hpp"
#include "verify/instance_gen.hpp"
#include "verify/shrinker.hpp"
#include "verify/verify.hpp"
