// GsEdgeCache: a per-instance memo of binary binding outcomes.
//
// Every spanning binding tree over k genders draws its edges from the same
// k(k-1)/2 gender-pair set (2·C(k,2) = k(k-1) oriented edges), and a per-edge
// GsResult is a pure function of (instance, oriented edge, engine): the
// engines are deterministic and GS is confluent, so every engine reproduces
// the same matching bit for bit. Multi-tree drivers —
// tree_selection probes, the E15 ablation sweep, the TreeSweep engine,
// solve_with_fallback's retry ladder — therefore recompute identical
// matchings over and over. Memoizing them collapses O(#trees·(k-1)) GS runs
// to at most k(k-1) per instance, and the cache is semantically invisible:
// cached and uncached solves produce bitwise-identical matchings
// (property-tested over all k^(k-2) trees).
//
// Key and invalidation rules (docs/INCREMENTAL.md):
//   * The key is (proposer gender, responder gender, engine). Orientation
//     matters — GS(a, b) is proposer-optimal for a, GS(b, a) for b.
//   * A cache is bound to ONE KPartiteInstance. It holds no reference to the
//     instance; the caller guarantees the pairing (new instance => new
//     cache). The instance-bound constructor additionally records the
//     instance's generation() so that check_instance() — called by
//     run_binding before every cached lookup — throws std::logic_error
//     instead of serving a result memoized against preference rows that have
//     since mutated. The legacy Gender constructor keeps the guard off for
//     callers that manage the pairing themselves.
//   * KPartiteInstance is NO LONGER immutable: src/incremental/ mutates
//     preference rows in place. After a mutation the owner must, under
//     external quiescence, either clear() everything or invalidate() exactly
//     the oriented edges the delta touched (both orientations of every
//     changed (observer gender, target gender) pair) and then rebind() to
//     the instance's new generation. invalidate() resets only that edge's
//     kEngineCount slots, so untouched edges keep replaying for free — the
//     targeted-invalidation half of incremental::rematch().
//
// Concurrency design (the TreeSweep fan-out hammers one cache from every
// pool worker at once):
//   * Each key owns a fixed Slot with an atomic state machine
//     empty -> computing -> ready. Ready is terminal: entries are never
//     overwritten, so a ready slot is readable lock-free (acquire load) and
//     entry addresses are stable for the cache's lifetime.
//   * Mutation is guarded by 64 stripe locks (slot index mod 64), not one
//     global mutex — concurrent misses on *different* keys never contend.
//   * Misses resolve **single-flight**: the first thread to claim an empty
//     slot computes; later threads missing the same key block on the
//     stripe's condition variable until the leader publishes, then read the
//     leader's result. N concurrent misses cost one GS run, not N (the
//     deduplicated waits are counted in Stats::single_flight_waits). If the
//     leader's compute throws (deadline, cancellation, injected fault), the
//     slot resets to empty and one waiter is promoted to leader.
//
// Counting contract (what the gs_cache tests pin down): every lookup counts
// exactly one hit or one miss; a miss is counted by the thread whose compute
// got published (so in quiescent use misses == size()), and a single-flight
// waiter counts a hit plus one wait. clear() requires external quiescence —
// it is a between-phases reset, not a concurrent eviction.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "core/binding.hpp"
#include "gs/gale_shapley.hpp"
#include "resilience/control.hpp"

namespace kstable::core {

class GsEdgeCache {
 public:
  /// Number of distinct GsEngine values the slot table is sized for. Tied to
  /// the enum's sentinel: adding a GsEngine without growing this constant is
  /// a compile error, not a silent slot-aliasing bug.
  static constexpr std::size_t kEngineCount = kGsEngineCount;
  static_assert(kEngineCount == kGsEngineCount,
                "GsEdgeCache slot table must cover every GsEngine value; "
                "update kGsEngineCount (core/binding.hpp) and kEngineCount "
                "together when adding an engine");
  static_assert(static_cast<std::size_t>(GsEngine::rounds) ==
                    kGsEngineCount - 1,
                "kGsEngineCount is out of sync with the last GsEngine "
                "enumerator");

  /// Creates an empty cache for instances with `k` genders. The staleness
  /// guard is OFF: the caller owns the instance/cache pairing (legacy
  /// construction sites, and tests that drive the slot machinery directly).
  explicit GsEdgeCache(Gender k);

  /// Creates an empty cache bound to `inst`: records genders() AND
  /// generation(), arming check_instance() against mutation-under-cache.
  /// Preferred for any instance the incremental mutation API may touch.
  explicit GsEdgeCache(const KPartiteInstance& inst);

  /// Staleness guard: throws std::logic_error (ContractViolation) when the
  /// cache is generation-bound and `inst` does not match the bound shape and
  /// generation. A cache from the legacy Gender constructor only checks the
  /// gender count. Cheap (two integer compares) — run_binding calls it on
  /// every cached edge lookup.
  void check_instance(const KPartiteInstance& inst) const;

  /// Targeted invalidation: resets the kEngineCount slots of ONE oriented
  /// edge back to empty and returns how many of them held a ready result.
  /// Requires external quiescence exactly like clear(); entry pointers for
  /// the edge dangle afterwards. A preference delta on rows between genders
  /// a and b must invalidate BOTH orientations (a,b) and (b,a) — responder
  /// preferences decide accept/reject, so either orientation's memo is stale
  /// (incremental::rematch does this). Counters are NOT reset: hits/misses
  /// keep accumulating across incremental steps.
  std::size_t invalidate(GenderEdge edge);

  /// Re-arms the staleness guard against `inst`'s current generation after
  /// the owner has invalidated (or cleared) every stale edge. Requires the
  /// same gender count; turns an unbound cache into a bound one.
  void rebind(const KPartiteInstance& inst);

  /// Generation recorded at construction/rebind (nullopt = guard off).
  [[nodiscard]] std::optional<std::uint64_t> bound_generation() const noexcept {
    return bound_generation_;
  }

  /// Cached result of GS(edge.a proposes, edge.b responds) under `engine`,
  /// or nullptr. Counts one hit or one miss. A slot another thread is still
  /// computing reads as absent — callers pairing find() with insert() keep
  /// the legacy duplicate-compute behaviour; use get_or_compute() for
  /// single-flight resolution.
  [[nodiscard]] const gs::GsResult* find(GenderEdge edge, GsEngine engine);

  /// Stores `result` for the key; first insert wins (a concurrent duplicate
  /// is dropped). Returns the stored value.
  const gs::GsResult& insert(GenderEdge edge, GsEngine engine,
                             gs::GsResult result);

  /// The single-flight lookup: returns the cached result, or runs `compute`
  /// exactly once across all concurrent callers of this key and caches it.
  /// `hit` (optional) reports whether this caller got a memoized result
  /// (waiting out another thread's in-flight compute counts as a hit — no GS
  /// work was executed on this thread's behalf). Waiters poll `control`
  /// (optional) while blocked so a deadline or cancellation still aborts a
  /// thread that is only waiting; if the *leader's* compute throws, the slot
  /// resets and one waiter takes over the compute. The returned reference is
  /// stable for the cache's lifetime.
  const gs::GsResult& get_or_compute(
      GenderEdge edge, GsEngine engine,
      const std::function<gs::GsResult()>& compute,
      resilience::ExecControl* control = nullptr, bool* hit = nullptr);

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    /// Lookups that found another thread's compute in flight and waited for
    /// it instead of duplicating the GS run (each is also counted as a hit).
    std::int64_t single_flight_waits = 0;
  };
  [[nodiscard]] Stats stats() const noexcept {
    return {hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed),
            single_flight_waits_.load(std::memory_order_relaxed)};
  }

  /// Drops every entry and zeroes the counters (the cache stays bound to the
  /// same instance shape and generation — pair with rebind() after a
  /// mutation). Returns how many ready entries were dropped, the number
  /// invalidate() is measured against (the churn battery asserts targeted
  /// invalidation resets strictly fewer slots on single-edge deltas, k >= 3).
  /// Requires external quiescence: no other thread may be touching the cache
  /// — clear() is a between-phases reset, and entry pointers handed out
  /// before it dangle after it (true of the original global-mutex design
  /// too).
  std::size_t clear();

  [[nodiscard]] Gender genders() const noexcept { return k_; }

  /// Entries currently stored (distinct (edge, engine) keys).
  [[nodiscard]] std::size_t size() const;

 private:
  /// Slot lifecycle: kEmpty -> kComputing (single-flight leader claimed it)
  /// -> kReady (value published, terminal). The value is written before the
  /// release store of kReady and never again, which is what makes the
  /// lock-free acquire read of ready slots sound.
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kComputing = 1;
  static constexpr std::uint8_t kReady = 2;

  struct Slot {
    std::atomic<std::uint8_t> state{kEmpty};
    std::optional<gs::GsResult> value;
  };

  /// Stripe count: comfortably above any realistic worker count, small
  /// enough that the mutex/cv table stays a few KB. Must be a power of two
  /// (stripe index is slot & (kStripes - 1)).
  static constexpr std::size_t kStripes = 64;
  static_assert((kStripes & (kStripes - 1)) == 0, "kStripes: power of two");

  struct Stripe {
    std::mutex m;
    std::condition_variable cv;
  };

  [[nodiscard]] std::size_t slot(GenderEdge edge, GsEngine engine) const;
  [[nodiscard]] Stripe& stripe_for(std::size_t slot_index) const noexcept {
    return stripes_[slot_index & (kStripes - 1)];
  }

  Gender k_;
  /// Instance generation the guard is armed against (nullopt = legacy
  /// unbound cache, guard off). Written only at construction/rebind, both of
  /// which require quiescence, so plain storage is race-free.
  std::optional<std::uint64_t> bound_generation_;
  /// Constructed once at full size and never resized: Slot holds an atomic
  /// (immovable) and entry addresses must stay stable.
  std::vector<Slot> slots_;
  mutable std::array<Stripe, kStripes> stripes_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> single_flight_waits_{0};
};

}  // namespace kstable::core
