// PrefView: the per-backend preference accessors the GS propose kernel
// (gs/propose_loop.hpp) monomorphizes on (docs/PERFORMANCE.md §Implicit
// preferences).
//
// The kernel needs exactly four operations for one oriented gender pair
// (i proposes to j):
//
//   pref_at(p, c)        — proposer p's c-th choice
//   resp_row(r)          — a hoisted handle for responder r's rows
//   rank_in(row, p)      — p's rank with responder r (the accept/reject load)
//   resp_pref_in(row, c) — responder r's c-th choice (scan accept only)
//
// ExplicitView<R> implements them as raw-pointer arithmetic over the arena
// tables (one row-base multiply per proposal, typed rank loads) — the
// explicit backend keeps its zero-overhead path, checked by the E19 baseline
// gate. ImplicitView implements them as O(1) generator evaluations
// (prefs/implicit/feistel.hpp). with_pref_view() performs the one dispatch
// per solve; everything inside is monomorphized.
#pragma once

#include <span>

#include "prefs/kpartite.hpp"

namespace kstable::prefs {

/// Arena-table view, monomorphized on the stored rank type R. Construction
/// hoists the three row bases; every accessor is one typed load.
template <typename R>
class ExplicitView {
 public:
  using Rank = R;
  /// Hoisted responder row: the rank row for the accept/reject compare plus
  /// the pref row for the scan accept's list walks.
  struct RespRow {
    const R* ranks;
    const Index* prefs;
  };
  /// Responder pref rows are contiguous memory (the SIMD scan kernel's
  /// requirement); ImplicitView says false and scan_simd falls back to the
  /// generic walk there.
  static constexpr bool kContiguousRows = true;

  ExplicitView(const KPartiteInstance& inst, Gender i, Gender j) noexcept
      : pref_(inst.pref_row({i, 0}, j).data()),
        resp_pref_(inst.pref_row({j, 0}, i).data()),
        resp_rank_(inst.rank_base<R>() + inst.row_base({j, 0}, i)),
        stride_(static_cast<std::size_t>(inst.genders() - 1) *
                static_cast<std::size_t>(inst.per_gender())) {}

  [[nodiscard]] Index pref_at(Index p, Index c) const noexcept {
    return pref_[static_cast<std::size_t>(p) * stride_ +
                 static_cast<std::size_t>(c)];
  }
  [[nodiscard]] RespRow resp_row(Index r) const noexcept {
    const std::size_t off = static_cast<std::size_t>(r) * stride_;
    return {resp_rank_ + off, resp_pref_ + off};
  }
  [[nodiscard]] static Rank rank_in(const RespRow& row, Index p) noexcept {
    return row.ranks[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] static Index resp_pref_in(const RespRow& row,
                                          Index c) noexcept {
    return row.prefs[static_cast<std::size_t>(c)];
  }
  /// Responder r's whole pref row, for the vectorized first-of-pair kernel.
  [[nodiscard]] std::span<const Index> resp_pref_span(Index r,
                                                      Index n) const noexcept {
    return {resp_pref_ + static_cast<std::size_t>(r) * stride_,
            static_cast<std::size_t>(n)};
  }

 private:
  const Index* pref_;       ///< pref row base of proposer (i, 0) over j
  const Index* resp_pref_;  ///< pref row base of responder (j, 0) over i
  const R* resp_rank_;      ///< rank row base of responder (j, 0) over i
  std::size_t stride_;      ///< (k-1)·n elements between consecutive members
};

/// Generator view: every accessor is an O(1) Feistel evaluation. resp_row
/// derives the responder's round keys once per compare — the implicit
/// analogue of hoisting the rank-row pointer — and rank_in is then a pure
/// PRP inversion. Ranks surface as uint32_t (any rank < n fits).
class ImplicitView {
 public:
  using Rank = std::uint32_t;
  using RespRow = imp::ImplicitPrefs::Row;
  static constexpr bool kContiguousRows = false;

  ImplicitView(const KPartiteInstance& inst, Gender i, Gender j) noexcept
      : gen_(&inst.implicit_prefs()), i_(i), j_(j) {}

  [[nodiscard]] Index pref_at(Index p, Index c) const noexcept {
    return gen_->pref({i_, p}, j_, c);
  }
  [[nodiscard]] RespRow resp_row(Index r) const noexcept {
    return gen_->row({j_, r}, i_);
  }
  [[nodiscard]] Rank rank_in(const RespRow& row, Index p) const noexcept {
    return static_cast<Rank>(gen_->rank_in(row, p));
  }
  [[nodiscard]] Index resp_pref_in(const RespRow& row, Index c) const noexcept {
    return gen_->pref_in(row, c);
  }

 private:
  const imp::ImplicitPrefs* gen_;
  Gender i_;
  Gender j_;
};

/// One backend + width dispatch per solve: calls `fn` with the matching
/// monomorphized view. The callable is instantiated for ExplicitView<u16>,
/// ExplicitView<u32>, and ImplicitView.
template <typename Fn>
decltype(auto) with_pref_view(const KPartiteInstance& inst, Gender i, Gender j,
                              Fn&& fn) {
  if (inst.backend() == PrefBackend::implicit_gen) {
    return fn(ImplicitView(inst, i, j));
  }
  if (inst.rank_width() == RankWidth::narrow16) {
    return fn(ExplicitView<std::uint16_t>(inst, i, j));
  }
  return fn(ExplicitView<std::uint32_t>(inst, i, j));
}

}  // namespace kstable::prefs
