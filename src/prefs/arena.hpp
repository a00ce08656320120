// PrefArena: one extent-granular, cache-line-aligned slab per instance.
//
// The preference and rank tables of a KPartiteInstance used to live in two
// std::vectors sized cell-by-cell. At the large-n scale the ROADMAP targets
// (10^5-10^6 agents) those tables ARE the working set, so their layout is
// managed explicitly, in the style of tarantool's bps_tree/matras allocator
// (SNIPPETS.md): storage is requested in fixed 16 KiB *extents*, each table
// is carved out of the slab at a 64-byte boundary, and the whole instance
// owns exactly one allocation — no per-row vectors, no interleaved headers,
// nothing between consecutive rows of the hot tables.
//
// Sizing is overflow-checked end to end: every multiply/add that feeds the
// slab size goes through checked_mul/checked_add, and a request that cannot
// be represented throws ParseError (malformed *input* dimensions — the
// caller asked for an instance no machine can hold) instead of wrapping into
// a silently undersized allocation (UB when the tables are then indexed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>

#include "resilience/errors.hpp"

namespace kstable::prefs {

/// Extent (block) size of the arena, in bytes: a power of two and a multiple
/// of the 64-byte carve alignment. 16 KiB matches matras' default extent and
/// keeps slack under 0.1% for every instance above n ≈ 64.
inline constexpr std::size_t kArenaExtentBytes = 16384;

/// Carve alignment inside the slab: one x86/ARM cache line, so each table
/// starts on a line of its own.
inline constexpr std::size_t kArenaAlign = 64;

/// a * b, or throws ParseError if the product does not fit std::size_t.
inline std::size_t checked_mul(std::size_t a, std::size_t b) {
  if (a != 0 && b > SIZE_MAX / a) {
    throw ParseError("instance dimensions too large: size computation "
                     "overflows");
  }
  return a * b;
}

/// a + b, or throws ParseError on std::size_t overflow.
inline std::size_t checked_add(std::size_t a, std::size_t b) {
  if (b > SIZE_MAX - a) {
    throw ParseError("instance dimensions too large: size computation "
                     "overflows");
  }
  return a + b;
}

/// Rounds `bytes` up to the next multiple of `granule` (a power of two),
/// overflow-checked.
inline std::size_t round_up(std::size_t bytes, std::size_t granule) {
  return checked_add(bytes, granule - 1) & ~(granule - 1);
}

/// One aligned slab, allocated once at construction. Copy duplicates the
/// bytes (instances are value types: the catalog and the shrinker copy
/// them); move steals the slab. Never grows: an arena is sized for exactly
/// one instance shape for its whole lifetime.
class PrefArena {
 public:
  PrefArena() = default;

  /// Allocates round_up(bytes, extent) zero-initialized bytes at 64-byte
  /// alignment. Throws ParseError if the rounding overflows and
  /// std::bad_alloc if the machine refuses.
  explicit PrefArena(std::size_t bytes)
      : bytes_(round_up(bytes, kArenaExtentBytes)) {
    if (bytes_ == 0) bytes_ = kArenaExtentBytes;
    slab_.reset(static_cast<std::byte*>(
        ::operator new(bytes_, std::align_val_t{kArenaAlign})));
    std::memset(slab_.get(), 0, bytes_);
  }

  PrefArena(const PrefArena& other) : bytes_(other.bytes_) {
    if (other.slab_ != nullptr) {
      slab_.reset(static_cast<std::byte*>(
          ::operator new(bytes_, std::align_val_t{kArenaAlign})));
      std::memcpy(slab_.get(), other.slab_.get(), bytes_);
    }
  }
  PrefArena& operator=(const PrefArena& other) {
    if (this != &other) *this = PrefArena(other);  // copy, then move in
    return *this;
  }
  PrefArena(PrefArena&&) noexcept = default;
  PrefArena& operator=(PrefArena&&) noexcept = default;

  /// Extent-rounded slab size (0 for a default-constructed arena).
  [[nodiscard]] std::size_t capacity() const noexcept { return bytes_; }

  /// Typed pointer to `offset` bytes into the slab. The offset must be
  /// 64-byte aligned (carves are laid out that way by the owner).
  template <typename T>
  [[nodiscard]] T* at(std::size_t offset) noexcept {
    return reinterpret_cast<T*>(slab_.get() + offset);
  }
  template <typename T>
  [[nodiscard]] const T* at(std::size_t offset) const noexcept {
    return reinterpret_cast<const T*>(slab_.get() + offset);
  }

  [[nodiscard]] const std::byte* raw() const noexcept { return slab_.get(); }

 private:
  struct AlignedDelete {
    void operator()(std::byte* p) const noexcept {
      ::operator delete(p, std::align_val_t{kArenaAlign});
    }
  };
  std::size_t bytes_ = 0;
  std::unique_ptr<std::byte[], AlignedDelete> slab_;
};

}  // namespace kstable::prefs
