// Vectorized row-scan kernels for the memory-layout engines (E19).
//
// Two primitive scans cover the hot loops that walk whole preference/rank
// rows instead of doing O(1) rank lookups:
//
//   * first_of_pair(row, len, a, b) — position of the first entry equal to a
//     or b. This IS the responder's accept/reject test of the scan engine
//     ("which of the two suitors appears first on my list"), vectorized:
//     8 int32 lanes per AVX2 step, 4 per SSE2 step, movemask + ctz to
//     recover the earliest lane.
//   * argmin_u16 / argmin_u32(row, len) — index of the FIRST minimum of a
//     rank row (vectorized min-scan; two passes: lane-wise min reduction,
//     then first-position-of-min). E19 uses it as the streaming-bandwidth
//     probe that contextualizes bytes/proposal, and the layout tests pin it
//     against the scalar reference.
//
// Every kernel has a scalar reference implementation, and the vector paths
// return bit-identical results (first occurrence, exact index) — dispatch
// can never change a matching. Runtime dispatch: best_isa() probes CPU
// support once (overridable with KSTABLE_SIMD=scalar|sse2|avx2 for tests
// and A/B runs); the dispatching wrappers route to the best supported
// kernel. Non-x86 builds compile the scalar path only — same results,
// no intrinsics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define KSTABLE_SIMD_X86 1
#include <immintrin.h>
#else
#define KSTABLE_SIMD_X86 0
#endif

#include "prefs/ids.hpp"

namespace kstable::gs::simd {

enum class Isa : std::uint8_t { scalar, sse2, avx2 };

[[nodiscard]] constexpr const char* to_string(Isa isa) noexcept {
  switch (isa) {
    case Isa::scalar: return "scalar";
    case Isa::sse2: return "sse2";
    case Isa::avx2: return "avx2";
  }
  return "unknown";
}

// ---------------------------------------------------------------- scalar --

/// Position of the first entry of `row[0..len)` equal to `a` or `b`, or
/// `len` if neither occurs.
inline std::size_t first_of_pair_scalar(const Index* row, std::size_t len,
                                        Index a, Index b) noexcept {
  for (std::size_t i = 0; i < len; ++i) {
    if (row[i] == a || row[i] == b) return i;
  }
  return len;
}

template <typename R>
inline std::size_t argmin_scalar(const R* row, std::size_t len) noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < len; ++i) {
    if (row[i] < row[best]) best = i;
  }
  return best;
}

#if KSTABLE_SIMD_X86

// ------------------------------------------------------------------ sse2 --

__attribute__((target("sse2"))) inline std::size_t first_of_pair_sse2(
    const Index* row, std::size_t len, Index a, Index b) noexcept {
  const __m128i va = _mm_set1_epi32(a);
  const __m128i vb = _mm_set1_epi32(b);
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i));
    const __m128i hit =
        _mm_or_si128(_mm_cmpeq_epi32(v, va), _mm_cmpeq_epi32(v, vb));
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(hit));
    if (mask != 0) {
      return i + static_cast<std::size_t>(__builtin_ctz(
                     static_cast<unsigned>(mask)));
    }
  }
  for (; i < len; ++i) {
    if (row[i] == a || row[i] == b) return i;
  }
  return len;
}

// ------------------------------------------------------------------ avx2 --

__attribute__((target("avx2"))) inline std::size_t first_of_pair_avx2(
    const Index* row, std::size_t len, Index a, Index b) noexcept {
  const __m256i va = _mm256_set1_epi32(a);
  const __m256i vb = _mm256_set1_epi32(b);
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    const __m256i hit = _mm256_or_si256(_mm256_cmpeq_epi32(v, va),
                                        _mm256_cmpeq_epi32(v, vb));
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(hit));
    if (mask != 0) {
      return i + static_cast<std::size_t>(__builtin_ctz(
                     static_cast<unsigned>(mask)));
    }
  }
  for (; i < len; ++i) {
    if (row[i] == a || row[i] == b) return i;
  }
  return len;
}

/// Vectorized min-scan, pass 1: unsigned 16-bit lane minimum of the row;
/// pass 2: first index holding that minimum.
__attribute__((target("avx2"))) inline std::size_t argmin_u16_avx2(
    const std::uint16_t* row, std::size_t len) noexcept {
  if (len < 16) return argmin_scalar(row, len);
  __m256i vmin = _mm256_set1_epi16(static_cast<short>(0xFFFF));
  std::size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    vmin = _mm256_min_epu16(vmin, v);
  }
  alignas(32) std::uint16_t lanes[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmin);
  std::uint16_t m = lanes[0];
  for (int l = 1; l < 16; ++l) m = lanes[l] < m ? lanes[l] : m;
  for (; i < len; ++i) m = row[i] < m ? row[i] : m;
  // Pass 2: earliest position equal to m.
  const __m256i vm = _mm256_set1_epi16(static_cast<short>(m));
  for (std::size_t j = 0; j + 16 <= len; j += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
    const int mask = _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, vm));
    if (mask != 0) {
      return j + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask))) /
                     2;
    }
  }
  for (std::size_t j = len - len % 16; j < len; ++j) {
    if (row[j] == m) return j;
  }
  return argmin_scalar(row, len);  // unreachable; keeps the compiler honest
}

__attribute__((target("avx2"))) inline std::size_t argmin_u32_avx2(
    const std::uint32_t* row, std::size_t len) noexcept {
  if (len < 8) return argmin_scalar(row, len);
  __m256i vmin = _mm256_set1_epi32(-1);  // all-ones = UINT32_MAX
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    vmin = _mm256_min_epu32(vmin, v);
  }
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmin);
  std::uint32_t m = lanes[0];
  for (int l = 1; l < 8; ++l) m = lanes[l] < m ? lanes[l] : m;
  for (; i < len; ++i) m = row[i] < m ? row[i] : m;
  const __m256i vm = _mm256_set1_epi32(static_cast<int>(m));
  for (std::size_t j = 0; j + 8 <= len; j += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + j));
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(
        _mm256_cmpeq_epi32(v, vm)));
    if (mask != 0) {
      return j + static_cast<std::size_t>(
                     __builtin_ctz(static_cast<unsigned>(mask)));
    }
  }
  for (std::size_t j = len - len % 8; j < len; ++j) {
    if (row[j] == m) return j;
  }
  return argmin_scalar(row, len);  // unreachable
}

#endif  // KSTABLE_SIMD_X86

// -------------------------------------------------------------- dispatch --

/// True iff `isa` can run on this machine (scalar always can).
inline bool isa_supported(Isa isa) noexcept {
  switch (isa) {
    case Isa::scalar: return true;
#if KSTABLE_SIMD_X86
    case Isa::sse2: return __builtin_cpu_supports("sse2") != 0;
    case Isa::avx2: return __builtin_cpu_supports("avx2") != 0;
#else
    case Isa::sse2:
    case Isa::avx2: return false;
#endif
  }
  return false;
}

/// Best supported ISA, probed once. KSTABLE_SIMD=scalar|sse2|avx2 pins the
/// choice (ignored if the hardware lacks it) so tests and A/B benchmarks can
/// exercise every path.
inline Isa best_isa() noexcept {
  static const Isa chosen = [] {
    Isa best = Isa::scalar;
    if (isa_supported(Isa::sse2)) best = Isa::sse2;
    if (isa_supported(Isa::avx2)) best = Isa::avx2;
    if (const char* env = std::getenv("KSTABLE_SIMD")) {
      const std::string_view want(env);
      for (const Isa isa : {Isa::scalar, Isa::sse2, Isa::avx2}) {
        if (want == to_string(isa) && isa_supported(isa)) return isa;
      }
    }
    return best;
  }();
  return chosen;
}

inline std::size_t first_of_pair(const Index* row, std::size_t len, Index a,
                                 Index b) noexcept {
#if KSTABLE_SIMD_X86
  switch (best_isa()) {
    case Isa::avx2: return first_of_pair_avx2(row, len, a, b);
    case Isa::sse2: return first_of_pair_sse2(row, len, a, b);
    case Isa::scalar: break;
  }
#endif
  return first_of_pair_scalar(row, len, a, b);
}

inline std::size_t argmin_u16(const std::uint16_t* row,
                              std::size_t len) noexcept {
#if KSTABLE_SIMD_X86
  if (best_isa() == Isa::avx2) return argmin_u16_avx2(row, len);
#endif
  return argmin_scalar(row, len);
}

inline std::size_t argmin_u32(const std::uint32_t* row,
                              std::size_t len) noexcept {
#if KSTABLE_SIMD_X86
  if (best_isa() == Isa::avx2) return argmin_u32_avx2(row, len);
#endif
  return argmin_scalar(row, len);
}

}  // namespace kstable::gs::simd
