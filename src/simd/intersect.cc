#include "simd/intersect.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define FAST_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && defined(__ARM_NEON)
#define FAST_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace fast::simd {
namespace {

// ---- Shared scalar building blocks. ----

// First index in [begin, n) with v[i] >= key, found by doubling steps from
// `begin` then binary search inside the final bracket. O(log gap) instead of
// O(log n), which is what makes skewed-pair intersection cheap.
std::size_t GallopLower(const std::uint32_t* v, std::size_t begin, std::size_t n,
                        std::uint32_t key) {
  std::size_t lo = begin;
  std::size_t hi = begin;
  std::size_t step = 1;
  while (hi < n && v[hi] < key) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > n) hi = n;
  return static_cast<std::size_t>(
      std::lower_bound(v + lo, v + hi, key) - v);
}

// Finishes an intersection from cursors (i, j) with a plain merge. The
// (has_last, last) pair carries the dedup guard across the vector-loop /
// tail boundary so a duplicate value spanning the handoff is not emitted
// twice. Values are cached in locals before any write to `out`, which keeps
// out-aliases-a calls correct.
std::size_t MergeRest(const std::uint32_t* a, std::size_t na,
                      const std::uint32_t* b, std::size_t nb, std::size_t i,
                      std::size_t j, std::uint32_t* out, std::size_t k,
                      bool positions, bool has_last, std::uint32_t last) {
  while (i < na && j < nb) {
    const std::uint32_t x = a[i];
    const std::uint32_t y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      if (!has_last || last != x) {
        out[k++] = positions ? static_cast<std::uint32_t>(j) : x;
        has_last = true;
        last = x;
      }
      do {
        ++i;
      } while (i < na && a[i] == x);
      do {
        ++j;
      } while (j < nb && b[j] == x);
    }
  }
  return k;
}

// Small-a-over-large-b galloping intersection. Emits values, or first-
// occurrence positions in b.
std::size_t GallopOverA(const std::uint32_t* a, std::size_t na,
                        const std::uint32_t* b, std::size_t nb,
                        std::uint32_t* out, bool positions) {
  std::size_t j = 0;
  std::size_t k = 0;
  std::uint32_t prev = 0;
  bool has_prev = false;
  for (std::size_t i = 0; i < na && j < nb; ++i) {
    const std::uint32_t x = a[i];
    if (has_prev && prev == x) continue;
    prev = x;
    has_prev = true;
    j = GallopLower(b, j, nb, x);
    if (j == nb) break;
    if (b[j] == x) out[k++] = positions ? static_cast<std::uint32_t>(j) : x;
  }
  return k;
}

// Positions-mode mirror for na >> nb: iterate b (the position side), gallop
// in a. The emitted index is the iteration cursor itself.
std::size_t GallopPosOverB(const std::uint32_t* a, std::size_t na,
                           const std::uint32_t* b, std::size_t nb,
                           std::uint32_t* out) {
  std::size_t ia = 0;
  std::size_t k = 0;
  std::uint32_t prev = 0;
  bool has_prev = false;
  for (std::size_t j = 0; j < nb && ia < na; ++j) {
    const std::uint32_t y = b[j];
    if (has_prev && prev == y) continue;
    prev = y;
    has_prev = true;
    ia = GallopLower(a, ia, na, y);
    if (ia == na) break;
    if (a[ia] == y) out[k++] = static_cast<std::uint32_t>(j);
  }
  return k;
}

// Dense-range core: everything after empty/swap/gallop dispatch. One per
// level; `positions` selects value vs b-position output.
using CoreFn = std::size_t (*)(const std::uint32_t*, std::size_t,
                               const std::uint32_t*, std::size_t,
                               std::uint32_t*, bool);

std::size_t ScalarCore(const std::uint32_t* a, std::size_t na,
                       const std::uint32_t* b, std::size_t nb,
                       std::uint32_t* out, bool positions) {
  return MergeRest(a, na, b, nb, 0, 0, out, 0, positions, false, 0);
}

std::size_t IntersectDispatch(CoreFn core, std::size_t gallop_ratio,
                              const std::uint32_t* a, std::size_t na,
                              const std::uint32_t* b, std::size_t nb,
                              std::uint32_t* out, bool positions) {
  if (na == 0 || nb == 0) return 0;
  if (!positions && na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (positions && na > nb && na / nb >= gallop_ratio) {
    return GallopPosOverB(a, na, b, nb, out);
  }
  if (nb > na && nb / na >= gallop_ratio) {
    return GallopOverA(a, na, b, nb, out, positions);
  }
  return core(a, na, b, nb, out, positions);
}

std::size_t ScalarBatchContains(const std::uint32_t* sorted, std::size_t n,
                                const std::uint32_t* keys, std::size_t nk,
                                std::uint8_t* mask) {
  std::size_t j = 0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < nk; ++i) {
    const std::uint32_t x = keys[i];
    j = GallopLower(sorted, j, n, x);
    const std::uint8_t hit = (j < n && sorted[j] == x) ? 1 : 0;
    mask[i] = hit;
    hits += hit;
  }
  return hits;
}

std::uint64_t ScalarBitmapAndPopcount(const std::uint64_t* a,
                                      const std::uint64_t* b,
                                      std::size_t num_words) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < num_words; ++i) {
    count += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return count;
}

std::size_t ScalarFilterByBitmap(const std::uint64_t* bits,
                                 std::size_t num_bits,
                                 const std::uint32_t* keys, std::size_t nk,
                                 std::uint32_t* out) {
  std::size_t k = 0;
  for (std::size_t i = 0; i < nk; ++i) {
    const std::uint32_t v = keys[i];
    if (v < num_bits && ((bits[v >> 6] >> (v & 63)) & 1u) != 0) {
      out[k++] = static_cast<std::uint32_t>(i);
    }
  }
  return k;
}

std::size_t ScalarIntersect(const std::uint32_t* a, std::size_t na,
                            const std::uint32_t* b, std::size_t nb,
                            std::uint32_t* out) {
  return IntersectDispatch(&ScalarCore, 16, a, na, b, nb, out, false);
}

std::size_t ScalarIntersectPos(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::uint32_t* out) {
  return IntersectDispatch(&ScalarCore, 16, a, na, b, nb, out, true);
}

// ---- SWAR: two 32-bit lanes per 64-bit word. ----
//
// Membership of x in a loaded pair uses the any-zero-halfword trick:
// (d - kOnes) & ~d & kHigh is non-zero iff either 32-bit half of d is zero
// (a borrow out of a low half only occurs when that half itself is zero, so
// there are no false positives for the any-hit question asked here).

constexpr std::uint64_t kSwarOnes = 0x0000000100000001ull;
constexpr std::uint64_t kSwarHigh = 0x8000000080000000ull;

inline bool SwarPairHasValue(std::uint64_t pair, std::uint32_t x) {
  const std::uint64_t d = pair ^ (kSwarOnes * x);
  return ((d - kSwarOnes) & ~d & kSwarHigh) != 0;
}

// Pairs with both sides shorter than this run the scalar level's merge: the
// pair loads do not pay for themselves there (bench_intersect read SWAR
// 64x64 at 0.86x scalar), while from a few hundred elements on they win
// (1k x 1k about 1.6x).
constexpr std::size_t kSwarMinMerge = 256;

std::size_t SwarCore(const std::uint32_t* a, std::size_t na,
                     const std::uint32_t* b, std::size_t nb, std::uint32_t* out,
                     bool positions) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  std::uint32_t last = 0;
  bool has_last = false;
  while (i < na && j + 2 <= nb) {
    const std::uint32_t x = a[i];
    if (has_last && last == x) {
      ++i;
      continue;
    }
    while (j + 2 <= nb && b[j + 1] < x) j += 2;
    if (j + 2 > nb) break;
    std::uint64_t pair;
    std::memcpy(&pair, b + j, sizeof(pair));
    if (SwarPairHasValue(pair, x)) {
      // Disambiguate the lane with a direct compare (endian-neutral).
      const std::uint32_t pos =
          static_cast<std::uint32_t>(j) + (b[j] == x ? 0u : 1u);
      out[k++] = positions ? pos : x;
      last = x;
      has_last = true;
    }
    ++i;
  }
  return MergeRest(a, na, b, nb, i, j, out, k, positions, has_last, last);
}

std::size_t SwarIntersect(const std::uint32_t* a, std::size_t na,
                          const std::uint32_t* b, std::size_t nb,
                          std::uint32_t* out) {
  if (na < kSwarMinMerge && nb < kSwarMinMerge) {
    return ScalarIntersect(a, na, b, nb, out);
  }
  return IntersectDispatch(&SwarCore, 16, a, na, b, nb, out, false);
}

std::size_t SwarIntersectPos(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out) {
  if (na < kSwarMinMerge && nb < kSwarMinMerge) {
    return ScalarIntersectPos(a, na, b, nb, out);
  }
  return IntersectDispatch(&SwarCore, 16, a, na, b, nb, out, true);
}

std::size_t SwarBatchContains(const std::uint32_t* sorted, std::size_t n,
                              const std::uint32_t* keys, std::size_t nk,
                              std::uint8_t* mask) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t hits = 0;
  for (; i < nk && j + 2 <= n; ++i) {
    const std::uint32_t x = keys[i];
    while (j + 2 <= n && sorted[j + 1] < x) j += 2;
    if (j + 2 > n) break;
    std::uint64_t pair;
    std::memcpy(&pair, sorted + j, sizeof(pair));
    const std::uint8_t hit = SwarPairHasValue(pair, x) ? 1 : 0;
    mask[i] = hit;
    hits += hit;
  }
  for (; i < nk; ++i) {
    const std::uint32_t x = keys[i];
    while (j < n && sorted[j] < x) ++j;
    const std::uint8_t hit = (j < n && sorted[j] == x) ? 1 : 0;
    mask[i] = hit;
    hits += hit;
  }
  return hits;
}

std::uint64_t SwarBitmapAndPopcount(const std::uint64_t* a,
                                    const std::uint64_t* b,
                                    std::size_t num_words) {
  std::uint64_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= num_words; i += 4) {
    c0 += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
    c1 += static_cast<std::uint64_t>(__builtin_popcountll(a[i + 1] & b[i + 1]));
    c2 += static_cast<std::uint64_t>(__builtin_popcountll(a[i + 2] & b[i + 2]));
    c3 += static_cast<std::uint64_t>(__builtin_popcountll(a[i + 3] & b[i + 3]));
  }
  for (; i < num_words; ++i) {
    c0 += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return c0 + c1 + c2 + c3;
}

// ---- AVX2: 8 lanes, runtime-dispatched via the target attribute so the
// translation unit builds without -mavx2 and the vtable is only selected
// when CPUID reports support. ----

#if FAST_SIMD_X86

__attribute__((target("avx2"))) std::size_t Avx2Core(
    const std::uint32_t* a, std::size_t na, const std::uint32_t* b,
    std::size_t nb, std::uint32_t* out, bool positions) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  std::uint32_t last = 0;
  bool has_last = false;
  while (i < na && j + 8 <= nb) {
    const std::uint32_t x = a[i];
    if (has_last && last == x) {
      ++i;
      continue;
    }
    while (j + 8 <= nb && b[j + 7] < x) j += 8;
    if (j + 8 > nb) break;
    const __m256i vx = _mm256_set1_epi32(static_cast<int>(x));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const int m =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(vx, vb)));
    if (m != 0) {
      out[k++] = positions
                     ? static_cast<std::uint32_t>(j) +
                           static_cast<std::uint32_t>(
                               __builtin_ctz(static_cast<unsigned>(m)))
                     : x;
      last = x;
      has_last = true;
    }
    ++i;
  }
  return MergeRest(a, na, b, nb, i, j, out, k, positions, has_last, last);
}

std::size_t Avx2Intersect(const std::uint32_t* a, std::size_t na,
                          const std::uint32_t* b, std::size_t nb,
                          std::uint32_t* out) {
  return IntersectDispatch(&Avx2Core, 128, a, na, b, nb, out, false);
}

std::size_t Avx2IntersectPos(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out) {
  return IntersectDispatch(&Avx2Core, 128, a, na, b, nb, out, true);
}

__attribute__((target("avx2"))) std::size_t Avx2BatchContains(
    const std::uint32_t* sorted, std::size_t n, const std::uint32_t* keys,
    std::size_t nk, std::uint8_t* mask) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t hits = 0;
  for (; i < nk && j + 8 <= n; ++i) {
    const std::uint32_t x = keys[i];
    while (j + 8 <= n && sorted[j + 7] < x) j += 8;
    if (j + 8 > n) break;
    const __m256i vx = _mm256_set1_epi32(static_cast<int>(x));
    const __m256i vs =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sorted + j));
    const int m =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(vx, vs)));
    const std::uint8_t hit = m != 0 ? 1 : 0;
    mask[i] = hit;
    hits += hit;
  }
  for (; i < nk; ++i) {
    const std::uint32_t x = keys[i];
    j = GallopLower(sorted, j, n, x);
    const std::uint8_t hit = (j < n && sorted[j] == x) ? 1 : 0;
    mask[i] = hit;
    hits += hit;
  }
  return hits;
}

__attribute__((target("avx2"))) std::uint64_t Avx2BitmapAndPopcount(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t num_words) {
  std::uint64_t count = 0;
  std::size_t i = 0;
  for (; i + 4 <= num_words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i both = _mm256_and_si256(va, vb);
    count += static_cast<std::uint64_t>(
        __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(both, 0))) +
        __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(both, 1))) +
        __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(both, 2))) +
        __builtin_popcountll(
            static_cast<std::uint64_t>(_mm256_extract_epi64(both, 3))));
  }
  for (; i < num_words; ++i) {
    count += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return count;
}

#endif  // FAST_SIMD_X86

// ---- NEON: 4 lanes (aarch64 baseline, no runtime detection needed). ----

#if FAST_SIMD_NEON

inline std::uint64_t NeonMoveMask(uint32x4_t eq) {
  // Narrow each 32-bit lane to 16 bits: the result is one 64-bit word with
  // 0xFFFF per matching lane; ctz/16 recovers the lane index.
  return vget_lane_u64(vreinterpret_u64_u16(vmovn_u32(eq)), 0);
}

std::size_t NeonCore(const std::uint32_t* a, std::size_t na,
                     const std::uint32_t* b, std::size_t nb, std::uint32_t* out,
                     bool positions) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  std::uint32_t last = 0;
  bool has_last = false;
  while (i < na && j + 4 <= nb) {
    const std::uint32_t x = a[i];
    if (has_last && last == x) {
      ++i;
      continue;
    }
    while (j + 4 <= nb && b[j + 3] < x) j += 4;
    if (j + 4 > nb) break;
    const std::uint64_t m =
        NeonMoveMask(vceqq_u32(vld1q_u32(b + j), vdupq_n_u32(x)));
    if (m != 0) {
      out[k++] = positions
                     ? static_cast<std::uint32_t>(j) +
                           static_cast<std::uint32_t>(__builtin_ctzll(m) >> 4)
                     : x;
      last = x;
      has_last = true;
    }
    ++i;
  }
  return MergeRest(a, na, b, nb, i, j, out, k, positions, has_last, last);
}

std::size_t NeonIntersect(const std::uint32_t* a, std::size_t na,
                          const std::uint32_t* b, std::size_t nb,
                          std::uint32_t* out) {
  return IntersectDispatch(&NeonCore, 64, a, na, b, nb, out, false);
}

std::size_t NeonIntersectPos(const std::uint32_t* a, std::size_t na,
                             const std::uint32_t* b, std::size_t nb,
                             std::uint32_t* out) {
  return IntersectDispatch(&NeonCore, 64, a, na, b, nb, out, true);
}

std::size_t NeonBatchContains(const std::uint32_t* sorted, std::size_t n,
                              const std::uint32_t* keys, std::size_t nk,
                              std::uint8_t* mask) {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t hits = 0;
  for (; i < nk && j + 4 <= n; ++i) {
    const std::uint32_t x = keys[i];
    while (j + 4 <= n && sorted[j + 3] < x) j += 4;
    if (j + 4 > n) break;
    const std::uint64_t m =
        NeonMoveMask(vceqq_u32(vld1q_u32(sorted + j), vdupq_n_u32(x)));
    const std::uint8_t hit = m != 0 ? 1 : 0;
    mask[i] = hit;
    hits += hit;
  }
  for (; i < nk; ++i) {
    const std::uint32_t x = keys[i];
    j = GallopLower(sorted, j, n, x);
    const std::uint8_t hit = (j < n && sorted[j] == x) ? 1 : 0;
    mask[i] = hit;
    hits += hit;
  }
  return hits;
}

#endif  // FAST_SIMD_NEON

// ---- Vtables + dispatch. ----

const Kernels kScalarKernels = {
    Level::kScalar,         "scalar",
    &ScalarIntersect,       &ScalarIntersectPos,
    &ScalarBatchContains,   &ScalarBitmapAndPopcount,
    &ScalarFilterByBitmap,
};

const Kernels kSwarKernels = {
    Level::kSwar,           "swar",
    &SwarIntersect,         &SwarIntersectPos,
    &SwarBatchContains,     &SwarBitmapAndPopcount,
    &ScalarFilterByBitmap,
};

#if FAST_SIMD_X86
const Kernels kAvx2Kernels = {
    Level::kAvx2,           "avx2",
    &Avx2Intersect,         &Avx2IntersectPos,
    &Avx2BatchContains,     &Avx2BitmapAndPopcount,
    &ScalarFilterByBitmap,
};
#endif

#if FAST_SIMD_NEON
const Kernels kNeonKernels = {
    Level::kNeon,           "neon",
    &NeonIntersect,         &NeonIntersectPos,
    &NeonBatchContains,     &SwarBitmapAndPopcount,
    &ScalarFilterByBitmap,
};
#endif

std::atomic<const Kernels*> g_active{nullptr};

const Kernels& ResolveDefault() {
  if (const char* env = std::getenv("FAST_SIMD");
      env != nullptr && env[0] != '\0' && std::string_view(env) != "auto") {
    const auto level = ParseLevelName(env);
    if (level.has_value() && LevelAvailable(*level)) {
      return KernelsFor(*level);
    }
    FAST_LOG(WARNING) << "FAST_SIMD=" << env
                      << " is unknown or unavailable (have: "
                      << AvailableLevelsString() << "); using "
                      << LevelName(DetectBestLevel());
  }
  return KernelsFor(DetectBestLevel());
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSwar:
      return "swar";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<Level> ParseLevelName(std::string_view name) {
  for (int i = 0; i < kNumLevels; ++i) {
    const auto level = static_cast<Level>(i);
    if (name == LevelName(level)) return level;
  }
  return std::nullopt;
}

bool LevelAvailable(Level level) {
  switch (level) {
    case Level::kScalar:
    case Level::kSwar:
      return true;
    case Level::kAvx2:
#if FAST_SIMD_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Level::kNeon:
#if FAST_SIMD_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

Level DetectBestLevel() {
  if (LevelAvailable(Level::kAvx2)) return Level::kAvx2;
  if (LevelAvailable(Level::kNeon)) return Level::kNeon;
  return Level::kSwar;
}

std::string AvailableLevelsString() {
  std::string out;
  for (int i = 0; i < kNumLevels; ++i) {
    const auto level = static_cast<Level>(i);
    if (!LevelAvailable(level)) continue;
    if (!out.empty()) out += ",";
    out += LevelName(level);
  }
  return out;
}

const Kernels& KernelsFor(Level level) {
  switch (level) {
    case Level::kScalar:
      return kScalarKernels;
    case Level::kSwar:
      return kSwarKernels;
    case Level::kAvx2:
#if FAST_SIMD_X86
      if (LevelAvailable(Level::kAvx2)) return kAvx2Kernels;
#endif
      break;
    case Level::kNeon:
#if FAST_SIMD_NEON
      return kNeonKernels;
#else
      break;
#endif
  }
  return kScalarKernels;
}

const Kernels& Active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    const Kernels* resolved = &ResolveDefault();
    const Kernels* expected = nullptr;
    g_active.compare_exchange_strong(expected, resolved,
                                     std::memory_order_acq_rel);
    k = g_active.load(std::memory_order_acquire);
  }
  return *k;
}

Level ActiveLevel() { return Active().level; }

bool SetActive(Level level) {
  if (!LevelAvailable(level)) return false;
  g_active.store(&KernelsFor(level), std::memory_order_release);
  return true;
}

bool SetActiveByName(std::string_view name) {
  if (name == "auto") {
    // "auto" (the CLI default) must not trample a FAST_SIMD override: a
    // default flag value means "whatever the environment resolves to".
    g_active.store(&ResolveDefault(), std::memory_order_release);
    return true;
  }
  const auto level = ParseLevelName(name);
  if (!level.has_value()) return false;
  return SetActive(*level);
}

}  // namespace fast::simd
