// SSE2 kernel variants (16-wide u8 lanes, 2-wide f64 lanes). SSE2 is part
// of the x86-64 baseline, so this TU needs no ISA flag; where the compiler
// does not target SSE2 it degenerates to a getter that returns null and
// dispatch stays on the scalar table.
#include "util/simd/simd.h"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <algorithm>
#include <bit>
#include <limits>

namespace dsig {
namespace simd {
namespace {

// 16-lane mask of lo <= v < hi as a movemask-ready byte vector. Unsigned u8
// compares via saturating max/min: (max(x, lo) == x) <=> x >= lo, and
// (min(x, hi-1) == x) <=> x <= hi-1. lo/hi in [0, 256]; hi >= 256 means no
// upper bound and lo <= 0 means no lower bound.
inline __m128i InRangeMask(__m128i x, int lo, int hi) {
  __m128i m = _mm_set1_epi8(static_cast<char>(0xFF));
  if (lo > 0) {
    __m128i lov = _mm_set1_epi8(static_cast<char>(lo));
    m = _mm_cmpeq_epi8(_mm_max_epu8(x, lov), x);
  }
  if (hi < 256) {
    __m128i hiv = _mm_set1_epi8(static_cast<char>(hi - 1));
    m = _mm_and_si128(m, _mm_cmpeq_epi8(_mm_min_epu8(x, hiv), x));
  }
  return m;
}

// Byte lanes live in [0, 255], so any lo/hi can be clamped to [0, 256]
// without changing lo <= v < hi — and InRangeMask's set1_epi8 broadcasts
// would otherwise truncate an out-of-byte-range bound.
inline bool NormalizeRange(int* lo, int* hi) {
  if (*lo < 0) *lo = 0;
  if (*hi > 256) *hi = 256;
  return *lo < *hi;
}

size_t ExtractInRangeSse2(const uint8_t* v, size_t n, int lo, int hi,
                          uint32_t* out) {
  if (!NormalizeRange(&lo, &hi)) return 0;
  size_t count = 0;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    unsigned mask =
        static_cast<unsigned>(_mm_movemask_epi8(InRangeMask(x, lo, hi)));
    while (mask != 0) {
      out[count++] = static_cast<uint32_t>(i) + std::countr_zero(mask);
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if (v[i] >= lo && v[i] < hi) out[count++] = static_cast<uint32_t>(i);
  }
  return count;
}

size_t CountInRangeSse2(const uint8_t* v, size_t n, int lo, int hi) {
  if (!NormalizeRange(&lo, &hi)) return 0;
  // Per-lane byte counters: subtracting the all-ones match mask adds 1.
  // psadbw folds them into two u64 sums every 255 blocks, before a byte can
  // wrap. (A popcount of the movemask is a libgcc call at the SSE2
  // baseline.)
  const __m128i zero = _mm_setzero_si128();
  __m128i sums = zero;
  size_t i = 0;
  while (i + 16 <= n) {
    const size_t blocks = std::min<size_t>((n - i) / 16, 255);
    __m128i counters = zero;
    for (size_t b = 0; b < blocks; ++b, i += 16) {
      __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
      counters = _mm_sub_epi8(counters, InRangeMask(x, lo, hi));
    }
    sums = _mm_add_epi64(sums, _mm_sad_epu8(counters, zero));
  }
  uint64_t halves[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(halves), sums);
  size_t count = static_cast<size_t>(halves[0] + halves[1]);
  for (; i < n; ++i) {
    if (v[i] >= lo && v[i] < hi) ++count;
  }
  return count;
}

uint8_t MaxU8Sse2(const uint8_t* v, size_t n) {
  uint8_t m = 0;
  size_t i = 0;
  if (n >= 16) {
    __m128i acc = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v));
    for (i = 16; i + 16 <= n; i += 16) {
      acc = _mm_max_epu8(
          acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i)));
    }
    // Horizontal max: fold 16 -> 8 -> 4 -> 2 -> 1 lanes.
    acc = _mm_max_epu8(acc, _mm_srli_si128(acc, 8));
    acc = _mm_max_epu8(acc, _mm_srli_si128(acc, 4));
    acc = _mm_max_epu8(acc, _mm_srli_si128(acc, 2));
    acc = _mm_max_epu8(acc, _mm_srli_si128(acc, 1));
    m = static_cast<uint8_t>(_mm_cvtsi128_si32(acc) & 0xFF);
  }
  for (; i < n; ++i) {
    if (v[i] > m) m = v[i];
  }
  return m;
}

uint8_t MinU8Sse2(const uint8_t* v, size_t n) {
  uint8_t m = 0xFF;
  size_t i = 0;
  if (n >= 16) {
    __m128i acc = _mm_loadu_si128(reinterpret_cast<const __m128i*>(v));
    for (i = 16; i + 16 <= n; i += 16) {
      acc = _mm_min_epu8(
          acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i)));
    }
    acc = _mm_min_epu8(acc, _mm_srli_si128(acc, 8));
    acc = _mm_min_epu8(acc, _mm_srli_si128(acc, 4));
    acc = _mm_min_epu8(acc, _mm_srli_si128(acc, 2));
    acc = _mm_min_epu8(acc, _mm_srli_si128(acc, 1));
    m = static_cast<uint8_t>(_mm_cvtsi128_si32(acc) & 0xFF);
  }
  for (; i < n; ++i) {
    if (v[i] < m) m = v[i];
  }
  return m;
}

void AggregateF64Sse2(const double* v, size_t n, double* sum, double* min,
                      double* max) {
  // Four 2-lane accumulators hold blocked lanes (0,1)(2,3)(4,5)(6,7); the
  // spill + fixed combine tree matches the scalar contract exactly.
  __m128d a0 = _mm_setzero_pd();
  __m128d a1 = _mm_setzero_pd();
  __m128d a2 = _mm_setzero_pd();
  __m128d a3 = _mm_setzero_pd();
  __m128d vmn = _mm_set1_pd(std::numeric_limits<double>::infinity());
  __m128d vmx = _mm_set1_pd(-std::numeric_limits<double>::infinity());
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128d x0 = _mm_loadu_pd(v + i);
    __m128d x1 = _mm_loadu_pd(v + i + 2);
    __m128d x2 = _mm_loadu_pd(v + i + 4);
    __m128d x3 = _mm_loadu_pd(v + i + 6);
    a0 = _mm_add_pd(a0, x0);
    a1 = _mm_add_pd(a1, x1);
    a2 = _mm_add_pd(a2, x2);
    a3 = _mm_add_pd(a3, x3);
    vmn = _mm_min_pd(_mm_min_pd(vmn, _mm_min_pd(x0, x1)),
                     _mm_min_pd(x2, x3));
    vmx = _mm_max_pd(_mm_max_pd(vmx, _mm_max_pd(x0, x1)),
                     _mm_max_pd(x2, x3));
  }
  double acc[8];
  _mm_storeu_pd(acc + 0, a0);
  _mm_storeu_pd(acc + 2, a1);
  _mm_storeu_pd(acc + 4, a2);
  _mm_storeu_pd(acc + 6, a3);
  double mn_arr[2], mx_arr[2];
  _mm_storeu_pd(mn_arr, vmn);
  _mm_storeu_pd(mx_arr, vmx);
  double mn = mn_arr[0] < mn_arr[1] ? mn_arr[0] : mn_arr[1];
  double mx = mx_arr[0] > mx_arr[1] ? mx_arr[0] : mx_arr[1];
  for (; i < n; ++i) {
    acc[i & 7] += v[i];
    if (v[i] < mn) mn = v[i];
    if (v[i] > mx) mx = v[i];
  }
  double t0 = acc[0] + acc[4];
  double t1 = acc[1] + acc[5];
  double t2 = acc[2] + acc[6];
  double t3 = acc[3] + acc[7];
  *sum = (t0 + t2) + (t1 + t3);
  *min = mn;
  *max = mx;
}

size_t CompactFiniteF64Sse2(const double* v, size_t n, double* out) {
  const __m128d inf = _mm_set1_pd(std::numeric_limits<double>::infinity());
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d x = _mm_loadu_pd(v + i);
    int keep = _mm_movemask_pd(_mm_cmpneq_pd(x, inf));
    if (keep == 3) {
      _mm_storeu_pd(out + count, x);
      count += 2;
    } else if (keep == 1) {
      out[count++] = v[i];
    } else if (keep == 2) {
      out[count++] = v[i + 1];
    }
  }
  if (i < n && v[i] != std::numeric_limits<double>::infinity()) {
    out[count++] = v[i];
  }
  return count;
}

const KernelTable kSse2Table = {
    "sse2",         ExtractInRangeSse2, CountInRangeSse2,
    MaxU8Sse2,      MinU8Sse2,          AggregateF64Sse2,
    CompactFiniteF64Sse2,
};

}  // namespace

const KernelTable* Sse2Kernels() { return &kSse2Table; }

}  // namespace simd
}  // namespace dsig

#else  // !__SSE2__

namespace dsig {
namespace simd {
const KernelTable* Sse2Kernels() { return nullptr; }
}  // namespace simd
}  // namespace dsig

#endif
