// Generic scalar kernels — always compiled, and *normative*: the vector
// table must reproduce these results bit-for-bit (including index order
// and the fixed f64 summation tree). Keep these implementations boring.
#include <limits>

#include "util/simd/simd.h"

namespace dsig {
namespace simd {
namespace {

size_t ExtractInRangeScalar(const uint8_t* v, size_t n, int lo, int hi,
                            uint32_t* out) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] >= lo && v[i] < hi) out[count++] = static_cast<uint32_t>(i);
  }
  return count;
}

size_t CountInRangeScalar(const uint8_t* v, size_t n, int lo, int hi) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] >= lo && v[i] < hi) ++count;
  }
  return count;
}

uint8_t MaxU8Scalar(const uint8_t* v, size_t n) {
  uint8_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] > m) m = v[i];
  }
  return m;
}

uint8_t MinU8Scalar(const uint8_t* v, size_t n) {
  uint8_t m = 0xFF;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] < m) m = v[i];
  }
  return m;
}

void AggregateF64Scalar(const double* v, size_t n, double* sum, double* min,
                        double* max) {
  // Eight stride-8 accumulator lanes combined in a fixed tree. This blocked
  // order (not plain left-to-right) is the kernel contract: it is what two
  // 4-wide vector accumulators produce naturally, so every dispatch level
  // can match it exactly.
  double acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
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

size_t CompactFiniteF64Scalar(const double* v, size_t n, double* out) {
  const double kInf = std::numeric_limits<double>::infinity();
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] != kInf) out[count++] = v[i];
  }
  return count;
}

const KernelTable kScalarTable = {
    "scalar",          ExtractInRangeScalar, CountInRangeScalar,
    MaxU8Scalar,       MinU8Scalar,          AggregateF64Scalar,
    CompactFiniteF64Scalar,
};

}  // namespace

const KernelTable* ScalarKernels() { return &kScalarTable; }

}  // namespace simd
}  // namespace dsig
