// SIMD query kernels: one scalar reference and one 128-bit vector set.
//
// The query hot path on top of row decode is a handful of tiny scan loops:
// compare one small category byte per object (range filtering, kNN
// bucketing, observer selection), accumulate distances (aggregates), and
// compact the object-distance table's finite entries (reverse kNN). Each is
// a textbook 16-wide compare+movemask or widened accumulate, so this layer
// ships them as *kernels*: a table of per-kernel function pointers with a
// generic scalar table that is always built, plus an SSE2 table on x86-64
// builds. SSE2 is part of the x86-64 baseline, so the vector table needs no
// per-file ISA flag and no runtime CPU probe: which levels exist is a
// compile-time fact. Non-x86 builds run the scalar table only.
//
// Wider variants (AVX2, NEON) and a vector hub-label merge were measured
// end to end and dropped: their wins were within run-to-run noise
// (EXPERIMENTS.md, E8b addendum).
//
// Bit-identical contract: every kernel's result — including the order of
// extracted indices and the floating-point summation tree — is defined by
// the scalar reference in kernels_scalar.cc, and the vector table must
// reproduce it exactly. The differential fuzz suite (simd_kernels_test)
// enforces this, so callers may treat the dispatch level as unobservable.
//
// Override (checked once, at first use):
//   DSIG_FORCE_SCALAR=1   pin the generic scalar kernels
// plus the SimdOverride RAII hook for tests and harnesses.
#ifndef DSIG_UTIL_SIMD_SIMD_H_
#define DSIG_UTIL_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dsig {
namespace simd {

// Dispatch levels, in strength order. Values are stable (exported as the
// simd.dispatch_level gauge and recorded in bench reports).
enum class SimdLevel : int {
  kScalar = 0,
  kSse2 = 1,
};

// One resolved set of kernels. All pointers are always non-null.
//
// Kernel semantics (the scalar reference is normative):
//
//  * extract_in_range(v, n, lo, hi, out): writes the indices i (ascending)
//    with lo <= v[i] < hi to out (caller provides room for n uint32s);
//    returns the count. lo/hi are ints so hi = 256 expresses "no upper
//    bound" even though lanes are bytes.
//  * count_in_range(v, n, lo, hi): the count alone, no index output.
//  * max_u8 / min_u8: horizontal max/min; 0 / 0xFF on an empty input.
//  * aggregate_f64(v, n, sum, min, max): *sum = the blocked sum of v —
//    eight stride-8 accumulator lanes (acc[i & 7] += v[i]) combined in a
//    fixed tree: t[j] = acc[j] + acc[j+4] for j in 0..3, then
//    *sum = (t0 + t2) + (t1 + t3). The tree is part of the kernel contract
//    so every dispatch level produces the same bits. *min/*max get the
//    lane-order-independent extrema (+inf / -inf on empty input).
//  * compact_finite_f64(v, n, out): copies the values != kInfiniteWeight
//    (the object-distance table's "far" marker) to out in order; returns
//    the count.
struct KernelTable {
  const char* name;
  size_t (*extract_in_range)(const uint8_t* v, size_t n, int lo, int hi,
                             uint32_t* out);
  size_t (*count_in_range)(const uint8_t* v, size_t n, int lo, int hi);
  uint8_t (*max_u8)(const uint8_t* v, size_t n);
  uint8_t (*min_u8)(const uint8_t* v, size_t n);
  void (*aggregate_f64)(const double* v, size_t n, double* sum, double* min,
                        double* max);
  size_t (*compact_finite_f64)(const double* v, size_t n, double* out);
};

// The active kernel table. First call applies the DSIG_FORCE_SCALAR
// environment override and caches the result; afterwards this is one atomic
// load.
const KernelTable& Kernels();

// The level Kernels() currently dispatches to.
SimdLevel ActiveLevel();

// The strongest level compiled into this binary, ignoring overrides.
SimdLevel DetectedLevel();

// Levels compiled into this binary (always includes kScalar, ascending).
// Tests and benches iterate this to cover every dispatch path.
std::vector<SimdLevel> AvailableLevels();

// Pins the active level. Returns false (level unchanged) when the variant
// was not compiled. Not intended for concurrent use with running queries —
// pin before serving, or from a quiesced test.
bool SetActiveLevel(SimdLevel level);

// RAII pin for tests/harnesses: pins `level` for its lifetime, restores the
// previous level on destruction.
class SimdOverride {
 public:
  explicit SimdOverride(SimdLevel level);
  ~SimdOverride();
  SimdOverride(const SimdOverride&) = delete;
  SimdOverride& operator=(const SimdOverride&) = delete;

  // False when the requested level was unavailable (the override then kept
  // the previous level active).
  bool applied() const { return applied_; }

 private:
  SimdLevel previous_;
  bool applied_;
};

const char* SimdLevelName(SimdLevel level);

// Human-readable dispatch summary, e.g. "compiled: scalar sse2; active:
// sse2". Printed by `dsig_tool stats` and the server startup log.
std::string CpuFeatureString();

// Per-variant tables, one per TU.
const KernelTable* ScalarKernels();  // never null
const KernelTable* Sse2Kernels();    // null on non-x86 builds

}  // namespace simd
}  // namespace dsig

#endif  // DSIG_UTIL_SIMD_SIMD_H_
