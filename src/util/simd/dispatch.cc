// Kernel dispatch: pick the strongest level compiled into this binary,
// apply the DSIG_FORCE_SCALAR override, and publish one atomic table
// pointer that the query layer loads on every kernel call.
#include "util/simd/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace dsig {
namespace simd {

namespace {

// Null when the variant is not compiled into this binary.
const KernelTable* TableFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return ScalarKernels();
    case SimdLevel::kSse2:
      return Sse2Kernels();
  }
  return nullptr;
}

constexpr SimdLevel kLadder[] = {SimdLevel::kScalar, SimdLevel::kSse2};

SimdLevel BestCompiledLevel() {
  SimdLevel best = SimdLevel::kScalar;
  for (SimdLevel level : kLadder) {
    if (TableFor(level) != nullptr) best = level;
  }
  return best;
}

bool EnvTruthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

std::atomic<const KernelTable*> g_active_table{nullptr};
std::atomic<int> g_active_level{static_cast<int>(SimdLevel::kScalar)};
std::once_flag g_init_once;

void StoreActive(SimdLevel level) {
  // Level first, table second: Kernels() keys readiness off the table
  // pointer, and ActiveLevel() forces init the same way.
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  g_active_table.store(TableFor(level), std::memory_order_release);
}

void InitDispatch() {
  StoreActive(EnvTruthy("DSIG_FORCE_SCALAR") ? SimdLevel::kScalar
                                             : BestCompiledLevel());
}

void EnsureInit() { std::call_once(g_init_once, InitDispatch); }

}  // namespace

const KernelTable& Kernels() {
  const KernelTable* t = g_active_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    EnsureInit();
    t = g_active_table.load(std::memory_order_acquire);
  }
  return *t;
}

SimdLevel ActiveLevel() {
  EnsureInit();
  return static_cast<SimdLevel>(g_active_level.load(std::memory_order_relaxed));
}

SimdLevel DetectedLevel() { return BestCompiledLevel(); }

std::vector<SimdLevel> AvailableLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level : kLadder) {
    if (TableFor(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

bool SetActiveLevel(SimdLevel level) {
  EnsureInit();
  if (TableFor(level) == nullptr) return false;
  StoreActive(level);
  return true;
}

SimdOverride::SimdOverride(SimdLevel level)
    : previous_(ActiveLevel()), applied_(SetActiveLevel(level)) {}

SimdOverride::~SimdOverride() {
  if (applied_) SetActiveLevel(previous_);
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
  }
  return "unknown";
}

std::string CpuFeatureString() {
  std::string s = "compiled:";
  for (SimdLevel level : AvailableLevels()) {
    s += ' ';
    s += SimdLevelName(level);
  }
  s += "; active: ";
  s += SimdLevelName(ActiveLevel());
  return s;
}

}  // namespace simd
}  // namespace dsig
