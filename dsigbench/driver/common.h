// Shared pieces of the benchmark driver: arguments, raw-sample percentiles,
// the metric report, process accounting and the span recorder.
#ifndef DSIGBENCH_DRIVER_COMMON_H_
#define DSIGBENCH_DRIVER_COMMON_H_

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dsigbench {

// The road network and its objects are the benchmark's fixed dataset, as a
// real map and its points of interest would be: every run rebuilds them
// from this seed (objects from seed + 1, as dsig_serve does), and --seed
// draws what varies between runs: hot sets and the query or traffic streams.
inline constexpr uint64_t kDatasetSeed = 42;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;     // self-check scale
  bool falsify = false;  // self-check: corrupt one answer before the oracle
  std::string work_dir = ".";
};

uint64_t NowNs();
double SecondsSince(uint64_t start_ns);

// Raw per-op samples. Percentiles interpolate over the sorted values; the
// registry's log-bucketed histograms are never used for a reported number.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }

  struct Quantile {
    double value = 0;
    double q = 0;  // the quantile actually reported
    size_t n = 0;
  };
  // The `q` quantile when at least ten samples lie beyond it, else the
  // highest quantile that has ten beyond it (never below the median).
  Quantile Tail(double q) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

// The median across slices of a run of each slice's p50, with the pooled
// sample count: a slow phase of a shared machine moves one slice, not the
// figure. Empty slices are skipped.
Samples::Quantile MedianOfP50s(const std::vector<const Samples*>& slices);

// Named metric values with sample counts and notes. BENCHMARK.json is the
// one list of metrics, their units and their mode; the driver reports every
// metric it measures and run.py picks the mode's set from it.
class Report {
 public:
  void Set(const std::string& name, double value, size_t samples = 1,
           const std::string& note = "");
  void SetQuantile(const std::string& name, const Samples::Quantile& q);

  // The result line: {"correct", "attempted", "failed", "metrics": {name:
  // {"value", "samples", "note"}}}, metrics in the order first set.
  std::string ResultJson(bool correct, uint64_t attempted,
                         uint64_t failed) const;

 private:
  struct Entry {
    double value = 0;
    size_t samples = 0;
    std::string note;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

// Full-precision JSON number.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

// Process CPU and context-switch accounting (all threads).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  uint64_t ctx_switches = 0;
};
Usage ProcessUsage();

// VmHWM of a process (0 = self) in MB; 0 when unreadable.
double PeakRssMb(int pid = 0);
// Resets this process's VmHWM to its current RSS; false when the kernel
// does not allow it.
bool ResetPeakRss();

// Median of a small vector (copies).
double Median(std::vector<double> v);

// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(double u) const;  // u uniform in [0, 1)

 private:
  std::vector<double> cdf_;
};

// Spans recorded by the benchmark's own code around each call into a
// layer: name, start, end, parent span and request id. Kept in per-thread
// buffers and written out once the run ends. Disabled recorders cost one
// branch per span.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const char* name, uint64_t id, uint64_t parent, uint64_t request,
              uint64_t start_ns, uint64_t end_ns);

  // Writes one JSON object per span; returns the span count.
  size_t WriteJsonl(const std::string& path);
  // Per span name: count and total/self milliseconds (self = duration minus
  // the time covered by child spans), for the run log.
  void PrintSummary(std::FILE* out);

 private:
  struct Rec {
    const char* name;
    uint64_t id, parent, request, start_ns, end_ns;
  };
  std::vector<Rec>& ThreadBuffer();
  std::vector<Rec> Collect();

  bool enabled_ = false;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Rec>>> buffers_;
};

// RAII span; `parent` 0 = root.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t parent = 0, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  const char* name_;
  uint64_t id_ = 0, parent_, request_, start_ns_ = 0;
};

// What a workload hands back to main.
struct RunOutcome {
  Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t oracle_checked = 0;
  uint64_t oracle_mismatches = 0;
  bool durability_ok = true;
  std::map<std::string, std::string> env;  // run environment, printed as JSON
};

}  // namespace dsigbench

#endif  // DSIGBENCH_DRIVER_COMMON_H_
