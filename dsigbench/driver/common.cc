#include "driver/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace dsigbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

Samples::Quantile Samples::Tail(double q) const {
  Quantile out;
  out.n = values_.size();
  if (values_.empty()) return out;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  out.q = std::max(0.5, std::min(q, 1.0 - 10.0 / n));
  const double pos = out.q * (n - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  out.value = values_[lo] + (values_[hi] - values_[lo]) * frac;
  return out;
}

Samples::Quantile MedianOfP50s(const std::vector<const Samples*>& slices) {
  std::vector<double> p50s;
  size_t n = 0;
  for (const Samples* s : slices) {
    if (s->size() == 0) continue;
    p50s.push_back(s->Tail(0.5).value);
    n += s->size();
  }
  return {Median(p50s), 0.5, n};
}

void Report::Set(const std::string& name, double value, size_t samples,
                 const std::string& note) {
  if (entries_.count(name) == 0) order_.push_back(name);
  entries_[name] = {value, samples, note};
}

void Report::SetQuantile(const std::string& name, const Samples::Quantile& q) {
  char note[48];
  std::snprintf(note, sizeof(note), "p%.4g of raw samples", q.q * 100);
  Set(name, q.value, q.n, note);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Report::ResultJson(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : order_) {
    const Entry& e = entries_.at(name);
    os << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
       << JsonNumber(e.value) << ", \"samples\": " << e.samples
       << ", \"note\": " << JsonString(e.note) << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

std::vector<SpanRecorder::Rec>& SpanRecorder::ThreadBuffer() {
  thread_local std::vector<Rec>* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<std::vector<Rec>>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanRecorder::Record(const char* name, uint64_t id, uint64_t parent,
                          uint64_t request, uint64_t start_ns,
                          uint64_t end_ns) {
  if (!enabled_) return;
  ThreadBuffer().push_back({name, id, parent, request, start_ns, end_ns});
}

std::vector<SpanRecorder::Rec> SpanRecorder::Collect() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Rec> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const Rec& a, const Rec& b) { return a.id < b.id; });
  return all;
}

size_t SpanRecorder::WriteJsonl(const std::string& path) {
  const std::vector<Rec> all = Collect();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  for (const Rec& r : all) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_ns\": %llu, \"end_ns\": %llu}\n",
                 r.name, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request),
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns));
  }
  std::fclose(f);
  return all.size();
}

void SpanRecorder::PrintSummary(std::FILE* out) {
  const std::vector<Rec> all = Collect();
  std::unordered_map<uint64_t, uint64_t> child_ns;  // parent id -> covered
  for (const Rec& r : all) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  struct Agg {
    uint64_t count = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const Rec& r : all) {
    Agg& a = by_name[r.name];
    const double dur = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
    ++a.count;
    a.total_ms += dur;
    // Children on other threads can cover more than the parent's wall time
    // (a batch span over four workers); self time then reads 0.
    auto it = child_ns.find(r.id);
    const double covered =
        it == child_ns.end() ? 0 : static_cast<double>(it->second) / 1e6;
    a.self_ms += std::max(0.0, dur - covered);
  }
  std::fprintf(out, "spans (name, count, total ms, self ms):\n");
  for (const auto& [name, a] : by_name) {
    std::fprintf(out, "  %-28s %10llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(a.count), a.total_ms,
                 a.self_ms);
  }
}

ScopedSpan::ScopedSpan(const char* name, uint64_t parent, uint64_t request)
    : name_(name), parent_(parent), request_(request) {
  SpanRecorder& rec = SpanRecorder::Get();
  if (rec.enabled()) {
    id_ = rec.NewId();
    start_ns_ = NowNs();
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ != 0) {
    SpanRecorder::Get().Record(name_, id_, parent_, request_, start_ns_,
                               NowNs());
  }
}

}  // namespace dsigbench
