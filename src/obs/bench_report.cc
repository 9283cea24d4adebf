#include "obs/bench_report.h"

#include <cstdio>
#include <utility>

#include "obs/json.h"
#include "util/logging.h"

namespace dsig {
namespace obs {

BenchReport::BenchReport(std::string bench_name)
    : bench_(std::move(bench_name)) {}

void BenchReport::SetParam(const std::string& key, const std::string& value) {
  // Built with append: GCC 12 flags `"..." + std::string&&` with a false
  // -Wrestrict positive at -O3.
  std::string quoted = "\"";
  quoted.append(JsonEscape(value)).append("\"");
  params_.emplace_back(key, std::move(quoted));
}

void BenchReport::SetParam(const std::string& key, double value) {
  params_.emplace_back(key, JsonNumber(value));
}

BenchReport::Point* BenchReport::AddPoint(const std::string& exhibit,
                                          const std::string& series,
                                          const std::string& x) {
  Exhibit* e = nullptr;
  for (Exhibit& candidate : exhibits_) {
    if (candidate.name == exhibit) {
      e = &candidate;
      break;
    }
  }
  if (e == nullptr) {
    exhibits_.push_back({exhibit, {}});
    e = &exhibits_.back();
  }
  Series* s = nullptr;
  for (Series& candidate : e->series) {
    if (candidate.name == series) {
      s = &candidate;
      break;
    }
  }
  if (s == nullptr) {
    e->series.push_back({series, {}});
    s = &e->series.back();
  }
  s->points.emplace_back();
  s->points.back().x = x;
  return &s->points.back();
}

std::string BenchReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("bench", bench_);
  w.Field("schema_version", static_cast<uint64_t>(kBenchReportSchemaVersion));
  w.Key("params").BeginObject();
  for (const auto& [key, rendered] : params_) {
    // Values were pre-rendered as JSON by SetParam.
    w.Key(key);
    w.Raw(rendered);
  }
  w.EndObject();
  w.Key("exhibits").BeginArray();
  for (const Exhibit& exhibit : exhibits_) {
    w.BeginObject();
    w.Field("name", exhibit.name);
    w.Key("series").BeginArray();
    for (const Series& series : exhibit.series) {
      w.BeginObject();
      w.Field("name", series.name);
      w.Key("points").BeginArray();
      for (const Point& point : series.points) {
        w.BeginObject();
        w.Field("x", point.x);
        w.Field("queries", point.queries);
        w.Key("metrics").BeginObject();
        for (const auto& [name, value] : point.metrics) {
          w.Field(name, value);
        }
        w.EndObject();
        if (point.has_latency) {
          const HistogramSnapshot& s = point.latency;
          w.Key("latency_ms").BeginObject();
          w.Field("count", s.count);
          w.Field("mean", s.Mean());
          w.Field("min", s.min);
          w.Field("max", s.max);
          w.Field("p50", s.p50);
          w.Field("p90", s.p90);
          w.Field("p99", s.p99);
          w.EndObject();
        }
        if (!point.ops.empty()) {
          w.Key("ops").BeginObject();
          for (const auto& [name, value] : point.ops) {
            w.Field(name, value);
          }
          w.EndObject();
        }
        if (!point.buffer.empty()) {
          w.Key("buffer").BeginObject();
          for (const auto& [name, value] : point.buffer) {
            w.Field(name, value);
          }
          w.EndObject();
        }
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

bool BenchReport::WriteFile(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    DSIG_LOG(Error) << "cannot open bench report " << path;
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool newline_ok = std::fputc('\n', file) != EOF;
  const bool close_ok = std::fclose(file) == 0;
  if (written != json.size() || !newline_ok || !close_ok) {
    DSIG_LOG(Error) << "short write on bench report " << path;
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace dsig
