// paged_cold and hot_labels: the dsig library driven in-process.
//
// Both build a 20k-node random-planar network with uniform objects at
// p = 0.01 and run a closed loop of queries through RunBatch on four
// threads (three pool workers plus the calling thread, which RunBatch puts
// to work). They differ in what they stress:
//  * paged_cold is the paper's cost-model setting: CCAM layout, separate-
//    schema paged storage on a 256-page BufferManager (far smaller than the
//    working set), uniform query nodes, type-3 kNN and range queries 2:1.
//  * hot_labels is the runtime setting: no paged storage, the default
//    RowCache plus a hub-label tier, Zipf-skewed query nodes over a hot set,
//    and a kNN type-1 / range / count / node-distance mix whose distance
//    pairs are stratified over the Q1..Q10 distance bands of Zhu et al.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/distance_ops.h"
#include "core/hub_labels.h"
#include "core/row_stage.h"
#include "core/signature_builder.h"
#include "core/signature_index.h"
#include "driver/common.h"
#include "driver/oracle.h"
#include "driver/workloads.h"
#include "graph/ccam.h"
#include "graph/dijkstra.h"
#include "graph/graph_generator.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"
#include "query/aggregate_query.h"
#include "query/batch.h"
#include "query/knn_query.h"
#include "query/planner.h"
#include "query/range_query.h"
#include "serve/degrade.h"
#include "storage/buffer_manager.h"
#include "storage/network_store.h"
#include "util/random.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"
#include "workload/dataset_generator.h"

namespace dsigbench {
namespace {

using namespace dsig;

enum class Kind : uint8_t { kKnn = 0, kRange, kCount, kDistance };
constexpr int kNumKinds = 4;
constexpr const char* kKindSpan[kNumKinds] = {"query.knn", "query.range",
                                              "query.count", "query.distance"};

// Mixes keep every all-type median inside one op type's latency mode: with
// two well-separated modes at 1:1 the median would fall in the gap between
// them and swing with a handful of ops. paged_cold runs kNN:range 2:1;
// hot_labels runs kNN:range:count:distance 2:2:1:1, so the median falls in
// the middle of the range mode.
constexpr std::array<Kind, 6> kHotMix = {Kind::kKnn,   Kind::kRange,
                                         Kind::kCount, Kind::kKnn,
                                         Kind::kRange, Kind::kDistance};

struct Op {
  Kind kind = Kind::kKnn;
  NodeId node = 0;
  NodeId target = 0;      // kDistance
  double epsilon = 0;     // kRange / kCount
  double expected = 0;    // kDistance: the Dijkstra distance
};

struct Answer {
  bool present = false;
  std::vector<uint32_t> objects;
  std::vector<double> distances;
  double value = 0;
};

struct Config {
  bool paged = false;
  size_t nodes = 20000;
  double density = 0.01;
  size_t knn_k = 10;
  KnnResultType knn_type = KnnResultType::kType3;
  size_t num_ops = 8192;
  size_t hot_set = 4000;        // hot_labels: Zipf support
  double zipf_s = 0.5;
  size_t band_sources = 48;     // hot_labels: Dijkstra roots for Q1..Q10
  size_t oracle_per_kind = 24;  // answers checked against Dijkstra
  size_t warm_ops = 512;
  size_t buffer_pages = 256;
  size_t threads = 4;           // executing threads, caller included
  int setups = 5;  // fresh deployments, each followed by a timed slice
};

Config MakeConfig(const Args& args) {
  Config c;
  c.paged = args.workload == "paged_cold";
  c.knn_type = c.paged ? KnnResultType::kType3 : KnnResultType::kType1;
  // A few paged ops fill the 256-page pool; more would only add the noise
  // of a contended pool to set-up.
  if (c.paged) c.warm_ops = 128;
  if (args.tiny) {
    c.nodes = 2000;
    c.num_ops = 512;
    c.hot_set = 400;
    c.band_sources = 8;
    c.oracle_per_kind = 8;
    c.warm_ops = 64;
    c.setups = 2;
  }
  return c;
}

// One fully built deployment. Members are declared in dependency order so
// destruction runs index before storage before graph.
struct State {
  std::unique_ptr<RoadNetwork> graph;
  std::vector<NodeId> objects;
  std::vector<NodeId> order;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<NetworkStore> network;
  std::unique_ptr<SignatureIndex> index;
  std::shared_ptr<HubLabels> labels;
  double graph_s = 0, ccam_s = 0, index_s = 0, labels_s = 0;
};

std::unique_ptr<State> Setup(const Config& cfg, ThreadPool* pool) {
  const ScopedSpan setup_span("setup");
  auto st = std::make_unique<State>();
  uint64_t t = NowNs();
  {
    const ScopedSpan span("graph.generate", setup_span.id());
    st->graph = std::make_unique<RoadNetwork>(
        MakeRandomPlanar({.num_nodes = cfg.nodes, .seed = kDatasetSeed}));
    st->objects = UniformDataset(*st->graph, cfg.density, kDatasetSeed + 1);
  }
  st->graph_s = SecondsSince(t);
  if (cfg.paged) {
    t = NowNs();
    const ScopedSpan span("graph.ccam", setup_span.id());
    st->order = ComputeCcamOrder(*st->graph, 64);
    st->ccam_s = SecondsSince(t);
  }
  t = NowNs();
  {
    const ScopedSpan span("core.build_index", setup_span.id());
    st->index = BuildSignatureIndex(
        *st->graph, st->objects,
        {.t = 10, .c = 2.718281828459045, .keep_forest = false});
  }
  st->index_s = SecondsSince(t);
  if (!cfg.paged) {
    t = NowNs();
    const ScopedSpan span("core.hub_labels.build", setup_span.id());
    st->labels = HubLabels::Build(*st->graph, {}, pool);
    st->labels_s = SecondsSince(t);
  }
  {
    const ScopedSpan span("storage.attach", setup_span.id());
    if (cfg.paged) {
      st->buffer = std::make_unique<BufferManager>(cfg.buffer_pages);
      st->network = std::make_unique<NetworkStore>(*st->graph, st->order,
                                                   st->buffer.get());
      st->index->AttachStorage(st->buffer.get(), st->network.get(),
                               st->order);
    } else {
      st->index->set_hub_labels(st->labels);
    }
  }
  return st;
}

// Range radii stratified over the category bands: band b's midpoint, for
// every band but the open-ended last one.
std::vector<double> BandRadii(const SignatureIndex& index) {
  const CategoryPartition& partition = index.partition();
  std::vector<double> radii;
  for (int c = 0; c + 1 < partition.num_categories(); ++c) {
    radii.push_back(serve::CategoryMidpoint(partition, c));
  }
  if (radii.empty()) radii.push_back(serve::CategoryMidpoint(partition, 0));
  return radii;
}

// Cycles the range and count radii over `radii`, one band per mix period.
void SetRadii(const Config& cfg, const std::vector<double>& radii,
              std::vector<Op>* ops) {
  const size_t period = cfg.paged ? 3 : kHotMix.size();
  for (size_t i = 0; i < ops->size(); ++i) {
    (*ops)[i].epsilon = radii[(i / period) % radii.size()];
  }
}

// The op stream without radii (SetRadii adds them once an index exists).
std::vector<Op> MakeOps(const Config& cfg, const RoadNetwork& graph,
                        uint64_t seed) {
  Random rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const size_t n = graph.num_nodes();
  std::vector<Op> ops(cfg.num_ops);
  if (cfg.paged) {
    for (size_t i = 0; i < ops.size(); ++i) {
      ops[i].kind = i % 3 == 2 ? Kind::kRange : Kind::kKnn;
      ops[i].node = static_cast<NodeId>(rng.NextUint64(n));
    }
    return ops;
  }

  // Hot set: distinct random nodes; Zipf rank r picks hot[r].
  std::vector<NodeId> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<NodeId>(i);
  for (size_t i = 0; i < cfg.hot_set; ++i) {
    std::swap(all[i], all[i + rng.NextUint64(n - i)]);
  }
  const std::vector<NodeId> hot(all.begin(), all.begin() + cfg.hot_set);
  const Zipf zipf(hot.size(), cfg.zipf_s);

  // Q1..Q10 (Zhu et al.): band i holds pairs at distance in
  // [2^(i-1) l, 2^i l) with l = D / 1024, D the largest distance seen from
  // the band roots (the hottest nodes). Q10 is closed at D.
  const size_t roots = std::min(cfg.band_sources, hot.size());
  std::vector<std::vector<double>> dist(roots);
  double max_d = 0;
  for (size_t r = 0; r < roots; ++r) {
    dist[r] = RunDijkstra(graph, hot[r]).dist;
    for (const double d : dist[r]) {
      if (std::isfinite(d)) max_d = std::max(max_d, d);
    }
  }
  auto band_of = [&](double d) -> int {
    if (!std::isfinite(d) || d <= 0) return -1;
    const double l = max_d / 1024;
    const int b = static_cast<int>(std::floor(std::log2(d / l)));
    return std::min(b, 9) < 0 ? -1 : std::min(b, 9);
  };
  std::vector<std::vector<std::vector<NodeId>>> bucket(
      roots, std::vector<std::vector<NodeId>>(10));
  for (size_t r = 0; r < roots; ++r) {
    for (size_t v = 0; v < n; ++v) {
      const int b = band_of(dist[r][v]);
      if (b >= 0) bucket[r][b].push_back(static_cast<NodeId>(v));
    }
  }
  const Zipf root_zipf(roots, cfg.zipf_s);

  size_t distance_ops = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    Op& op = ops[i];
    op.kind = kHotMix[i % kHotMix.size()];
    op.node = hot[zipf.Sample(rng.NextDouble())];
    if (op.kind != Kind::kDistance) continue;
    // Band by round robin; a root with no pair in the band hands over to the
    // next root, and an empty band (short Q1 on small graphs) to the next.
    const int want = static_cast<int>(distance_ops++ % 10);
    const size_t r0 = root_zipf.Sample(rng.NextDouble());
    bool placed = false;
    for (int b = want; b < 10 && !placed; ++b) {
      for (size_t k = 0; k < roots && !placed; ++k) {
        const size_t r = (r0 + k) % roots;
        if (bucket[r][b].empty()) continue;
        op.node = hot[r];
        op.target = bucket[r][b][rng.NextUint64(bucket[r][b].size())];
        op.expected = dist[r][op.target];
        placed = true;
      }
    }
    if (!placed) {  // degenerate graph: fall back to a count query
      op.kind = Kind::kCount;
    }
  }
  return ops;
}

// Runs one op; false when the answer came back partial or absent.
bool Execute(const Config& cfg, const SignatureIndex& index, const Op& op,
             Answer* keep) {
  switch (op.kind) {
    case Kind::kKnn: {
      KnnResult r = SignatureKnnQuery(index, op.node, cfg.knn_k, cfg.knn_type);
      if (keep != nullptr) {
        keep->objects = std::move(r.objects);
        keep->distances = std::move(r.distances);
        keep->present = true;
      }
      return !r.deadline_exceeded;
    }
    case Kind::kRange: {
      RangeQueryResult r = SignatureRangeQuery(index, op.node, op.epsilon);
      if (keep != nullptr) {
        keep->objects = std::move(r.objects);
        keep->present = true;
      }
      return !r.deadline_exceeded;
    }
    case Kind::kCount: {
      const CountResult r = SignatureCountQuery(index, op.node, op.epsilon);
      if (keep != nullptr) {
        keep->value = static_cast<double>(r.count);
        keep->present = true;
      }
      return true;
    }
    case Kind::kDistance: {
      const Weight d = RoutedNodeDistance(index, op.node, op.target);
      if (keep != nullptr) {
        keep->value = d;
        keep->present = true;
      }
      return std::isfinite(d);
    }
  }
  return false;
}

struct Window {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  std::vector<double> batch_rates;  // ops/s of each batch
  Samples all;
  Samples by_kind[kNumKinds];
  Usage usage;
  OpCounters counters;
  BufferStats buffer;
  uint64_t rowcache_hits = 0, rowcache_misses = 0, rowcache_evictions = 0;
  // Traced windows only: per-phase self time summed over ops.
  double phase_ms[obs::kNumPhases] = {};
  uint64_t traced_ops = 0;
};

uint64_t RegistryCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// Closed loop for `seconds`: batches of ops through RunBatch, each op timed
// on its own thread. Ops are taken cyclically from *cursor. Answers of the
// ops flagged in `sampled` are kept on their first execution.
Window RunWindow(const Config& cfg, State& st, const std::vector<Op>& ops,
                 ThreadPool* pool, double seconds, bool traced,
                 size_t* cursor, const std::vector<bool>& sampled,
                 std::vector<Answer>* answers) {
  Window w;
  const Usage usage0 = ProcessUsage();
  const OpCounters counters0 = GlobalOpCounters();
  const BufferStats buffer0 = st.buffer ? st.buffer->stats() : BufferStats{};
  const uint64_t hits0 = RegistryCounter("rowcache.hits");
  const uint64_t misses0 = RegistryCounter("rowcache.misses");
  const uint64_t evictions0 = RegistryCounter("rowcache.evictions");

  size_t batch = 64;
  std::vector<double> latency;
  std::vector<uint8_t> ok;
  std::vector<obs::TraceSummary> summaries;
  const uint64_t start = NowNs();
  while (SecondsSince(start) < seconds) {
    latency.assign(batch, 0);
    ok.assign(batch, 0);
    if (traced) summaries.assign(batch, obs::TraceSummary{});
    const size_t base = *cursor;
    const uint64_t batch_start = NowNs();
    const ScopedSpan batch_span("query.batch");
    RunBatch(
        batch,
        [&](size_t j) {
          const size_t seq = base + j;
          const size_t i = seq % ops.size();
          Answer* keep = seq < ops.size() && sampled[i] &&
                                 !(*answers)[i].present
                             ? &(*answers)[i]
                             : nullptr;
          const uint64_t t0 = NowNs();
          if (traced) {
            obs::QueryTrace trace(nullptr, obs::QueryTrace::Mode::kCollectRoot);
            ok[j] = Execute(cfg, *st.index, ops[i], keep);
            summaries[j] = trace.Finish();
          } else {
            ok[j] = Execute(cfg, *st.index, ops[i], keep);
          }
          const uint64_t t1 = NowNs();
          latency[j] = static_cast<double>(t1 - t0) / 1e6;
          SpanRecorder& rec = SpanRecorder::Get();
          if (traced && rec.enabled()) {
            rec.Record(kKindSpan[static_cast<int>(ops[i].kind)], rec.NewId(),
                       batch_span.id(), seq, t0, t1);
          }
        },
        BatchOptions{.pool = pool});
    w.batch_rates.push_back(static_cast<double>(batch) /
                            SecondsSince(batch_start));
    for (size_t j = 0; j < batch; ++j) {
      const Op& op = ops[(base + j) % ops.size()];
      w.all.Add(latency[j]);
      w.by_kind[static_cast<int>(op.kind)].Add(latency[j]);
      if (!ok[j]) ++w.failed;
      if (traced && summaries[j].collected) {
        for (int p = 0; p < obs::kNumPhases; ++p) {
          w.phase_ms[p] += summaries[j].phases_ms[p];
        }
        ++w.traced_ops;
      }
    }
    *cursor += batch;
    w.ops += batch;
    // Aim for ~0.2 s batches so the end-of-batch barrier stays a small
    // share of the window and the deadline check runs often.
    const double rate = static_cast<double>(w.ops) / SecondsSince(start);
    batch = std::clamp<size_t>(static_cast<size_t>(rate * 0.2), 64, 8192);
  }
  w.wall_s = SecondsSince(start);
  const Usage usage1 = ProcessUsage();
  w.usage = {usage1.user_s - usage0.user_s, usage1.sys_s - usage0.sys_s,
             usage1.ctx_switches - usage0.ctx_switches};
  w.counters = GlobalOpCounters() - counters0;
  if (st.buffer) w.buffer = st.buffer->stats() - buffer0;
  w.rowcache_hits = RegistryCounter("rowcache.hits") - hits0;
  w.rowcache_misses = RegistryCounter("rowcache.misses") - misses0;
  w.rowcache_evictions = RegistryCounter("rowcache.evictions") - evictions0;
  return w;
}

// Adds `seg`'s counts and samples to `total`.
void Absorb(const Window& seg, Window* total) {
  total->ops += seg.ops;
  total->failed += seg.failed;
  total->wall_s += seg.wall_s;
  total->all.Append(seg.all);
  for (int k = 0; k < kNumKinds; ++k) total->by_kind[k].Append(seg.by_kind[k]);
  total->usage.user_s += seg.usage.user_s;
  total->usage.sys_s += seg.usage.sys_s;
  total->usage.ctx_switches += seg.usage.ctx_switches;
  total->counters += seg.counters;
  total->buffer.logical_accesses += seg.buffer.logical_accesses;
  total->buffer.physical_accesses += seg.buffer.physical_accesses;
  total->rowcache_hits += seg.rowcache_hits;
  total->rowcache_misses += seg.rowcache_misses;
  total->rowcache_evictions += seg.rowcache_evictions;
}

// Each segment's samples of one op kind (-1 = all ops).
Samples::Quantile SegmentMedian(const std::vector<Window>& segments, int kind) {
  std::vector<const Samples*> slices;
  for (const Window& seg : segments) {
    slices.push_back(kind < 0 ? &seg.all : &seg.by_kind[kind]);
  }
  return MedianOfP50s(slices);
}

// Checks every kept answer against Dijkstra; returns mismatches.
uint64_t CheckAnswers(const Config& cfg, const State& st,
                      const std::vector<Op>& ops,
                      const std::vector<bool>& sampled,
                      std::vector<Answer>* answers, bool falsify,
                      uint64_t* checked) {
  const ScopedSpan span("oracle.check");
  Oracle oracle(st.graph.get(), st.index->objects());
  if (falsify) {
    for (size_t i = 0; i < ops.size(); ++i) {
      Answer& a = (*answers)[i];
      if (sampled[i] && a.present && ops[i].kind == Kind::kKnn &&
          !a.objects.empty()) {
        a.objects[0] = oracle.FarthestObject(ops[i].node);
        break;
      }
    }
  }
  uint64_t mismatches = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Answer& a = (*answers)[i];
    if (!sampled[i]) continue;
    ++*checked;
    const Op& op = ops[i];
    std::string problem;
    if (!a.present) {
      problem = "sampled op never ran";
    } else if (op.kind == Kind::kKnn) {
      problem = cfg.knn_type == KnnResultType::kType1
                    ? oracle.CheckKnnExact(op.node, cfg.knn_k, a.objects,
                                           a.distances)
                    : oracle.CheckKnnMembers(op.node, cfg.knn_k, a.objects);
    } else if (op.kind == Kind::kRange) {
      problem = oracle.CheckRange(op.node, op.epsilon, a.objects);
    } else if (op.kind == Kind::kCount) {
      problem = oracle.CheckCount(op.node, op.epsilon,
                                  static_cast<uint64_t>(a.value));
    } else if (a.value != op.expected) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "distance %u->%u: got %.17g, oracle %.17g",
                    op.node, op.target, a.value, op.expected);
      problem = buf;
    }
    if (!problem.empty()) {
      ++mismatches;
      std::fprintf(stderr, "dsigbench: ORACLE MISMATCH op %zu: %s\n", i,
                   problem.c_str());
    }
  }
  return mismatches;
}

// Times `fn` over `count` calls repeated until at least `min_s` passed;
// returns ns per call.
template <typename Fn>
double NsPerCall(size_t count, double min_s, Fn&& fn) {
  if (count == 0) return 0;
  uint64_t calls = 0;
  const uint64_t start = NowNs();
  do {
    for (size_t i = 0; i < count; ++i) fn(i);
    calls += count;
  } while (SecondsSince(start) < min_s);
  return static_cast<double>(NowNs() - start) / static_cast<double>(calls);
}

double PerOp(uint64_t value, uint64_t ops) {
  return ops == 0 ? 0 : static_cast<double>(value) / static_cast<double>(ops);
}

// Single-thread layer timings on the workload's own inputs (traced run).
void MeasureLayers(const Config& cfg, State& st, const std::vector<Op>& ops,
                   Report* report, uint64_t* mismatches) {
  const size_t prefix = std::min<size_t>(cfg.paged ? 256 : 512, ops.size());
  const double min_s = 0.2;
  volatile double sink = 0;

  {  // Decoding the workload's rows into SoA stages.
    const ScopedSpan span("core.read_row_staged");
    RowStage stage;
    report->Set("core.read_row_staged_ns",
                NsPerCall(prefix, min_s,
                          [&](size_t i) {
                            st.index->ReadRowStaged(ops[i].node, &stage);
                            sink = sink + stage.size();
                          }),
                prefix);
  }

  {  // Category-lane scans over the staged rows, one band per row.
    const ScopedSpan span("util.simd.scan");
    const size_t rows = std::min<size_t>(prefix, 256);
    std::vector<std::vector<uint8_t>> lanes(rows);
    RowStage stage;
    for (size_t i = 0; i < rows; ++i) {
      st.index->ReadRowStaged(ops[i].node, &stage);
      lanes[i].assign(stage.categories(), stage.categories() + stage.size());
    }
    const int bands = st.index->partition().num_categories();
    std::vector<uint32_t> out(st.index->num_objects() + 64);
    const simd::KernelTable& k = simd::Kernels();
    report->Set("util.simd.scan_ns_per_row",
                NsPerCall(rows, min_s,
                          [&](size_t i) {
                            const int hi = static_cast<int>(i) % bands + 1;
                            sink = sink +
                                   k.extract_in_range(lanes[i].data(),
                                                      lanes[i].size(), 0, hi,
                                                      out.data()) +
                                   k.count_in_range(lanes[i].data(),
                                                    lanes[i].size(), hi - 1,
                                                    hi);
                          }),
                rows, "extract_in_range + count_in_range per row");
  }

  if (cfg.paged) {
    // Fixed single-thread prefix on a cleared pool: a pure function of the
    // seed, guarding the paper's page columns.
    const ScopedSpan span("storage.prefix_1t");
    st.buffer->Clear();
    const BufferStats before = st.buffer->stats();
    for (size_t i = 0; i < prefix; ++i) Execute(cfg, *st.index, ops[i], nullptr);
    const BufferStats delta = st.buffer->stats() - before;
    report->Set("storage.pages_per_op_1t",
                PerOp(delta.physical_accesses, prefix), prefix);

    // The prefix's full page sequence, captured on a zero-page pool (every
    // touch is a miss the read hook sees), replayed on a 256-page pool.
    std::vector<std::pair<FileId, PageId>> sequence;
    BufferManager capture(0);
    NetworkStore capture_network(*st.graph, st.order, &capture);
    st.index->AttachStorage(&capture, &capture_network, st.order);
    capture.SetReadFaultInjector([&](FileId f, PageId p) {
      sequence.emplace_back(f, p);
      return false;
    });
    for (size_t i = 0; i < prefix; ++i) Execute(cfg, *st.index, ops[i], nullptr);
    capture.SetReadFaultInjector(nullptr);
    st.index->AttachStorage(st.buffer.get(), st.network.get(), st.order);
    BufferManager replay(cfg.buffer_pages);
    report->Set("storage.access_ns",
                NsPerCall(sequence.size(), min_s,
                          [&](size_t i) {
                            sink = sink + replay.Access(sequence[i].first,
                                                        sequence[i].second);
                          }),
                sequence.size());
  }

  if (!cfg.paged) {
    const ScopedSpan span("query.planner.routes");
    std::vector<const Op*> pairs;
    for (const Op& op : ops) {
      if (op.kind == Kind::kDistance) pairs.push_back(&op);
    }
    pairs.resize(std::min<size_t>(pairs.size(), 256));
    report->Set("query.planner.route_ns.labels",
                NsPerCall(pairs.size(), min_s,
                          [&](size_t i) {
                            sink = sink + RoutedNodeDistance(
                                              *st.index, pairs[i]->node,
                                              pairs[i]->target);
                          }),
                pairs.size());
    // Link chasing only reaches objects, so the chase route runs from each
    // pair's source to that source's nearest object (the type-1 1-NN, whose
    // distance it must reproduce bit for bit).
    std::vector<uint32_t> nearest(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      const KnnResult nn =
          SignatureKnnQuery(*st.index, pairs[i]->node, 1, KnnResultType::kType1);
      if (nn.objects.empty()) continue;
      nearest[i] = nn.objects[0];
      if (ExactDistance(*st.index, pairs[i]->node, nearest[i]) !=
          nn.distances[0]) {
        std::fprintf(stderr, "dsigbench: ORACLE MISMATCH chase from %u\n",
                     pairs[i]->node);
        ++*mismatches;
      }
    }
    report->Set("query.planner.route_ns.chase",
                NsPerCall(pairs.size(), min_s,
                          [&](size_t i) {
                            sink = sink + ExactDistance(*st.index,
                                                        pairs[i]->node,
                                                        nearest[i]);
                          }),
                pairs.size(), "guided backtracking, pair source -> its 1-NN");
    // Bounded Dijkstra is ~1000x slower: a few pairs, and each must agree
    // with the label route bit for bit.
    const size_t few = std::min<size_t>(pairs.size(), cfg.nodes > 5000 ? 16 : 4);
    const NoLabelsOverride no_labels;
    report->Set("query.planner.route_ns.dijkstra",
                NsPerCall(few, 0.05,
                          [&](size_t i) {
                            const Weight d = RoutedNodeDistance(
                                *st.index, pairs[i]->node, pairs[i]->target);
                            if (d != pairs[i]->expected) ++*mismatches;
                            sink = sink + d;
                          }),
                few);
  }
}

}  // namespace

void RunInproc(const Args& args, RunOutcome* out) {
  const Config cfg = MakeConfig(args);
  Report& report = out->report;
  ThreadPool pool(cfg.threads - 1);

  // The op stream depends on the dataset and the seed only. It is drawn on a
  // network of its own before any deployment, so its Dijkstra band tables
  // are freed (and trimmed) before the first deployment's memory is read.
  std::vector<Op> ops;
  {
    const RoadNetwork graph =
        MakeRandomPlanar({.num_nodes = cfg.nodes, .seed = kDatasetSeed});
    ops = MakeOps(cfg, graph, args.seed);
  }
  malloc_trim(0);

  // Oracle sample: the first oracle_per_kind ops of each kind; their answers
  // are kept on first execution and checked after the timed windows.
  std::vector<bool> sampled(ops.size(), false);
  std::vector<Answer> answers(ops.size());
  size_t per_kind[kNumKinds] = {};
  for (size_t i = 0; i < ops.size(); ++i) {
    size_t& n = per_kind[static_cast<int>(ops[i].kind)];
    if (n < cfg.oracle_per_kind) {
      sampled[i] = true;
      ++n;
    }
  }

  // Set up from scratch several times, each deployment followed by its own
  // slice of the timed window. Medians across the slices damp a slow phase
  // of a shared machine that would otherwise shift a whole run. The last
  // deployment also serves the traced window and the layer timings.
  std::unique_ptr<State> st;
  std::vector<double> setup_s, graph_s, ccam_s, index_s, labels_s;
  std::vector<Window> segments;
  size_t cursor = 0;
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  // peak_rss_mb is the first deployment's high-water mark, from just before
  // its set-up to the end of its warm-up: the program's memory, read before
  // the benchmark has stored a single sample.
  const bool rss_reset = ResetPeakRss();
  double peak_rss = 0;
  for (int r = 0; r < cfg.setups; ++r) {
    st.reset();
    const uint64_t t0 = NowNs();
    st = Setup(cfg, &pool);
    const double built_s = SecondsSince(t0);
    if (r == 0) SetRadii(cfg, BandRadii(*st->index), &ops);  // not charged
    // Warm-up on the tail of the op list (the timed window starts at the
    // head), charged to set-up.
    const uint64_t w0 = NowNs();
    {
      const ScopedSpan span("warmup");
      const size_t warm = std::min(cfg.warm_ops, ops.size());
      RunBatch(
          warm,
          [&](size_t j) {
            Execute(cfg, *st->index, ops[ops.size() - warm + j], nullptr);
          },
          BatchOptions{.pool = &pool});
    }
    setup_s.push_back(built_s + SecondsSince(w0));
    if (r == 0) peak_rss = PeakRssMb();
    graph_s.push_back(st->graph_s);
    ccam_s.push_back(st->ccam_s);
    index_s.push_back(st->index_s);
    labels_s.push_back(st->labels_s);
    segments.push_back(RunWindow(cfg, *st, ops, &pool,
                                 untraced_s / cfg.setups, false, &cursor,
                                 sampled, &answers));
  }
  const size_t n_setups = setup_s.size();
  report.Set("setup_s", Median(setup_s), n_setups, "median of set-ups");
  report.Set("build.graph_s", Median(graph_s), n_setups);
  report.Set("build.ccam_s", Median(ccam_s), n_setups);
  report.Set("build.index_s", Median(index_s), n_setups);
  report.Set("core.labels.build_s", Median(labels_s), n_setups);

  Window w;  // all segments together, for counts and tails
  std::vector<double> rates;
  for (const Window& seg : segments) {
    Absorb(seg, &w);
    rates.push_back(Median(seg.batch_rates));
  }
  // Throughput: per segment the median batch rate, so a burst of outside
  // load moves a few batches, not the figure; then the median segment.
  const double throughput = Median(rates);
  Window traced;
  if (args.trace) {
    traced = RunWindow(cfg, *st, ops, &pool, args.seconds / 2, true, &cursor,
                       sampled, &answers);
  }

  // End-to-end.
  const uint64_t labels_bytes = st->labels ? st->labels->stats().bytes : 0;
  report.Set("throughput_ops", throughput, w.ops,
             "median of " + std::to_string(segments.size()) +
                 " segment medians of batch rates");
  report.SetQuantile("latency_p50_ms", SegmentMedian(segments, -1));
  report.SetQuantile("latency_p99_ms", w.all.Tail(0.99));
  report.SetQuantile("knn_p50_ms",
                     SegmentMedian(segments, static_cast<int>(Kind::kKnn)));
  report.SetQuantile("range_p50_ms",
                     SegmentMedian(segments, static_cast<int>(Kind::kRange)));
  report.Set("index_mb",
             static_cast<double>(st->index->IndexBytes() + labels_bytes) /
                 (1024.0 * 1024.0));
  report.Set("peak_rss_mb", peak_rss, 1,
             rss_reset ? "VmHWM over the first set-up and warm-up"
                       : "process VmHWM up to the first warm-up's end");

  // Per-layer, from the untraced window.
  const double cpu_s = w.usage.user_s + w.usage.sys_s;
  report.Set("query.batch.cpu_per_wall", cpu_s / w.wall_s, w.ops);
  report.Set("query.batch.sys_cpu_share", cpu_s > 0 ? w.usage.sys_s / cpu_s : 0,
             w.ops);
  report.Set("query.batch.ctx_switches_per_op",
             PerOp(w.usage.ctx_switches, w.ops), w.ops);
  report.Set("core.row_reads_per_op", PerOp(w.counters.row_reads, w.ops), w.ops);
  report.Set("core.entry_reads_per_op", PerOp(w.counters.entry_reads, w.ops),
             w.ops);
  report.Set("core.resolves_per_op", PerOp(w.counters.resolves, w.ops), w.ops);
  report.Set("core.backtrack_steps_per_op",
             PerOp(w.counters.backtrack_steps, w.ops), w.ops);
  report.Set("core.approx_compares_per_op",
             PerOp(w.counters.approx_compares, w.ops), w.ops);
  report.Set("core.decode_fallbacks",
             static_cast<double>(w.counters.decode_fallbacks), w.ops);
  report.Set("query.planner.label_distances_per_op",
             PerOp(w.counters.label_distances, w.ops), w.ops);
  report.Set("query.planner.label_demotions_per_op",
             PerOp(w.counters.label_demotions, w.ops), w.ops);
  const uint64_t lookups = w.rowcache_hits + w.rowcache_misses;
  report.Set("core.rowcache_hit_rate",
             lookups == 0 ? 0 : PerOp(w.rowcache_hits, lookups), lookups);
  report.Set("core.rowcache_evictions_per_op",
             PerOp(w.rowcache_evictions, w.ops), w.ops);
  if (cfg.paged) {
    // The shared LRU makes these depend on thread interleaving: the note
    // carries the per-deployment values as their spread.
    std::string pages = "per deployment:", hits = "per deployment:";
    for (const Window& seg : segments) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %.2f",
                    PerOp(seg.buffer.physical_accesses, seg.ops));
      pages += buf;
      std::snprintf(buf, sizeof(buf), " %.4f",
                    1.0 - PerOp(seg.buffer.physical_accesses,
                                seg.buffer.logical_accesses));
      hits += buf;
    }
    report.Set("storage.pages_per_op", PerOp(w.buffer.physical_accesses, w.ops),
               w.ops, pages);
    report.Set("storage.hit_rate",
               1.0 - PerOp(w.buffer.physical_accesses,
                           w.buffer.logical_accesses),
               w.buffer.logical_accesses, hits);
  }
  report.Set("core.labels.bytes", static_cast<double>(labels_bytes));
  report.SetQuantile("aggregate_p50_ms",
                     SegmentMedian(segments, static_cast<int>(Kind::kCount)));
  report.SetQuantile("distance_p50_ms",
                     SegmentMedian(segments, static_cast<int>(Kind::kDistance)));

  if (args.trace) {
    const double n = static_cast<double>(std::max<uint64_t>(traced.traced_ops, 1));
    auto phase = [&](obs::Phase p) {
      return traced.phase_ms[static_cast<int>(p)] / n;
    };
    report.Set("storage.buffer_io_ms_per_op", phase(obs::Phase::kBufferIo),
               traced.traced_ops);
    report.Set("core.row_decode_ms_per_op", phase(obs::Phase::kRowDecode),
               traced.traced_ops);
    report.Set("core.resolve_ms_per_op", phase(obs::Phase::kResolve),
               traced.traced_ops);
    report.Set("core.backtrack_ms_per_op", phase(obs::Phase::kBacktrack),
               traced.traced_ops);
    report.Set("core.sort_ms_per_op", phase(obs::Phase::kSort),
               traced.traced_ops);
    const double traced_tput = Median(traced.batch_rates);
    report.Set("trace.overhead_ratio", throughput / traced_tput, traced.ops,
               "untraced / traced throughput");
  }

  // Correctness gate, outside the timed windows.
  uint64_t mismatches = CheckAnswers(cfg, *st, ops, sampled, &answers,
                                     args.falsify, &out->oracle_checked);
  if (args.trace) MeasureLayers(cfg, *st, ops, &report, &mismatches);

  out->attempted = w.ops + traced.ops + out->oracle_checked;
  out->failed = w.failed + traced.failed + w.counters.decode_fallbacks +
                traced.counters.decode_fallbacks + mismatches;
  out->oracle_mismatches = mismatches;
  const double failed_ratio =
      static_cast<double>(out->failed) / static_cast<double>(out->attempted);
  report.Set("ok_ratio", 1.0 - failed_ratio, out->attempted);
  report.Set("failed_ratio", failed_ratio, out->attempted);

  out->env["nodes"] = std::to_string(st->graph->num_nodes());
  out->env["objects"] = std::to_string(st->index->num_objects());
  out->env["threads"] = std::to_string(cfg.threads);
  out->env["loop"] = "closed";
  out->env["paged_storage"] = cfg.paged ? "separate schema, CCAM" : "none";
  out->env["buffer_pages"] = cfg.paged ? std::to_string(cfg.buffer_pages) : "0";
  out->env["rowcache_bytes"] =
      std::to_string(st->index->row_cache().options().byte_budget);
  out->env["labels"] = st->labels ? "present" : "absent";
  out->env["labels_stale"] =
      st->labels && st->labels->stale() ? "true" : "false";
  out->env["knn"] = cfg.knn_type == KnnResultType::kType1 ? "type1 k=10"
                                                          : "type3 k=10";
}

}  // namespace dsigbench
