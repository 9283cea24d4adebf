// E5 — Figure 6.6: kNN query performance vs k.
//
// Type-3 kNN with k in {1, 5, 10, 20, 50} on p = 0.01; page accesses and
// clock time per query for full index, NVD (VN3), signature, and INE.
//
// Expected shape: full ~independent of k; NVD wins k=1 but degrades sharply
// (x50+ pages k=1 -> 50 in the paper); signature grows moderately (~x8).
//
// Two hot-path exhibits ride along:
//  * knn_vs_threads — the same signature workload through the parallel batch
//    driver (query/batch.h) with a private ThreadPool per point, up to
//    --threads workers (default 4); records batch wall time, queries/s and
//    process CPU/wall from getrusage. Every page touch goes through the one
//    shared BufferManager lock, so this sweep measures that lock as much as
//    the query path. CPU/wall is how many cores the batch kept busy: a flat
//    speedup with CPU/wall near 1 means the workers mostly wait on the lock;
//    CPU/wall well above the speedup means they burn cycles contending.
//  * knn_rowcache — a repeated-querier workload (a few queriers re-asking
//    from the same nodes) with the decoded-row cache disabled vs enabled,
//    recording the per-query time and the cache hit rate per point.
#include "bench/bench_common.h"

#include <sys/resource.h>

#include <cmath>
#include <limits>

#include "core/row_cache.h"
#include "query/batch.h"
#include "query/knn_query.h"
#include "util/simd/simd.h"
#include "util/thread_pool.h"

namespace {

using namespace dsig;
using namespace dsig::bench;

// User + system CPU seconds of the whole process, all threads.
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (!ApplyObsFlags(flags)) return 1;
  const size_t nodes = static_cast<size_t>(flags.GetInt("nodes", 20000));
  const size_t num_queries = static_cast<size_t>(flags.GetInt("queries", 100));
  const size_t buffer_pages =
      static_cast<size_t>(flags.GetInt("buffer", 256));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  BenchJson json(flags, "knn");
  json.SetParam("nodes", static_cast<double>(nodes));
  json.SetParam("queries", static_cast<double>(num_queries));
  json.SetParam("buffer_pages", static_cast<double>(buffer_pages));
  json.SetParam("seed", static_cast<double>(seed));
  json.SetParam("density", "0.01");

  std::printf("=== Figure 6.6: kNN search, k = 1..50, p = 0.01 ===\n");
  std::printf("%zu nodes (paper: 183,231), %zu type-3 queries/point\n\n",
              nodes, num_queries);

  Workbench w = Workbench::Create(nodes, seed, buffer_pages);
  const std::vector<NodeId> objects =
      MakeDataset(*w.graph, {"0.01", 0.01, false}, seed + 1);
  const std::vector<NodeId> queries =
      RandomQueryNodes(*w.graph, num_queries, seed + 2);

  const auto signature = BuildSignatureIndex(
      *w.graph, objects, {.t = 10, .c = 2.718281828, .keep_forest = false});
  signature->AttachStorage(w.buffer.get(), w.network.get(), w.order);
  const auto full = FullIndex::Build(*w.graph, objects);
  full->AttachStorage(w.buffer.get(), w.order);
  Vn3Index vn3(*w.graph, objects);
  vn3.AttachStorage(w.buffer.get());
  const IneSearch ine(w.graph.get(), objects, w.network.get());

  TablePrinter pages({"k", "Full", "NVD", "Signature", "INE"});
  TablePrinter times(
      {"k", "Full (ms)", "NVD (ms)", "Signature (ms)", "INE (ms)"});
  for (const size_t k : {1u, 5u, 10u, 20u, 50u}) {
    const std::string x = std::to_string(k);
    const Measurement mf = MeasureItems(w.buffer.get(), queries, [&](NodeId q) {
      full->KnnQuery(q, k);
    });
    const Measurement mv = MeasureItems(w.buffer.get(), queries, [&](NodeId q) {
      vn3.Knn(q, k);
    });
    const Measurement ms = MeasureItems(w.buffer.get(), queries, [&](NodeId q) {
      SignatureKnnQuery(*signature, q, k, KnnResultType::kType3);
    });
    const Measurement mi = MeasureItems(w.buffer.get(), queries, [&](NodeId q) {
      ine.Knn(q, k);
    });
    json.Add("knn_vs_k", "Full", x, mf);
    json.Add("knn_vs_k", "NVD", x, mv);
    json.Add("knn_vs_k", "Signature", x, ms);
    json.Add("knn_vs_k", "INE", x, mi);
    pages.AddRow({x, Fmt("%.1f", mf.pages_per_item),
                  Fmt("%.1f", mv.pages_per_item), Fmt("%.1f", ms.pages_per_item),
                  Fmt("%.1f", mi.pages_per_item)});
    times.AddRow({x, Fmt("%.3f", mf.mean_ms), Fmt("%.3f", mv.mean_ms),
                  Fmt("%.3f", ms.mean_ms), Fmt("%.3f", mi.mean_ms)});
  }
  std::printf("--- (a) page accesses/query ---\n");
  pages.Print();
  std::printf("\n--- (b) clock time/query ---\n");
  times.Print();
  std::printf(
      "\nExpected shape: Full flat; NVD best at k=1 then degrades sharply;\n"
      "Signature grows ~8x from k=1 to k=50 (paper) vs NVD's 50-170x.\n");

  // --- (c) parallel batch driver: thread-count sweep ------------------------
  const size_t max_threads =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt("threads", 4)));
  json.SetParam("max_threads", static_cast<double>(max_threads));
  const size_t batch_k = 10;
  TablePrinter thread_table(
      {"threads", "batch (ms)", "queries/s", "speedup", "CPU/wall"});
  double serial_batch_ms = 0;
  for (size_t t = 1; t <= max_threads; t *= 2) {
    ThreadPool pool(t);
    const double cpu_before_s = ProcessCpuSeconds();
    const Timer wall;
    const Measurement m = MeasureOnce(w.buffer.get(), [&] {
      BatchKnnQuery(*signature, queries, batch_k, KnnResultType::kType3,
                    {.pool = &pool});
    });
    const double wall_s = wall.ElapsedSeconds();
    const double cpu_per_wall =
        wall_s > 0 ? (ProcessCpuSeconds() - cpu_before_s) / wall_s : 0;
    const double batch_ms = m.mean_ms;  // one item == the whole batch
    if (t == 1) serial_batch_ms = batch_ms;
    const double speedup = batch_ms > 0 ? serial_batch_ms / batch_ms : 0;
    const double qps =
        batch_ms > 0 ? 1000.0 * static_cast<double>(queries.size()) / batch_ms
                     : 0;
    auto* point =
        json.Add("knn_vs_threads", "Signature", std::to_string(t), m);
    if (point != nullptr) {
      point->metrics["batch_ms"] = batch_ms;
      point->metrics["queries_per_second"] = qps;
      point->metrics["speedup_vs_1"] = speedup;
      point->metrics["cpu_per_wall"] = cpu_per_wall;
    }
    thread_table.AddRow({std::to_string(t), Fmt("%.2f", batch_ms),
                         Fmt("%.0f", qps), Fmt("%.2f", speedup),
                         Fmt("%.2f", cpu_per_wall)});
  }
  std::printf(
      "\n--- (c) batch kNN vs threads (k = %zu), through the shared "
      "BufferManager lock ---\n",
      batch_k);
  thread_table.Print();

  // --- (d) decoded-row cache on a repeated-querier workload -----------------
  // A handful of queriers each re-ask kNN from their own node several times
  // (the paper's motivating navigation clients). With the cache disabled
  // every repeat re-decodes the same compressed rows; with it enabled the
  // repeats hit resolved rows.
  std::vector<NodeId> repeated;
  {
    const size_t queriers = std::min<size_t>(8, queries.size());
    const size_t repeats = 16;
    for (size_t r = 0; r < repeats; ++r) {
      for (size_t i = 0; i < queriers; ++i) repeated.push_back(queries[i]);
    }
  }
  auto* reg = &obs::MetricsRegistry::Global();
  TablePrinter cache_table({"row cache", "ms/query", "hit rate"});
  for (const bool enabled : {false, true}) {
    signature->ConfigureRowCache(
        {.byte_budget = enabled ? RowCache::Options().byte_budget : 0});
    const uint64_t hits0 = reg->GetCounter("rowcache.hits")->Value();
    const uint64_t misses0 = reg->GetCounter("rowcache.misses")->Value();
    const Measurement m =
        MeasureItems(w.buffer.get(), repeated, [&](NodeId q) {
          SignatureKnnQuery(*signature, q, batch_k, KnnResultType::kType3);
        });
    const double hits =
        static_cast<double>(reg->GetCounter("rowcache.hits")->Value() - hits0);
    const double misses = static_cast<double>(
        reg->GetCounter("rowcache.misses")->Value() - misses0);
    const double hit_rate =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    const char* label = enabled ? "enabled" : "disabled";
    auto* point = json.Add("knn_rowcache", label, std::to_string(batch_k), m);
    if (point != nullptr) {
      point->metrics["hit_rate"] = hit_rate;
      point->metrics["cache_bytes"] =
          static_cast<double>(signature->row_cache().bytes());
    }
    cache_table.AddRow(
        {label, Fmt("%.3f", m.mean_ms), Fmt("%.3f", hit_rate)});
  }
  std::printf("\n--- (d) repeated queriers, row cache off/on (k = %zu) ---\n",
              batch_k);
  cache_table.Print();
  PublishRowCacheMetrics();

  // --- (e) SIMD dispatch A/B: same workload at every compiled level --------
  // Warm buffer (so decode/compute, not page I/O, is what differs), row
  // cache on, levels interleaved in-process (MeasureDispatchLevels). The
  // kernel share of a query grows with object density — p = 0.01 is the
  // figure's dataset, p = 0.05 the paper's densest — so both are measured.
  {
    Workbench ab =
        Workbench::Create(nodes, seed, std::max<size_t>(buffer_pages, 4096));
    const std::vector<NodeId> ab_queries =
        RandomQueryNodes(*ab.graph, num_queries, seed + 2);
    TablePrinter dispatch_table({"workload", "level", "ms/query",
                                 "vs scalar"});
    for (const double density : {0.01, 0.05}) {
      const std::vector<NodeId> ab_objects =
          UniformDataset(*ab.graph, density, seed + 1);
      const auto ab_index = BuildSignatureIndex(
          *ab.graph, ab_objects,
          {.t = 10, .c = 2.718281828, .keep_forest = false});
      ab_index->AttachStorage(ab.buffer.get(), ab.network.get(), ab.order);
      for (const size_t k : {10u, 50u}) {
        const std::string label =
            "k=" + std::to_string(k) + " p=" + Fmt("%.2f", density);
        MeasureDispatchLevels(
            &json, &dispatch_table, "knn_dispatch", label, ab.buffer.get(),
            ab_queries, [&](NodeId q) {
              SignatureKnnQuery(*ab_index, q, k, KnnResultType::kType3);
            });
      }
    }
    std::printf("\n--- (e) SIMD dispatch A/B, warm buffer (min of "
                "interleaved rounds) ---\n");
    std::printf("dispatch: %s\n", simd::CpuFeatureString().c_str());
    dispatch_table.Print();
  }

  json.Write();
  return 0;
}
