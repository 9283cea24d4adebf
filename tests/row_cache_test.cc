// RowCache behavior: LRU eviction order, the byte budget, the keep-one rule,
// the disabled (budget 0) bypass — plus the regression the cache exists for:
// a working set one row over the old wholesale-wipe threshold must degrade by
// exactly one eviction, not lose everything. The index-level tests at the
// bottom check that updates invalidate cached resolved rows, and that rows
// recomputed after a decode failure live in (and are bounded by) the cache.
#include "core/row_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "core/distance_ops.h"
#include "core/signature_builder.h"
#include "core/update.h"
#include "graph/graph_generator.h"
#include "obs/op_counters.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

std::shared_ptr<const SignatureRow> MakeRow(size_t entries) {
  SignatureRow row(entries);
  return std::make_shared<const SignatureRow>(std::move(row));
}

// One shard makes LRU order across keys observable.
RowCache::Options SingleShard(size_t byte_budget) {
  return {.byte_budget = byte_budget, .num_shards = 1};
}

TEST(RowCacheTest, MissThenHit) {
  RowCache cache(SingleShard(1 << 20));
  EXPECT_EQ(cache.Get(7), nullptr);
  auto row = MakeRow(4);
  cache.Put(7, row);
  const auto got = cache.Get(7);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), row.get());
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(RowCacheTest, EvictsColdestFirst) {
  // Budget fits exactly 3 of these rows; inserting a 4th evicts the LRU one.
  const size_t row_bytes = 4 * sizeof(SignatureEntry) + 96;
  RowCache cache(SingleShard(3 * row_bytes));
  cache.Put(1, MakeRow(4));
  cache.Put(2, MakeRow(4));
  cache.Put(3, MakeRow(4));
  EXPECT_EQ(cache.entries(), 3u);
  // Touch 1 so 2 becomes the coldest.
  EXPECT_NE(cache.Get(1), nullptr);
  cache.Put(4, MakeRow(4));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.Get(2), nullptr);  // evicted
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(4), nullptr);
}

TEST(RowCacheTest, WorkingSetOneOverBudgetLosesExactlyOneRow) {
  // Regression: the pre-cache memo wiped EVERYTHING when full, so a working
  // set one row over the cap got a 0% hit rate. Now exactly one row goes.
  const size_t row_bytes = 8 * sizeof(SignatureEntry) + 96;
  const size_t w = 16;
  RowCache cache(SingleShard(w * row_bytes));
  for (NodeId n = 0; n < w; ++n) cache.Put(n, MakeRow(8));
  EXPECT_EQ(cache.entries(), w);
  // Touch the whole set (0 is now coldest again after the sweep).
  for (NodeId n = 0; n < w; ++n) EXPECT_NE(cache.Get(n), nullptr);
  cache.Put(w, MakeRow(8));  // one over budget
  EXPECT_EQ(cache.entries(), w);  // exactly one eviction...
  EXPECT_EQ(cache.Get(0), nullptr);  // ...of the coldest row
  for (NodeId n = 1; n <= w; ++n) {
    EXPECT_NE(cache.Get(n), nullptr) << "node " << n;
  }
}

TEST(RowCacheTest, StaysWithinByteBudget) {
  const size_t budget = 4096;
  RowCache cache(SingleShard(budget));
  for (NodeId n = 0; n < 200; ++n) cache.Put(n, MakeRow(16));
  EXPECT_LE(cache.bytes(), budget);
  EXPECT_GT(cache.entries(), 0u);
}

TEST(RowCacheTest, KeepsMostRecentRowEvenWhenOversized) {
  RowCache cache(SingleShard(64));  // smaller than any row
  cache.Put(1, MakeRow(1000));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Get(1), nullptr);
  cache.Put(2, MakeRow(1000));  // replaces 1 as the single survivor
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
}

TEST(RowCacheTest, ReplacingAKeyUpdatesBytes) {
  RowCache cache(SingleShard(1 << 20));
  cache.Put(5, MakeRow(10));
  const size_t small = cache.bytes();
  cache.Put(5, MakeRow(100));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), small);
  cache.Put(5, MakeRow(10));
  EXPECT_EQ(cache.bytes(), small);
}

TEST(RowCacheTest, EraseAndClear) {
  RowCache cache(SingleShard(1 << 20));
  cache.Put(1, MakeRow(4));
  cache.Put(2, MakeRow(4));
  cache.Erase(1);
  cache.Erase(99);  // absent: no-op
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(2), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Get(2), nullptr);
}

TEST(RowCacheTest, ZeroBudgetDisablesCaching) {
  RowCache cache(SingleShard(0));
  cache.Put(1, MakeRow(4));
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(RowCacheTest, ShardsPartitionTheBudget) {
  const size_t row_bytes = 4 * sizeof(SignatureEntry) + 96;
  RowCache cache({.byte_budget = 4 * row_bytes, .num_shards = 4});
  // All keys land in shard 0 (multiples of 4): only that shard's quarter of
  // the budget is available, so one row fits (plus the keep-one rule).
  cache.Put(0, MakeRow(4));
  cache.Put(4, MakeRow(4));
  cache.Put(8, MakeRow(4));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Get(8), nullptr);
}

// --- Index integration: updates invalidate cached resolved rows ------------

TEST(RowCacheIndexTest, EdgeUpdateInvalidatesCachedRows) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 400, .seed = 11});
  const std::vector<NodeId> objects = UniformDataset(g, 0.03, 11);
  auto index = BuildSignatureIndex(
      g, objects, {.t = 10, .c = 2.7, .keep_forest = true});
  ASSERT_GT(index->size_stats().compressed_entries, 0u)
      << "test needs compressed entries for the cache to be on the read path";

  // Warm the resolved-row cache by reading every (node, object) entry.
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ExactDistance(*index, n, o);
    }
  }
  ASSERT_GT(index->row_cache().entries(), 0u)
      << "warmup never populated the cache";

  // Mutate the graph through the updater; the rewritten rows must not be
  // served from stale cached copies.
  SignatureUpdater updater(&g, index.get());
  ASSERT_FALSE(g.adjacency(objects[0]).empty());
  const EdgeId edge = g.adjacency(objects[0])[0].edge_id;
  ASSERT_NE(edge, kInvalidEdge);
  updater.SetEdgeWeight(edge, 1);

  const auto truth = testing_util::BruteForceDistances(g, objects);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ASSERT_EQ(ExactDistance(*index, n, o), truth[o][n])
          << "stale distance at node " << n << " object " << o;
    }
  }
}

TEST(RowCacheIndexTest, ConfigureRowCacheZeroBudgetStillAnswersCorrectly) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 12});
  const std::vector<NodeId> objects = UniformDataset(g, 0.03, 12);
  auto index = BuildSignatureIndex(g, objects, {.t = 10, .c = 2.7});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  index->ConfigureRowCache({.byte_budget = 0});
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    for (uint32_t o = 0; o < objects.size(); ++o) {
      ASSERT_EQ(ExactDistance(*index, n, o), truth[o][n]);
    }
  }
  EXPECT_EQ(index->row_cache().entries(), 0u);
}

// Drops node n's stored bytes while keeping its declared size: neither the
// row decoder nor the single-entry decoder can read it, so every read of
// the row, and of any entry in it, takes the fallback path.
void TruncateRow(SignatureIndex* index, NodeId n) {
  index->mutable_encoded_row(n).bytes.clear();
}

TEST(RowCacheIndexTest, ZeroBudgetFallbackRowsStayExact) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 31});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 31);
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  const auto truth = testing_util::BruteForceDistances(g, objects);
  index->ConfigureRowCache({.byte_budget = 0});
  const Weight epsilon = index->partition().Midpoint(2);

  for (const NodeId n : testing_util::SampleNodes(g, 6, 31)) {
    const SignatureRow pristine = index->ReadRow(n);
    TruncateRow(index.get(), n);
    const OpCounters before = GlobalOpCounters();

    std::vector<Weight> nearest;
    std::vector<uint32_t> in_range;
    for (uint32_t o = 0; o < objects.size(); ++o) {
      nearest.push_back(truth[o][n]);
      if (truth[o][n] <= epsilon) in_range.push_back(o);
      EXPECT_EQ(index->ReadEntry(n, o).category, pristine[o].category)
          << "node " << n << " object " << o;
      EXPECT_NEAR(ExactDistance(*index, n, o), truth[o][n], 1e-9);
    }
    std::sort(nearest.begin(), nearest.end());
    nearest.resize(5);
    const KnnResult knn =
        SignatureKnnQuery(*index, n, 5, KnnResultType::kType1);
    ASSERT_EQ(knn.distances.size(), nearest.size());
    for (size_t i = 0; i < nearest.size(); ++i) {
      EXPECT_NEAR(knn.distances[i], nearest[i], 1e-9) << "node " << n;
    }
    EXPECT_EQ(SignatureRangeQuery(*index, n, epsilon).objects, in_range)
        << "node " << n;

    // Nothing is cached, so every read of the row recomputed it.
    const OpCounters delta = GlobalOpCounters() - before;
    EXPECT_GE(delta.decode_fallbacks, objects.size() + 2) << "node " << n;
  }
  EXPECT_EQ(index->row_cache().entries(), 0u);
  EXPECT_EQ(index->row_cache().bytes(), 0u);
}

TEST(RowCacheIndexTest, FallbackRowsAreBoundedByTheBudget) {
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 32});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 32);
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  constexpr size_t kBudget = 2048;
  constexpr NodeId kCorrupt = 40;  // rows of ~140 bytes: far over budget
  index->ConfigureRowCache({.byte_budget = kBudget, .num_shards = 1});
  for (NodeId n = 0; n < kCorrupt; ++n) TruncateRow(index.get(), n);

  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* const misses = registry.GetCounter("rowcache.misses");
  for (int pass = 0; pass < 2; ++pass) {
    const OpCounters before = GlobalOpCounters();
    const uint64_t misses0 = misses->Value();
    for (NodeId n = 0; n < kCorrupt; ++n) index->ReadRow(n);
    const OpCounters delta = GlobalOpCounters() - before;
    // A sequential sweep over more rows than fit recomputes every one of
    // them, pass after pass, and each recompute is a counted fallback.
    EXPECT_EQ(delta.decode_fallbacks, kCorrupt) << "pass " << pass;
    EXPECT_EQ(misses->Value() - misses0, kCorrupt) << "pass " << pass;
    EXPECT_LE(index->row_cache().bytes(), kBudget);
    EXPECT_GT(index->row_cache().entries(), 0u);
    EXPECT_LT(index->row_cache().entries(), kCorrupt);
    EXPECT_EQ(registry.GetGauge("rowcache.bytes")->Value(),
              static_cast<double>(index->row_cache().bytes()));
  }
  // A cached fallback row answers without recomputing.
  const OpCounters before = GlobalOpCounters();
  index->ReadRow(kCorrupt - 1);
  EXPECT_EQ((GlobalOpCounters() - before).decode_fallbacks, 0u);
}

TEST(RowCacheIndexTest, ConcurrentFallbackReadsAgree) {
  // Readers race to recompute, cache and evict the same fallback rows; each
  // read must still see the row the graph implies.
  RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 33});
  const std::vector<NodeId> objects = UniformDataset(g, 0.05, 33);
  auto index = BuildSignatureIndex(g, objects, {.t = 5, .c = 2});
  constexpr NodeId kCorrupt = 24;
  std::vector<SignatureRow> pristine;
  for (NodeId n = 0; n < kCorrupt; ++n) pristine.push_back(index->ReadRow(n));
  index->ConfigureRowCache({.byte_budget = 2048, .num_shards = 2});
  for (NodeId n = 0; n < kCorrupt; ++n) TruncateRow(index.get(), n);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (NodeId i = 0; i < kCorrupt; ++i) {
          const NodeId n = (i + static_cast<NodeId>(t) * 7) % kCorrupt;
          const SignatureRow row = index->ReadRow(n);
          for (size_t o = 0; o < row.size(); ++o) {
            if (row[o].category != pristine[n][o].category) ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(index->row_cache().bytes(), 2048u);
}

}  // namespace
}  // namespace dsig
