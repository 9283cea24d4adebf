// Differential tests of the exact-distance hub-label tier (core/hub_labels):
// every pairwise label distance must equal the Dijkstra ground truth — bit
// for bit, since the generators produce integer edge weights — on all three
// generator families, with serialization round-trips, the sticky stale
// latch, and structural verification catching tampering. The label merge
// itself is fuzzed against a brute-force min-plus reference.
#include "core/hub_labels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/graph_generator.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dsig {
namespace {

void ExpectMatchesDijkstra(const RoadNetwork& g, const HubLabels& labels,
                           const std::vector<NodeId>& roots) {
  for (const NodeId u : roots) {
    const ShortestPathTree tree = RunDijkstra(g, u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(labels.Distance(u, v), tree.dist[v])
          << "u=" << u << " v=" << v;
    }
  }
}

// O(an * bn) min-plus over every hub pair: the definition MergeLabels'
// two-pointer scan must reproduce.
Weight BruteForceMerge(const std::vector<uint32_t>& ah,
                       const std::vector<Weight>& ad,
                       const std::vector<uint32_t>& bh,
                       const std::vector<Weight>& bd) {
  Weight best = kInfiniteWeight;
  for (size_t i = 0; i < ah.size(); ++i) {
    for (size_t j = 0; j < bh.size(); ++j) {
      if (ah[i] == bh[j]) best = std::min(best, ad[i] + bd[j]);
    }
  }
  return best;
}

// Bit comparison, so +inf (no shared hub) must match exactly too.
void ExpectMergeMatches(const std::vector<uint32_t>& ah,
                        const std::vector<Weight>& ad,
                        const std::vector<uint32_t>& bh,
                        const std::vector<Weight>& bd) {
  const Weight want = BruteForceMerge(ah, ad, bh, bd);
  const Weight got = MergeLabels(ah.data(), ad.data(), ah.size(), bh.data(),
                                 bd.data(), bh.size());
  uint64_t want_bits, got_bits;
  std::memcpy(&want_bits, &want, sizeof want_bits);
  std::memcpy(&got_bits, &got, sizeof got_bits);
  ASSERT_EQ(got_bits, want_bits) << "an=" << ah.size() << " bn=" << bh.size()
                                 << " want=" << want << " got=" << got;
}

TEST(HubLabelsTest, MergeLabelsMatchesBruteForce) {
  Random rng(4242);
  std::vector<uint32_t> ah, bh;
  std::vector<Weight> ad, bd;
  // Strictly ascending hubs from `base`, gaps sized so a label of n hubs
  // spans about `universe` ranks; a small universe makes shared hubs dense,
  // a large one makes them rare (the no-shared-hub +inf path).
  const auto fill = [&](std::vector<uint32_t>* hubs, std::vector<Weight>* dist,
                        size_t n, uint64_t base, uint64_t universe) {
    hubs->clear();
    dist->clear();
    uint64_t next = base;
    while (hubs->size() < n) {
      next += 1 + rng.NextUint64(universe / (n + 1) + 1);
      if (next > UINT32_MAX) break;
      hubs->push_back(static_cast<uint32_t>(next));
      dist->push_back(static_cast<Weight>(rng.NextUint64(1000)));
    }
  };
  const size_t kSizes[] = {0,  1,  2,  3,   7,   15,  16,  17,  31,  32,
                           33, 47, 63, 64,  65,  100, 127, 128, 129, 255,
                           256, 257, 1000};
  // Bases at zero, straddling 2^31 (where a signed rank compare would flip
  // order) and at the top of the u32 range.
  const uint64_t kBases[] = {0, (uint64_t{1} << 31) - 200,
                             UINT32_MAX - 9000};
  for (const uint64_t base : kBases) {
    for (const size_t an : kSizes) {
      for (const size_t bn : kSizes) {
        for (int round = 0; round < 3; ++round) {
          const uint64_t universe = (round + 1) * 2 * (an + bn) + 16;
          fill(&ah, &ad, an, base, universe);
          fill(&bh, &bd, bn, base, universe);
          ExpectMergeMatches(ah, ad, bh, bd);
        }
      }
    }
  }

  // Empty labels on either or both sides: no shared hub.
  const std::vector<uint32_t> none;
  const std::vector<Weight> no_dist;
  ah = {1, 4, 9};
  ad = {2.0, 1.0, 0.5};
  ExpectMergeMatches(none, no_dist, none, no_dist);
  ExpectMergeMatches(ah, ad, none, no_dist);
  ExpectMergeMatches(none, no_dist, ah, ad);
  EXPECT_EQ(MergeLabels(ah.data(), ad.data(), 3, nullptr, nullptr, 0),
            kInfiniteWeight);

  // Disjoint labels, interleaved and one entirely above the other.
  bh = {0, 2, 3, 5, 8, 10};
  bd = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  ExpectMergeMatches(ah, ad, bh, bd);
  EXPECT_EQ(MergeLabels(ah.data(), ad.data(), ah.size(), bh.data(),
                        bd.data(), bh.size()),
            kInfiniteWeight);
  bh = {10, 11, 12};
  bd = {0.0, 0.0, 0.0};
  ExpectMergeMatches(ah, ad, bh, bd);

  // Identical labels across the signed boundary: the min over self-pairs.
  ah = {0u, 5u, 0x7FFFFFFEu, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu};
  ad = {3.0, 1.0, 2.0, 4.0, 0.75, 5.0};
  ExpectMergeMatches(ah, ad, ah, ad);
  EXPECT_EQ(MergeLabels(ah.data(), ad.data(), ah.size(), ah.data(),
                        ad.data(), ah.size()),
            1.5);
  // Only the ranks above 2^31 are shared.
  bh = {1u, 0x80000000u, 0xFFFFFFFFu};
  bd = {0.0, 0.25, 0.0};
  ExpectMergeMatches(ah, ad, bh, bd);
  EXPECT_EQ(MergeLabels(ah.data(), ad.data(), ah.size(), bh.data(),
                        bd.data(), bh.size()),
            1.0);
}

TEST(HubLabelsTest, MatchesDijkstraOnSevenNodeNetwork) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto labels = HubLabels::Build(g, {}, nullptr);
  ASSERT_NE(labels, nullptr);
  ASSERT_TRUE(labels->ready());
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) all[n] = n;
  ExpectMatchesDijkstra(g, *labels, all);
}

TEST(HubLabelsTest, MatchesDijkstraOnRandomPlanar) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 600, .seed = 7});
  const auto labels = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(labels->ready());
  ExpectMatchesDijkstra(g, *labels, testing_util::SampleNodes(g, 12, 7));
}

TEST(HubLabelsTest, MatchesDijkstraOnGrid) {
  const RoadNetwork g = MakeGrid({.width = 24, .height = 17});
  const auto labels = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(labels->ready());
  ExpectMatchesDijkstra(g, *labels, testing_util::SampleNodes(g, 10, 3));
}

TEST(HubLabelsTest, MatchesDijkstraOnClusteredContinental) {
  const RoadNetwork g =
      MakeClusteredContinental({.num_clusters = 4, .nodes_per_cluster = 120,
                                .seed = 19});
  const auto labels = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(labels->ready());
  ExpectMatchesDijkstra(g, *labels, testing_util::SampleNodes(g, 10, 19));
}

TEST(HubLabelsTest, DegreeOrderIsAlsoExact) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 31});
  HubLabels::BuildOptions options;
  options.order = HubLabels::BuildOptions::Order::kDegree;
  const auto labels = HubLabels::Build(g, options, nullptr);
  ASSERT_TRUE(labels->ready());
  ExpectMatchesDijkstra(g, *labels, testing_util::SampleNodes(g, 8, 31));
}

TEST(HubLabelsTest, LabelsAreCanonical) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = 5});
  const auto labels = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(labels->ready());
  ASSERT_EQ(labels->num_nodes(), g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const uint32_t* hubs = labels->hubs(n);
    const double* dists = labels->dists(n);
    const size_t len = labels->label_size(n);
    ASSERT_GT(len, 0u);
    // Strictly ascending hub ranks, non-negative finite distances, and the
    // node's own rank at distance 0 somewhere in the label.
    bool self_seen = false;
    for (size_t i = 0; i < len; ++i) {
      if (i > 0) {
        ASSERT_LT(hubs[i - 1], hubs[i]) << "node " << n;
      }
      ASSERT_GE(dists[i], 0.0);
      if (dists[i] == 0.0) self_seen = true;
    }
    ASSERT_TRUE(self_seen) << "node " << n;
    ASSERT_EQ(labels->Distance(n, n), 0.0);
  }
  EXPECT_TRUE(labels->VerifyStructure(g).ok());
  const HubLabelStats stats = labels->stats();
  EXPECT_EQ(stats.entries, [&] {
    uint64_t total = 0;
    for (NodeId n = 0; n < g.num_nodes(); ++n) total += labels->label_size(n);
    return total;
  }());
  EXPECT_GT(stats.avg_label_entries, 0.0);
  EXPECT_GT(stats.bytes, 0u);
  // Pruning is the whole point: far fewer entries than the quadratic
  // all-pairs labeling would store.
  EXPECT_LT(stats.entries, uint64_t{g.num_nodes()} * g.num_nodes() / 4);
}

TEST(HubLabelsTest, SerializeRoundTripsAndDecodesLazily) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 250, .seed = 13});
  const auto built = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(built->ready());
  const auto loaded = HubLabels::FromSerialized(built->Serialize());
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->stale());
  // First use triggers the decode; thereafter the two instances agree
  // everywhere, including the persisted planner seed.
  ASSERT_TRUE(loaded->ready());
  EXPECT_EQ(loaded->mean_edge_weight(), built->mean_edge_weight());
  EXPECT_EQ(loaded->stats().entries, built->stats().entries);
  for (const NodeId u : testing_util::SampleNodes(g, 6, 13)) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(loaded->Distance(u, v), built->Distance(u, v));
    }
  }
  EXPECT_TRUE(loaded->VerifyStructure(g).ok());
}

TEST(HubLabelsTest, CorruptBlobDegradesToNotReady) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto built = HubLabels::Build(g, {}, nullptr);
  std::vector<uint8_t> blob = built->Serialize();

  // Truncation, garbage magic, and bit flips in the payload must all yield
  // an unusable-but-safe instance, never a crash.
  std::vector<uint8_t> truncated(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_FALSE(HubLabels::FromSerialized(std::move(truncated))->ready());

  std::vector<uint8_t> bad_magic = blob;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(HubLabels::FromSerialized(std::move(bad_magic))->ready());

  EXPECT_FALSE(HubLabels::FromSerialized({})->ready());

  // An unusable instance answers every query with "unreachable".
  const auto broken = HubLabels::FromSerialized({1, 2, 3});
  EXPECT_EQ(broken->Distance(0, 1), kInfiniteWeight);
}

TEST(HubLabelsTest, VerifyStructureCatchesTampering) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 120, .seed = 17});
  const auto built = HubLabels::Build(g, {}, nullptr);
  ASSERT_TRUE(built->VerifyStructure(g).ok());

  // Wrong graph: node-count mismatch is structural, not sampled.
  const RoadNetwork small = testing_util::MakeSevenNodeNetwork();
  EXPECT_FALSE(built->VerifyStructure(small).ok());

  // A distance perturbation that keeps the blob well-formed (finite,
  // non-negative, still ascending hubs) must be caught by the structural
  // pass. Corrupt node 0's self-entry distance: blob layout is a 32-byte
  // header, 4n bytes of ranks, 8(n+1) of offsets, 4·entries of hubs, then
  // the distance pool, where node 0's label starts at offset 0.
  std::vector<uint8_t> blob = built->Serialize();
  const size_t n = built->num_nodes();
  const uint64_t entries = built->stats().entries;
  size_t p = 0;
  while (built->dists(0)[p] != 0) ++p;
  const size_t off = 32 + 4 * n + 8 * (n + 1) + 4 * entries + 8 * p;
  blob[off + 6] ^= 0x10;  // 0.0 -> 2^-1022: finite, positive, wrong
  const auto loaded = HubLabels::FromSerialized(std::move(blob));
  ASSERT_TRUE(loaded->ready());  // decode-time checks cannot see this
  EXPECT_FALSE(loaded->VerifyStructure(g).ok());
}

TEST(HubLabelsTest, StaleLatchIsSticky) {
  const RoadNetwork g = testing_util::MakeSevenNodeNetwork();
  const auto labels = HubLabels::Build(g, {}, nullptr);
  EXPECT_FALSE(labels->stale());
  labels->MarkStale();
  EXPECT_TRUE(labels->stale());
  labels->MarkStale();  // idempotent
  EXPECT_TRUE(labels->stale());
  // Staleness does not damage the data — it only gates routing.
  EXPECT_TRUE(labels->ready());
  EXPECT_EQ(labels->Distance(0, 1), 4.0);
}

TEST(HubLabelsTest, BuildIsDeterministicAcrossPools) {
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 200, .seed = 29});
  const auto serial = HubLabels::Build(g, {}, nullptr);
  const auto parallel = HubLabels::Build(g, {}, &ThreadPool::Global());
  ASSERT_TRUE(serial->ready());
  ASSERT_TRUE(parallel->ready());
  EXPECT_EQ(serial->Serialize(), parallel->Serialize());
}

}  // namespace
}  // namespace dsig
