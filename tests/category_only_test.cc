// QueryMode::kCategoryOnly, pinned against a test-local reference.
//
// The reference below restates the documented category-only rules directly
// on a plain SignatureRow, with none of the processors' machinery (bucket
// counts, vector extraction, contiguous keep-bands):
//   * kNN: objects ordered by category, ascending object index inside a
//     category, cut to k; each distance is its category's midpoint;
//   * range: category ub <= epsilon joins, lb > epsilon is dropped, and a
//     straddling object (counted in `refined`) joins when its midpoint
//     <= epsilon;
//   * join: co-located pairs join; pairs whose triangle lower bound on the
//     category ranges exceeds epsilon are pruned (counted); pairs whose
//     upper bound ub_a + ub_b <= epsilon join; every other pair joins when
//     the sum of the two midpoints <= epsilon.
// The processors must agree with it bit for bit: objects, order, distances,
// counters and pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/signature_builder.h"
#include "graph/graph_generator.h"
#include "query/join_query.h"
#include "query/knn_query.h"
#include "query/range_query.h"
#include "tests/test_util.h"
#include "workload/dataset_generator.h"

namespace dsig {
namespace {

KnnResult ReferenceKnn(const SignatureIndex& index, NodeId n, size_t k) {
  const SignatureRow row = index.ReadRow(n);
  std::vector<uint32_t> order(row.size());
  for (uint32_t o = 0; o < row.size(); ++o) order[o] = o;
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return row[a].category < row[b].category;
  });
  KnnResult result;
  for (size_t i = 0; i < std::min(k, order.size()); ++i) {
    result.objects.push_back(order[i]);
    result.distances.push_back(
        index.partition().Midpoint(row[order[i]].category));
  }
  return result;
}

RangeQueryResult ReferenceRange(const SignatureIndex& index, NodeId n,
                                Weight epsilon) {
  const SignatureRow row = index.ReadRow(n);
  const CategoryPartition& partition = index.partition();
  RangeQueryResult result;
  for (uint32_t o = 0; o < row.size(); ++o) {
    const DistanceRange range = partition.RangeOf(row[o].category);
    if (range.ub != kInfiniteWeight && range.ub <= epsilon) {
      result.objects.push_back(o);
    } else if (range.lb <= epsilon) {
      ++result.refined;
      if (partition.Midpoint(row[o].category) <= epsilon) {
        result.objects.push_back(o);
      }
    }
  }
  return result;
}

JoinResult ReferenceJoin(const SignatureIndex& left,
                         const SignatureIndex& right, NodeId n,
                         Weight epsilon) {
  const SignatureRow left_row = left.ReadRow(n);
  const SignatureRow right_row = right.ReadRow(n);
  const CategoryPartition& lp = left.partition();
  const CategoryPartition& rp = right.partition();
  JoinResult result;
  for (uint32_t a = 0; a < left_row.size(); ++a) {
    const DistanceRange ra = lp.RangeOf(left_row[a].category);
    for (uint32_t b = 0; b < right_row.size(); ++b) {
      if (left.object_node(a) == right.object_node(b)) {
        result.pairs.push_back({a, b});
        continue;
      }
      const DistanceRange rb = rp.RangeOf(right_row[b].category);
      Weight lower = 0;
      if (ra.ub != kInfiniteWeight) lower = std::max(lower, rb.lb - ra.ub);
      if (rb.ub != kInfiniteWeight) lower = std::max(lower, ra.lb - rb.ub);
      if (lower > epsilon) {
        ++result.pruned_by_categories;
      } else if (ra.ub != kInfiniteWeight && rb.ub != kInfiniteWeight &&
                 ra.ub + rb.ub <= epsilon) {
        result.pairs.push_back({a, b});
      } else if (lp.Midpoint(left_row[a].category) +
                     rp.Midpoint(right_row[b].category) <=
                 epsilon) {
        result.pairs.push_back({a, b});
      }
    }
  }
  return result;
}

// Every category bound and midpoint (exact ties for the range rules), plus
// a value strictly inside each category.
std::vector<Weight> RangeEpsilons(const CategoryPartition& partition) {
  std::vector<Weight> eps = {0};
  for (int c = 0; c < partition.num_categories(); ++c) {
    const DistanceRange r = partition.RangeOf(c);
    eps.push_back(r.lb);
    eps.push_back(partition.Midpoint(c));
    if (r.ub != kInfiniteWeight) {
      eps.push_back(r.ub);
      eps.push_back(r.lb + (r.ub - r.lb) / 3);
    }
  }
  return eps;
}

// Sums of bounds and of midpoints (exact ties for the join rules), plus the
// range values above.
std::vector<Weight> JoinEpsilons(const CategoryPartition& partition) {
  std::vector<Weight> eps = RangeEpsilons(partition);
  const int m = partition.num_categories();
  for (int c = 0; c < m; ++c) {
    for (int d = c; d < m; ++d) {
      eps.push_back(partition.Midpoint(c) + partition.Midpoint(d));
      if (partition.UpperBound(d) != kInfiniteWeight) {
        eps.push_back(partition.UpperBound(c) + partition.UpperBound(d));
        eps.push_back(partition.UpperBound(d) - partition.LowerBound(c));
      }
    }
  }
  return eps;
}

void ExpectSamePairs(const JoinResult& got, const JoinResult& want) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size());
  for (size_t i = 0; i < got.pairs.size(); ++i) {
    EXPECT_EQ(got.pairs[i].left, want.pairs[i].left) << "pair " << i;
    EXPECT_EQ(got.pairs[i].right, want.pairs[i].right) << "pair " << i;
  }
  EXPECT_EQ(got.pruned_by_categories, want.pruned_by_categories);
  EXPECT_EQ(got.exact_evaluations, 0u);
  EXPECT_FALSE(got.deadline_exceeded);
}

class CategoryOnlyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CategoryOnlyTest, MatchesReference) {
  const uint64_t seed = GetParam();
  const RoadNetwork g = MakeRandomPlanar({.num_nodes = 300, .seed = seed});
  const auto index = BuildSignatureIndex(g, UniformDataset(g, 0.06, seed),
                                         {.t = 5, .c = 2, .compress = true});
  const auto other = BuildSignatureIndex(
      g, UniformDataset(g, 0.04, seed + 100), {.t = 4, .c = 2.5});
  const size_t num_objects = index->num_objects();
  std::vector<NodeId> nodes = testing_util::SampleNodes(g, 12, seed);
  nodes.push_back(index->object_node(0));  // the query sits on an object

  for (const NodeId n : nodes) {
    for (const size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                           size_t{8}, num_objects, num_objects + 3}) {
      const KnnResult want = ReferenceKnn(*index, n, k);
      for (const KnnResultType type :
           {KnnResultType::kType1, KnnResultType::kType2,
            KnnResultType::kType3}) {
        const KnnResult got = SignatureKnnQuery(*index, n, k, type,
                                                QueryMode::kCategoryOnly);
        EXPECT_EQ(got.objects, want.objects) << "node " << n << " k " << k;
        EXPECT_EQ(got.distances, want.distances) << "node " << n << " k " << k;
        EXPECT_FALSE(got.deadline_exceeded);
      }
    }

    for (const Weight eps : RangeEpsilons(index->partition())) {
      const RangeQueryResult want = ReferenceRange(*index, n, eps);
      const RangeQueryResult got =
          SignatureRangeQuery(*index, n, eps, QueryMode::kCategoryOnly);
      EXPECT_EQ(got.objects, want.objects) << "node " << n << " eps " << eps;
      EXPECT_EQ(got.refined, want.refined) << "node " << n << " eps " << eps;
      EXPECT_FALSE(got.deadline_exceeded);
    }

    for (const Weight eps : JoinEpsilons(index->partition())) {
      SCOPED_TRACE(::testing::Message() << "node " << n << " eps " << eps);
      ExpectSamePairs(SignatureEpsilonJoin(*index, *index, n, eps,
                                           QueryMode::kCategoryOnly),
                      ReferenceJoin(*index, *index, n, eps));
      ExpectSamePairs(SignatureEpsilonJoin(*index, *other, n, eps,
                                           QueryMode::kCategoryOnly),
                      ReferenceJoin(*index, *other, n, eps));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CategoryOnlyTest, ::testing::Values(3, 17, 91));

TEST(CategoryOnlyTest, OpenTailMidpointIsCappedByGrowth) {
  const CategoryPartition exponential =
      CategoryPartition::Exponential(4, 3, 100);
  const int last = exponential.num_categories() - 1;
  EXPECT_EQ(exponential.Midpoint(0), 2);
  EXPECT_EQ(exponential.Midpoint(last), exponential.LowerBound(last) * 3);
  // Not built exponentially: the tail doubles its lower bound.
  const CategoryPartition listed = CategoryPartition::FromBoundaries({2, 10});
  EXPECT_EQ(listed.Midpoint(1), 6);
  EXPECT_EQ(listed.Midpoint(2), 20);
}

}  // namespace
}  // namespace dsig
