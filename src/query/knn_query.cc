#include "query/knn_query.h"

#include <algorithm>

#include "core/distance_ops.h"
#include "core/row_stage.h"
#include "obs/trace.h"
#include "query/planner.h"
#include "util/deadline.h"
#include "util/simd/simd.h"

namespace dsig {

KnnResult SignatureKnnQuery(const SignatureIndex& index, NodeId n, size_t k,
                            KnnResultType type, QueryMode mode) {
  DSIG_QUERY_TRACE("knn");
  // One epoch for the whole query: the row read, every backtracking step and
  // the final sort all see the same published index state.
  const ReadSnapshot snapshot(index.epoch_gate());
  KnnResult result;
  if (k == 0) return result;
  // An already-expired deadline returns before the row read, so a hopeless
  // request never charges the buffer pool.
  if (DeadlineExpired()) {
    result.deadline_exceeded = true;
    return result;
  }
  static thread_local RowStage stage;
  index.ReadRowStaged(n, &stage);
  const size_t num_objects = stage.size();
  const uint8_t* cats = stage.categories();
  k = std::min(k, num_objects);

  // Bucket sizes by category (the rough ordering s(n) gives for free), one
  // vectorized count per category over the stage's category lane.
  const simd::KernelTable& kernels = simd::Kernels();
  const int m_categories = index.partition().num_categories();
  std::vector<size_t> counts(static_cast<size_t>(m_categories));
  for (int c = 0; c < m_categories; ++c) {
    counts[c] = kernels.count_in_range(cats, num_objects, c, c + 1);
  }

  // Boundary bucket m: categories before it are wholly confirmed results.
  size_t confirmed = 0;
  int m = 0;
  while (confirmed + counts[m] < k) {
    confirmed += counts[m];
    ++m;
  }

  // Materialize only the contributing buckets 0..m (ascending object order,
  // exactly the order a per-object bucketing scan would produce).
  std::vector<std::vector<uint32_t>> buckets(static_cast<size_t>(m) + 1);
  for (int c = 0; c <= m; ++c) {
    buckets[c].resize(counts[c]);
    kernels.extract_in_range(cats, num_objects, c, c + 1, buckets[c].data());
  }

  const size_t take_from_m = k - confirmed;
  if (mode == QueryMode::kCategoryOnly) {
    // No ranking: the boundary bucket's first objects stand in for its
    // nearest, and every distance is its category's midpoint.
    buckets[m].resize(take_from_m);
    for (int i = 0; i <= m; ++i) {
      result.objects.insert(result.objects.end(), buckets[i].begin(),
                            buckets[i].end());
      result.distances.insert(result.distances.end(), buckets[i].size(),
                              index.partition().Midpoint(i));
    }
    return result;
  }

  // The boundary bucket must be sorted when it is partially taken (to pick
  // its top) and for type 2 (whose whole result is ordered). If the deadline
  // aborts that sort, taking its head would report objects that are merely
  // *in* the boundary category, not its nearest — so on expiry the boundary
  // bucket only survives when it is taken whole (membership then needs no
  // ranking).
  const bool m_needs_ranking = take_from_m < buckets[m].size();
  if (m_needs_ranking || type == KnnResultType::kType2) {
    RoutedSortByDistance(index, n, stage, &buckets[m]);
  }
  buckets[m].resize(take_from_m);

  if (type == KnnResultType::kType2) {
    // Order must be exact everywhere: sort every contributing bucket.
    for (int i = 0; i < m && !DeadlineExpired(); ++i) {
      RoutedSortByDistance(index, n, stage, &buckets[i]);
    }
  }
  // Phase boundary: sorting may have been cut short. Buckets below the
  // boundary are confirmed members by category pruning alone; the boundary
  // bucket is only trusted when its ranking wasn't needed. The partial is a
  // subset of the exact answer set — smaller, never wrong.
  if (DeadlineExpired()) {
    result.deadline_exceeded = true;
    const int keep = m_needs_ranking ? m : m + 1;
    for (int i = 0; i < keep; ++i) {
      result.objects.insert(result.objects.end(), buckets[i].begin(),
                            buckets[i].end());
    }
    return result;
  }
  for (int i = 0; i <= m; ++i) {
    result.objects.insert(result.objects.end(), buckets[i].begin(),
                          buckets[i].end());
  }

  if (type == KnnResultType::kType1) {
    // Exact distances via guided backtracking, then a final exact sort.
    result.distances.reserve(result.objects.size());
    std::vector<std::pair<Weight, uint32_t>> with_distance;
    with_distance.reserve(result.objects.size());
    for (const uint32_t o : result.objects) {
      // Backtracking is the expensive phase: check before every retrieval
      // and keep whatever distances are already exact.
      if (DeadlineExpired()) {
        result.deadline_exceeded = true;
        break;
      }
      const SignatureEntry initial = stage.entry(o);
      with_distance.push_back({RoutedObjectDistance(index, n, o, &initial), o});
    }
    {
      const obs::Span sort_span(obs::Phase::kSort);
      std::sort(with_distance.begin(), with_distance.end());
    }
    result.objects.clear();
    for (const auto& [d, o] : with_distance) {
      result.objects.push_back(o);
      result.distances.push_back(d);
    }
  }
  return result;
}

}  // namespace dsig
