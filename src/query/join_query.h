// ε-join between two datasets at a node (paper §4.3).
//
// Given two signature indexes over the *same* road network (e.g., hotels and
// restaurants), the ε-join at node n returns object pairs (a, b) with
// d(a, b) <= ε. The two signatures of n are joined: triangle bounds
// |d(n,a) − d(n,b)| <= d(a,b) <= d(n,a) + d(n,b), evaluated on category
// ranges, prune or confirm most pairs; surviving candidates refine their
// node distances and finally compute the exact pair distance by guided
// backtracking from a's node through b's index. QueryMode::kCategoryOnly
// decides each pair the category bounds leave open by the sum of the two
// category midpoints instead (exact_evaluations stays 0).
#ifndef DSIG_QUERY_JOIN_QUERY_H_
#define DSIG_QUERY_JOIN_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/signature_index.h"
#include "query/query_mode.h"

namespace dsig {

struct JoinPair {
  uint32_t left;   // object index in the left index
  uint32_t right;  // object index in the right index
};

struct JoinResult {
  std::vector<JoinPair> pairs;
  size_t pruned_by_categories = 0;  // pairs dismissed from s(n) alone
  size_t exact_evaluations = 0;     // pairs needing an exact d(a, b)
  // True when the ambient request deadline (util/deadline.h) expired before
  // every pair was classified; `pairs` then holds the confirmed pairs found
  // so far, a well-formed partial answer.
  bool deadline_exceeded = false;
};

// Both indexes must be built over the same RoadNetwork instance.
JoinResult SignatureEpsilonJoin(const SignatureIndex& left,
                                const SignatureIndex& right, NodeId n,
                                Weight epsilon,
                                QueryMode mode = QueryMode::kExact);

}  // namespace dsig

#endif  // DSIG_QUERY_JOIN_QUERY_H_
