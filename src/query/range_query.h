// Range query processing on distance signatures (paper §4.1, Algorithm 5).
//
// Returns every object within network distance epsilon of the query node.
// Signature categories confirm or prune most objects outright; only objects
// whose category range straddles epsilon pay for guided backtracking, and
// that backtracking stops the moment the range clears the threshold.
// QueryMode::kCategoryOnly decides each straddling object by its category
// midpoint (midpoint <= epsilon joins) instead of backtracking.
#ifndef DSIG_QUERY_RANGE_QUERY_H_
#define DSIG_QUERY_RANGE_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/signature_index.h"
#include "query/query_mode.h"

namespace dsig {

struct RangeQueryResult {
  // Object indexes with d(n, o) <= epsilon, in object order.
  std::vector<uint32_t> objects;
  // Objects whose category range straddled epsilon (refined, or decided by
  // midpoint in category-only mode) — a quality metric for the partition.
  size_t refined = 0;
  // True when the ambient request deadline (util/deadline.h) expired before
  // every object was classified; `objects` then holds the objects confirmed
  // so far (all category-confirmed members plus refined confirms), a
  // well-formed partial answer — a subset of the exact result.
  bool deadline_exceeded = false;
};

RangeQueryResult SignatureRangeQuery(const SignatureIndex& index, NodeId n,
                                     Weight epsilon,
                                     QueryMode mode = QueryMode::kExact);

}  // namespace dsig

#endif  // DSIG_QUERY_RANGE_QUERY_H_
