// Forwarder for the benchmark driver (dsigbench/), which still calls
// serve::CategoryMidpoint. Overload answers come from the query processors'
// category-only mode (query/query_mode.h); use CategoryPartition::Midpoint.
#ifndef DSIG_SERVE_DEGRADE_H_
#define DSIG_SERVE_DEGRADE_H_

#include "core/category_partition.h"

namespace dsig::serve {

inline Weight CategoryMidpoint(const CategoryPartition& p, int category) {
  return p.Midpoint(category);
}

}  // namespace dsig::serve

#endif  // DSIG_SERVE_DEGRADE_H_
