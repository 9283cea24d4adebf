// How far a signature query processor refines (kNN, range and ε-join).
//
// Every processor opens with a category phase: the categories in s(n) alone
// confirm or prune most objects. kExact then refines whatever is left open
// (boundary-bucket sorts, guided backtracking, exact pair distances).
// kCategoryOnly stops where refinement would start and decides the open
// objects by category midpoints (CategoryPartition::Midpoint): one row read,
// approximate in a bounded way (each true distance lies in its category's
// range). The server answers overload this way, tagged
// Degradation::kOverload.
#ifndef DSIG_QUERY_QUERY_MODE_H_
#define DSIG_QUERY_QUERY_MODE_H_

namespace dsig {

enum class QueryMode { kExact, kCategoryOnly };

}  // namespace dsig

#endif  // DSIG_QUERY_QUERY_MODE_H_
