// Dijkstra ground truth for the benchmark's correctness gate. Every check
// compares distances bit for bit: the generators emit integer weights, so
// an exact answer equals the oracle's edge-by-edge sum exactly.
#ifndef DSIGBENCH_DRIVER_ORACLE_H_
#define DSIGBENCH_DRIVER_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/road_network.h"

namespace dsigbench {

class Oracle {
 public:
  // `objects[i]` is the node of object index i, as the index numbers them.
  Oracle(const dsig::RoadNetwork* graph, std::vector<dsig::NodeId> objects);

  // d(n, object i) for every object (one Dijkstra per distinct node, cached).
  const std::vector<double>& ObjectDistances(dsig::NodeId n);

  // Each returns "" when the answer is right, else what is wrong.
  // Type 3 kNN: k distinct objects none farther than the k-th nearest.
  std::string CheckKnnMembers(dsig::NodeId n, size_t k,
                              const std::vector<uint32_t>& objects);
  // Type 1 kNN: objects in distance order with exact distances, and those
  // distances are the k smallest.
  std::string CheckKnnExact(dsig::NodeId n, size_t k,
                            const std::vector<uint32_t>& objects,
                            const std::vector<double>& distances);
  // Range: exactly the objects within epsilon (any order).
  std::string CheckRange(dsig::NodeId n, double epsilon,
                         std::vector<uint32_t> objects);
  std::string CheckCount(dsig::NodeId n, double epsilon, uint64_t count);

  // Index of the object farthest from n (used to falsify an answer).
  uint32_t FarthestObject(dsig::NodeId n);

 private:
  const dsig::RoadNetwork* graph_;
  std::vector<dsig::NodeId> objects_;
  std::unordered_map<dsig::NodeId, std::vector<double>> cache_;
};

}  // namespace dsigbench

#endif  // DSIGBENCH_DRIVER_ORACLE_H_
