#include "driver/oracle.h"

#include <algorithm>
#include <cstdio>

#include "graph/dijkstra.h"

namespace dsigbench {

using dsig::NodeId;

namespace {

std::string Describe(const char* what, NodeId n, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s at node %u: got %.17g, oracle %.17g",
                what, n, a, b);
  return buf;
}

}  // namespace

Oracle::Oracle(const dsig::RoadNetwork* graph, std::vector<NodeId> objects)
    : graph_(graph), objects_(std::move(objects)) {}

const std::vector<double>& Oracle::ObjectDistances(NodeId n) {
  auto it = cache_.find(n);
  if (it != cache_.end()) return it->second;
  const dsig::ShortestPathTree tree = dsig::RunDijkstra(*graph_, n);
  std::vector<double> d(objects_.size());
  for (size_t i = 0; i < objects_.size(); ++i) d[i] = tree.dist[objects_[i]];
  return cache_.emplace(n, std::move(d)).first->second;
}

std::string Oracle::CheckKnnMembers(NodeId n, size_t k,
                                    const std::vector<uint32_t>& objects) {
  const std::vector<double>& d = ObjectDistances(n);
  const size_t want = std::min(k, d.size());
  if (objects.size() != want) {
    return Describe("knn size", n, static_cast<double>(objects.size()),
                    static_cast<double>(want));
  }
  std::vector<double> sorted = d;
  std::nth_element(sorted.begin(), sorted.begin() + (want - 1), sorted.end());
  const double kth = sorted[want - 1];
  std::vector<uint32_t> seen = objects;
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "knn answer repeats an object";
  }
  for (const uint32_t o : objects) {
    if (o >= d.size()) return "knn answer names an unknown object";
    if (d[o] > kth) return Describe("knn member beyond k-th", n, d[o], kth);
  }
  return "";
}

std::string Oracle::CheckKnnExact(NodeId n, size_t k,
                                  const std::vector<uint32_t>& objects,
                                  const std::vector<double>& distances) {
  std::string members = CheckKnnMembers(n, k, objects);
  if (!members.empty()) return members;
  if (distances.size() != objects.size()) return "knn distances misaligned";
  const std::vector<double>& d = ObjectDistances(n);
  std::vector<double> sorted = d;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < objects.size(); ++i) {
    if (distances[i] != d[objects[i]]) {
      return Describe("knn distance", n, distances[i], d[objects[i]]);
    }
    if (distances[i] != sorted[i]) {
      return Describe("knn rank distance", n, distances[i], sorted[i]);
    }
  }
  return "";
}

std::string Oracle::CheckRange(NodeId n, double epsilon,
                               std::vector<uint32_t> objects) {
  const std::vector<double>& d = ObjectDistances(n);
  std::vector<uint32_t> want;
  for (uint32_t i = 0; i < d.size(); ++i) {
    if (d[i] <= epsilon) want.push_back(i);
  }
  std::sort(objects.begin(), objects.end());
  if (objects != want) {
    return Describe("range size", n, static_cast<double>(objects.size()),
                    static_cast<double>(want.size()));
  }
  return "";
}

std::string Oracle::CheckCount(NodeId n, double epsilon, uint64_t count) {
  const std::vector<double>& d = ObjectDistances(n);
  const uint64_t want = static_cast<uint64_t>(
      std::count_if(d.begin(), d.end(), [&](double x) { return x <= epsilon; }));
  if (count != want) {
    return Describe("count", n, static_cast<double>(count),
                    static_cast<double>(want));
  }
  return "";
}

uint32_t Oracle::FarthestObject(NodeId n) {
  const std::vector<double>& d = ObjectDistances(n);
  return static_cast<uint32_t>(std::max_element(d.begin(), d.end()) -
                               d.begin());
}

}  // namespace dsigbench
