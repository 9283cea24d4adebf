#include "core/hub_labels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <queue>
#include <random>
#include <utility>

#include "graph/dijkstra.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace dsig {
namespace {

constexpr uint32_t kLabelMagic = 0x4c475344;  // "DSGL"
constexpr uint32_t kLabelVersion = 1;

// Little-endian blob packing. The blob travels inside a CRC32C file section,
// so these helpers only need structure checks, not integrity ones.
void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

// Bounds-checked little-endian reader over the blob.
class BlobReader {
 public:
  explicit BlobReader(const std::vector<uint8_t>& blob) : blob_(blob) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == blob_.size(); }
  uint64_t remaining() const { return blob_.size() - pos_; }

  uint32_t ReadU32() {
    uint32_t v = 0;
    if (!Take(4)) return 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(blob_[pos_ - 4 + i]) << (8 * i);
    }
    return v;
  }

  uint64_t ReadU64() {
    uint64_t v = 0;
    if (!Take(8)) return 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(blob_[pos_ - 8 + i]) << (8 * i);
    }
    return v;
  }

  double ReadF64() { return std::bit_cast<double>(ReadU64()); }

 private:
  bool Take(size_t n) {
    if (!ok_ || blob_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::vector<uint8_t>& blob_;
  size_t pos_ = 0;
  bool ok_ = true;
};

double MeanLiveEdgeWeight(const RoadNetwork& graph) {
  double sum = 0;
  size_t count = 0;
  for (EdgeId e = 0; e < graph.num_edge_slots(); ++e) {
    if (graph.edge_removed(e)) continue;
    sum += graph.edge_weight(e);
    ++count;
  }
  return count == 0 ? 1.0 : sum / static_cast<double>(count);
}

// Centrality scores for the vertex order. kDegree: adjacency size. kCoverage:
// adds, over sampled shortest-path trees, the size of each node's subtree —
// the number of sampled shortest paths it lies on, which is precisely how
// useful it is as an early hub.
std::vector<double> CentralityScores(const RoadNetwork& graph,
                                     const HubLabels::BuildOptions& options,
                                     ThreadPool* pool) {
  const size_t n = graph.num_nodes();
  std::vector<double> score(n);
  for (NodeId v = 0; v < n; ++v) {
    score[v] = static_cast<double>(graph.degree(v));
  }
  if (options.order != HubLabels::BuildOptions::Order::kCoverage || n < 2) {
    return score;
  }
  const size_t samples = std::min(options.coverage_samples, n);
  std::mt19937_64 rng(options.seed);
  std::vector<NodeId> roots(samples);
  for (size_t s = 0; s < samples; ++s) {
    roots[s] = static_cast<NodeId>(rng() % n);
  }
  std::vector<std::vector<double>> subtree(samples);
  const auto run_sample = [&](size_t s) {
    const ShortestPathTree tree = RunDijkstra(graph, roots[s]);
    std::vector<double>& size = subtree[s];
    size.assign(n, 0);
    for (size_t i = tree.settle_order.size(); i-- > 0;) {
      const NodeId v = tree.settle_order[i];
      size[v] += 1;
      if (tree.parent[v] != kInvalidNode) size[tree.parent[v]] += size[v];
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(samples, run_sample);
  } else {
    for (size_t s = 0; s < samples; ++s) run_sample(s);
  }
  // Subtree sizes dominate the degree term (which only breaks ties among
  // nodes the samples never separated).
  for (size_t s = 0; s < samples; ++s) {
    for (NodeId v = 0; v < n; ++v) score[v] += subtree[s][v] * 1024.0;
  }
  return score;
}

}  // namespace

std::shared_ptr<HubLabels> HubLabels::Build(const RoadNetwork& graph,
                                            const BuildOptions& options,
                                            ThreadPool* pool) {
  auto labels = std::shared_ptr<HubLabels>(new HubLabels());
  const size_t n = graph.num_nodes();
  labels->num_nodes_ = n;
  labels->mean_edge_weight_ = MeanLiveEdgeWeight(graph);
  labels->decoded_.store(true, std::memory_order_release);
  labels->decode_ok_.store(true, std::memory_order_release);
  if (n == 0) {
    labels->offsets_.assign(1, 0);
    return labels;
  }

  // Vertex order: highest score first, node id breaking exact ties so the
  // build is deterministic for every thread count.
  const std::vector<double> score = CentralityScores(graph, options, pool);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&score](NodeId a, NodeId b) {
    return score[a] > score[b];
  });
  std::vector<uint32_t>& rank_of = labels->rank_of_;
  rank_of.assign(n, 0);
  for (uint32_t r = 0; r < n; ++r) rank_of[order[r]] = r;

  // Per-node growing labels; appended in rank order, so each stays sorted
  // ascending by hub rank for free.
  std::vector<std::vector<uint32_t>> hub_of(n);
  std::vector<std::vector<double>> dist_of(n);

  // Pruned Dijkstra per root, in rank order. Stamped scratch arrays avoid an
  // O(n) clear per root.
  std::vector<Weight> dist(n, kInfiniteWeight);
  std::vector<uint32_t> dist_stamp(n, 0);
  std::vector<Weight> root_dist(n, kInfiniteWeight);  // root's label, by hub
  std::vector<uint32_t> root_stamp(n, 0);
  uint32_t stamp = 0;
  uint64_t pruned = 0;
  using QueueEntry = std::pair<Weight, NodeId>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;

  for (uint32_t rank = 0; rank < n; ++rank) {
    const NodeId root = order[rank];
    ++stamp;
    // Index the root's current label for O(1) lookups during this search.
    for (size_t i = 0; i < hub_of[root].size(); ++i) {
      root_dist[hub_of[root][i]] = dist_of[root][i];
      root_stamp[hub_of[root][i]] = stamp;
    }
    dist[root] = 0;
    dist_stamp[root] = stamp;
    queue.push({0, root});
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (dist_stamp[u] != stamp || d > dist[u]) continue;  // stale entry
      dist[u] = -1;  // settled marker (real distances are >= 0)
      // Prune: if the labels built so far already certify d(root, u) <= d
      // through an earlier hub, u needs no entry for this root and the
      // search need not expand it.
      Weight via_labels = kInfiniteWeight;
      for (size_t i = 0; i < hub_of[u].size(); ++i) {
        const uint32_t h = hub_of[u][i];
        if (root_stamp[h] == stamp) {
          via_labels = std::min(via_labels, dist_of[u][i] + root_dist[h]);
        }
      }
      if (via_labels <= d) {
        ++pruned;
        continue;
      }
      hub_of[u].push_back(rank);
      dist_of[u].push_back(d);
      if (u == root) {  // keep the root's index current with its new entry
        root_dist[rank] = 0;
        root_stamp[rank] = stamp;
      }
      for (const AdjacencyEntry& hop : graph.adjacency(u)) {
        if (hop.removed) continue;
        const Weight nd = d + hop.weight;
        if (dist_stamp[hop.to] != stamp) {
          dist_stamp[hop.to] = stamp;
          dist[hop.to] = nd;
          queue.push({nd, hop.to});
        } else if (dist[hop.to] >= 0 && nd < dist[hop.to]) {
          dist[hop.to] = nd;
          queue.push({nd, hop.to});
        }
      }
    }
  }
  labels->pruned_settles_ = pruned;

  // Flatten into the canonical SoA pools (offsets are sequential; the copy
  // itself parallelizes).
  std::vector<uint64_t>& offsets = labels->offsets_;
  offsets.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + hub_of[v].size();
  }
  labels->hubs_.resize(offsets[n]);
  labels->dists_.resize(offsets[n]);
  const auto flatten = [&](size_t v) {
    std::copy(hub_of[v].begin(), hub_of[v].end(),
              labels->hubs_.begin() + static_cast<ptrdiff_t>(offsets[v]));
    std::copy(dist_of[v].begin(), dist_of[v].end(),
              labels->dists_.begin() + static_cast<ptrdiff_t>(offsets[v]));
  };
  if (pool != nullptr) {
    pool->ParallelFor(n, flatten);
  } else {
    for (size_t v = 0; v < n; ++v) flatten(v);
  }
  return labels;
}

std::shared_ptr<HubLabels> HubLabels::FromSerialized(
    std::vector<uint8_t> blob) {
  auto labels = std::shared_ptr<HubLabels>(new HubLabels());
  labels->blob_ = std::move(blob);
  return labels;
}

void HubLabels::EnsureDecoded() const {
  if (decoded_.load(std::memory_order_acquire)) return;
  std::call_once(decode_once_, [this] {
    decode_ok_.store(DecodeBlob(), std::memory_order_release);
    decoded_.store(true, std::memory_order_release);
    blob_.clear();
    blob_.shrink_to_fit();
  });
}

bool HubLabels::DecodeBlob() const {
  BlobReader reader(blob_);
  if (reader.ReadU32() != kLabelMagic) return false;
  if (reader.ReadU32() != kLabelVersion) return false;
  const uint64_t n = reader.ReadU64();
  const double mean_weight = reader.ReadF64();
  const uint64_t pruned = reader.ReadU64();
  if (!reader.ok()) return false;
  // Every node contributes >= 4 bytes of rank plus >= 8 of offset; reject
  // absurd counts before any allocation.
  if (n > reader.remaining() / 12) return false;
  if (!std::isfinite(mean_weight) || mean_weight <= 0) return false;

  std::vector<uint32_t> rank_of(n);
  for (uint64_t v = 0; v < n; ++v) rank_of[v] = reader.ReadU32();
  std::vector<uint64_t> offsets(n + 1);
  for (uint64_t v = 0; v <= n; ++v) offsets[v] = reader.ReadU64();
  if (!reader.ok()) return false;
  if (offsets[0] != 0) return false;
  for (uint64_t v = 0; v < n; ++v) {
    if (offsets[v + 1] < offsets[v]) return false;
  }
  const uint64_t entries = offsets[n];
  if (entries > reader.remaining() / 12) return false;

  std::vector<uint32_t> hubs(entries);
  for (uint64_t i = 0; i < entries; ++i) hubs[i] = reader.ReadU32();
  std::vector<double> dists(entries);
  for (uint64_t i = 0; i < entries; ++i) dists[i] = reader.ReadF64();
  if (!reader.ok() || !reader.AtEnd()) return false;

  // Structural checks MergeLabels depends on: per-label hubs are
  // strictly ascending ranks below n, distances finite and non-negative.
  for (uint64_t v = 0; v < n; ++v) {
    if (rank_of[v] >= n) return false;
    for (uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (hubs[i] >= n) return false;
      if (i > offsets[v] && hubs[i] <= hubs[i - 1]) return false;
      if (!std::isfinite(dists[i]) || dists[i] < 0) return false;
    }
  }

  num_nodes_ = n;
  mean_edge_weight_ = mean_weight;
  pruned_settles_ = pruned;
  rank_of_ = std::move(rank_of);
  offsets_ = std::move(offsets);
  hubs_ = std::move(hubs);
  dists_ = std::move(dists);
  return true;
}

Weight MergeLabels(const uint32_t* ah, const Weight* ad, size_t an,
                   const uint32_t* bh, const Weight* bd, size_t bn) {
  Weight best = kInfiniteWeight;
  size_t i = 0, j = 0;
  while (i < an && j < bn) {
    if (ah[i] == bh[j]) {
      const Weight d = ad[i] + bd[j];
      if (d < best) best = d;
      ++i;
      ++j;
    } else if (ah[i] < bh[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

bool HubLabels::ready() const {
  EnsureDecoded();
  return decode_ok_.load(std::memory_order_acquire);
}

Weight HubLabels::Distance(NodeId u, NodeId v) const {
  if (!ready()) return kInfiniteWeight;
  DSIG_CHECK(u < num_nodes_ && v < num_nodes_);
  const uint64_t ou = offsets_[u];
  const uint64_t ov = offsets_[v];
  return MergeLabels(hubs_.data() + ou, dists_.data() + ou,
                     offsets_[u + 1] - ou, hubs_.data() + ov,
                     dists_.data() + ov, offsets_[v + 1] - ov);
}

HubLabelStats HubLabels::stats() const {
  HubLabelStats s;
  if (!ready()) return s;
  s.entries = offsets_.empty() ? 0 : offsets_.back();
  s.bytes = hubs_.size() * sizeof(uint32_t) + dists_.size() * sizeof(double) +
            offsets_.size() * sizeof(uint64_t) +
            rank_of_.size() * sizeof(uint32_t);
  s.avg_label_entries =
      num_nodes_ == 0 ? 0
                      : static_cast<double>(s.entries) /
                            static_cast<double>(num_nodes_);
  s.pruned_settles = pruned_settles_;
  return s;
}

std::vector<uint8_t> HubLabels::Serialize() const {
  DSIG_CHECK(ready()) << "cannot serialize undecodable hub labels";
  std::vector<uint8_t> blob;
  const uint64_t entries = offsets_.empty() ? 0 : offsets_.back();
  blob.reserve(40 + num_nodes_ * 12 + 8 + entries * 12);
  AppendU32(&blob, kLabelMagic);
  AppendU32(&blob, kLabelVersion);
  AppendU64(&blob, num_nodes_);
  AppendF64(&blob, mean_edge_weight_);
  AppendU64(&blob, pruned_settles_);
  for (size_t v = 0; v < num_nodes_; ++v) AppendU32(&blob, rank_of_[v]);
  for (size_t v = 0; v <= num_nodes_; ++v) AppendU64(&blob, offsets_[v]);
  for (const uint32_t h : hubs_) AppendU32(&blob, h);
  for (const double d : dists_) AppendF64(&blob, d);
  return blob;
}

Status HubLabels::VerifyStructure(const RoadNetwork& graph) const {
  if (!ready()) {
    return Status::Corruption("hub-label blob does not decode");
  }
  const size_t n = num_nodes_;
  if (n != graph.num_nodes()) {
    return Status::Corruption(
        "hub labels cover " + std::to_string(n) + " nodes but the graph has " +
        std::to_string(graph.num_nodes()));
  }
  // rank_of must be a permutation of [0, n).
  std::vector<char> rank_seen(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (rank_of_[v] >= n || rank_seen[rank_of_[v]]++ != 0) {
      return Status::Corruption("hub-label vertex order is not a permutation");
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t* h = hubs(v);
    const double* d = dists(v);
    const size_t len = label_size(v);
    bool self = false;
    for (size_t i = 0; i < len; ++i) {
      if (h[i] >= n || (i > 0 && h[i] <= h[i - 1])) {
        return Status::Corruption("label of node " + std::to_string(v) +
                                  " is not strictly ascending in rank");
      }
      if (!std::isfinite(d[i]) || d[i] < 0) {
        return Status::Corruption("label of node " + std::to_string(v) +
                                  " holds a non-finite or negative distance");
      }
      if (h[i] == rank_of_[v]) {
        if (d[i] != 0) {
          return Status::Corruption("node " + std::to_string(v) +
                                    " is not at distance 0 from itself");
        }
        self = true;
      }
    }
    if (!self) {
      return Status::Corruption("label of node " + std::to_string(v) +
                                " is missing its self entry");
    }
  }
  // Metric spot check: a few full Dijkstras, every target compared. Exact
  // equality holds for integer-weight networks (all our generators); for
  // arbitrary weights allow last-ulp slack from differing summation orders.
  const size_t sample_roots = std::min<size_t>(n, 4);
  for (size_t s = 0; s < sample_roots; ++s) {
    const NodeId root = static_cast<NodeId>((s * n) / sample_roots);
    const ShortestPathTree tree = RunDijkstra(graph, root);
    for (NodeId v = 0; v < n; ++v) {
      const Weight got = Distance(root, v);
      const Weight want = tree.dist[v];
      if (got == want) continue;
      if (want != kInfiniteWeight && got != kInfiniteWeight &&
          std::abs(got - want) <= 1e-9 * std::max(1.0, want)) {
        continue;
      }
      return Status::Corruption(
          "hub-label distance(" + std::to_string(root) + ", " +
          std::to_string(v) + ") = " + std::to_string(got) +
          " disagrees with Dijkstra's " + std::to_string(want));
    }
  }
  return Status::Ok();
}

void PublishHubLabelMetrics(const HubLabels* labels) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Gauge* const present = registry.GetGauge("labels.present");
  static obs::Gauge* const entries = registry.GetGauge("labels.entries");
  static obs::Gauge* const bytes = registry.GetGauge("labels.bytes");
  static obs::Gauge* const avg = registry.GetGauge("labels.avg_entries");
  static obs::Gauge* const stale = registry.GetGauge("labels.stale");
  if (labels == nullptr || !labels->ready()) {
    present->Set(0);
    entries->Set(0);
    bytes->Set(0);
    avg->Set(0);
    stale->Set(0);
    return;
  }
  const HubLabelStats s = labels->stats();
  present->Set(1);
  entries->Set(static_cast<double>(s.entries));
  bytes->Set(static_cast<double>(s.bytes));
  avg->Set(s.avg_label_entries);
  stale->Set(labels->stale() ? 1 : 0);
}

}  // namespace dsig
