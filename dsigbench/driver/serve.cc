// serve_mixed: the real dsig_serve binary over loopback.
//
// Every run brings up five or more deployments (one per 2 s of the timed
// window), each in a fresh directory (a reused, long-lived server drifts).
// For each: wait for SERVE_READY, check warm-up probes against a Dijkstra
// oracle before the first update, drive its slice of the timed open-loop
// Poisson traffic from four sender connections (Zipf-skewed kNN and range
// reads 2:1, 5% edge-weight updates, 1% epsilon-joins; latency runs from
// each request's scheduled send), then SIGTERM-drain the server and require
// `dsig_serve --recover-check` to recover, with verification, at least to
// the highest acknowledged update.
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/update_log.h"
#include "driver/common.h"
#include "driver/oracle.h"
#include "driver/workloads.h"
#include "graph/graph_generator.h"
#include "serve/loadgen.h"
#include "serve/protocol.h"
#include "util/random.h"
#include "workload/dataset_generator.h"

extern char** environ;

namespace dsigbench {
namespace {

using namespace dsig;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ResponseStatus;

struct ServeConfig {
  size_t nodes = 5000;
  double density = 0.005;  // dsig_serve's default deployment
  double rate = 300;       // offered arrivals/s across all senders
  int senders = 4;
  double update_fraction = 0.05;
  double join_fraction = 0.01;
  size_t hot_set = 5000;  // Zipf over every node, in a seeded order
  double zipf_s = 0.5;
  uint32_t k = 10;
  size_t probes = 48;          // warm-up answers checked against the oracle
  size_t warm_requests = 200;  // further warm-up reads, unchecked
  // Fresh deployments per run, each with its traffic slice: at least 5, and
  // one per 2 s of the timed window, so a longer run takes its median over
  // more deployments spread over more time.
  int setups = 5;
  double timeout_ms = 5000;
  int max_retries = 3;
};

ServeConfig MakeConfig(const Args& args) {
  ServeConfig c;
  c.setups = std::max(c.setups, static_cast<int>(args.seconds / 2));
  if (args.tiny) {
    c.nodes = 1000;
    c.rate = 100;
    c.probes = 12;
    c.warm_requests = 20;
    c.setups = 2;
  }
  return c;
}

std::string SelfDir() {
  std::error_code ec;
  return std::filesystem::read_symlink("/proc/self/exe", ec)
      .parent_path()
      .string();
}

// A child process with its stdout on a pipe.
struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string buffered;
};

bool SpawnChild(const std::vector<std::string>& argv, Child* child) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int rc = posix_spawn(&child->pid, argv[0].c_str(), &actions, nullptr,
                             args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    child->pid = -1;
    return false;
  }
  child->out_fd = fds[0];
  return true;
}

// Reads the child's stdout until a line starting with `prefix` arrives
// (returned) or `timeout_s` passes / the pipe closes ("").
std::string WaitForLine(Child* child, const std::string& prefix,
                        double timeout_s) {
  const uint64_t start = NowNs();
  while (SecondsSince(start) < timeout_s) {
    size_t nl;
    while ((nl = child->buffered.find('\n')) != std::string::npos) {
      std::string line = child->buffered.substr(0, nl);
      child->buffered.erase(0, nl + 1);
      if (line.rfind(prefix, 0) == 0) return line;
    }
    pollfd p{child->out_fd, POLLIN, 0};
    if (poll(&p, 1, 100) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(child->out_fd, buf, sizeof(buf));
    if (n <= 0) return "";
    child->buffered.append(buf, static_cast<size_t>(n));
  }
  return "";
}

// Waits for exit, escalating to SIGKILL after `grace_s`; returns the exit
// code (-1 when killed or not running).
int Reap(Child* child, double grace_s) {
  if (child->pid <= 0) return -1;
  int status = 0;
  const uint64_t start = NowNs();
  pid_t done = 0;
  while ((done = waitpid(child->pid, &status, WNOHANG)) == 0 &&
         SecondsSince(start) < grace_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    kill(child->pid, SIGKILL);
    waitpid(child->pid, &status, 0);
    status = -1;
  }
  child->pid = -1;
  if (child->out_fd >= 0) close(child->out_fd);
  child->out_fd = -1;
  return status >= 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

uint64_t ParseField(const std::string& line, const std::string& key) {
  const size_t at = line.find(key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 1, nullptr, 10);
}

// First number after "\"key\":" (and, when `field` is set, after the
// following "\"field\":") in the server's metrics JSON; 0 when absent.
double JsonValue(const std::string& text, const std::string& key,
                 const std::string& field = "") {
  size_t at = text.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  at += key.size() + 3;
  if (!field.empty()) {
    at = text.find("\"" + field + "\":", at);
    if (at == std::string::npos) return 0;
    at += field.size() + 3;
  }
  return std::strtod(text.c_str() + at, nullptr);
}

struct Server {
  Child child;
  std::string dir;
  uint16_t port = 0;
  double ready_s = 0;
};

bool StartServer(const ServeConfig& cfg, const Args& args, int attempt,
                 Server* server) {
  server->dir = args.work_dir + "/serve-" + std::to_string(getpid()) + "-" +
                std::to_string(attempt);
  std::filesystem::remove_all(server->dir);
  const uint64_t start = NowNs();
  const std::vector<std::string> argv = {
      SelfDir() + "/dsig_serve",
      "--dir=" + server->dir,
      "--nodes=" + std::to_string(cfg.nodes),
      "--seed=" + std::to_string(kDatasetSeed),
      "--density=" + std::to_string(cfg.density),
      "--port=0",
      // Safety net: a server outlives no run, even if the driver dies.
      "--max-runtime-s=160",
  };
  if (!SpawnChild(argv, &server->child)) return false;
  const std::string ready = WaitForLine(&server->child, "SERVE_READY", 120);
  if (ready.empty()) return false;
  server->ready_s = SecondsSince(start);
  server->port = static_cast<uint16_t>(ParseField(ready, "port"));
  return server->port != 0;
}

// SIGTERM drain; true when the server exits 0 after SERVE_DRAINED.
bool DrainServer(Server* server) {
  if (server->child.pid <= 0) return false;
  kill(server->child.pid, SIGTERM);
  const bool drained = !WaitForLine(&server->child, "SERVE_DRAINED", 60).empty();
  return Reap(&server->child, 60) == 0 && drained;
}

// `dsig_serve --recover-check`: the recovered last_seq, or -1.
int64_t RecoverCheck(const Server& server) {
  Child check;
  if (!SpawnChild({SelfDir() + "/dsig_serve", "--recover-check",
                   "--dir=" + server.dir},
                  &check)) {
    return -1;
  }
  const std::string line = WaitForLine(&check, "RECOVER_OK", 120);
  const int rc = Reap(&check, 60);
  if (line.empty() || rc != 0) return -1;
  return static_cast<int64_t>(ParseField(line, "last_seq"));
}

enum ReqKind { kKnn = 0, kRange, kJoin, kUpdate, kNumReqKinds };
constexpr const char* kCallSpan[kNumReqKinds] = {"serve.call.knn",
                                                 "serve.call.range",
                                                 "serve.call.join",
                                                 "serve.call.update"};

struct Workload {
  std::vector<NodeId> hot;
  std::vector<EdgeId> edges;
  double epsilon = 0;  // the server's suggested radius
};

Request MakeRequest(const ServeConfig& cfg, const Workload& wl,
                    const Zipf& zipf, Random& rng, uint64_t id, ReqKind* kind) {
  Request r;
  r.id = id;
  r.trace_id = id | 1;
  const double u = rng.NextDouble();
  if (u < cfg.update_fraction) {
    *kind = kUpdate;
    r.type = RequestType::kUpdate;
    r.update_op = UpdateRecord::kSetEdgeWeight;
    r.a = wl.edges[rng.NextUint64(wl.edges.size())];
    r.weight = static_cast<double>(rng.NextInt(1, 10));  // integer weights
    return r;
  }
  r.node = wl.hot[zipf.Sample(rng.NextDouble())];
  if (u < cfg.update_fraction + cfg.join_fraction) {
    *kind = kJoin;
    r.type = RequestType::kJoin;
    r.epsilon = wl.epsilon;
  } else if (rng.NextDouble() < 2.0 / 3) {
    *kind = kKnn;
    r.type = RequestType::kKnn;
    r.k = cfg.k;
    r.knn_type = 1;
  } else {
    *kind = kRange;
    r.type = RequestType::kRange;
    static constexpr double kScale[3] = {0.5, 1.0, 2.0};
    r.epsilon = wl.epsilon * kScale[rng.NextUint64(3)];
  }
  return r;
}

constexpr uint64_t kSpinNs = 200'000;

struct SenderStats {
  Samples latency, by_kind[kNumReqKinds], rtt, send_lag;
  uint64_t arrivals = 0, completed = 0, failed = 0, shed = 0, retries = 0,
           timeouts = 0, reconnects = 0, degraded = 0, deadline_exceeded = 0;
  uint64_t updates_acked = 0, max_acked_seq = 0, rows_rewritten = 0;
  double epoch_lag_max = 0;
};

// One arrival to a terminal outcome: answer, exhausted retries or a
// terminal status.
void Issue(const ServeConfig& cfg, uint16_t port, serve::ServeClient& client,
           const Request& request, ReqKind kind, uint64_t scheduled_ns,
           bool traced, SenderStats& s) {
  ++s.arrivals;
  for (int attempt = 0; attempt <= cfg.max_retries; ++attempt) {
    if (attempt > 0) ++s.retries;
    if (!client.connected()) {
      if (attempt > 0 || s.arrivals > 1) ++s.reconnects;
      if (!client.Connect(port, cfg.timeout_ms).ok()) break;
    }
    bool timed_out = false;
    const uint64_t t0 = NowNs();
    if (attempt == 0) s.send_lag.Add(static_cast<double>(t0 - scheduled_ns) / 1e6);
    StatusOr<Response> result = client.Call(request, &timed_out);
    const uint64_t t1 = NowNs();
    s.rtt.Add(static_cast<double>(t1 - t0) / 1e6);
    SpanRecorder& rec = SpanRecorder::Get();
    if (traced && rec.enabled()) {
      rec.Record(kCallSpan[kind], rec.NewId(), 0, request.id, t0, t1);
    }
    if (!result.ok()) {
      if (timed_out) ++s.timeouts;
      continue;
    }
    const Response& response = *result;
    if (response.status == ResponseStatus::kRetryAfter) {
      ++s.shed;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::max(response.retry_after_ms, 1.0)));
      continue;
    }
    if (response.status == ResponseStatus::kOk ||
        response.status == ResponseStatus::kDeadlineExceeded) {
      const double ms = static_cast<double>(NowNs() - scheduled_ns) / 1e6;
      ++s.completed;
      s.latency.Add(ms);
      s.by_kind[kind].Add(ms);
      // A typed partial or a degraded answer is served but not correct.
      if (response.status == ResponseStatus::kDeadlineExceeded) {
        ++s.deadline_exceeded;
        ++s.failed;
      } else if (response.degradation != serve::Degradation::kNone) {
        ++s.degraded;
        ++s.failed;
      }
      if (kind == kUpdate && response.status == ResponseStatus::kOk) {
        ++s.updates_acked;
        s.max_acked_seq = std::max(s.max_acked_seq, response.update_seq);
        s.rows_rewritten += response.rows_rewritten;
      }
      return;
    }
    break;  // SHUTTING_DOWN / ERROR: terminal
  }
  ++s.failed;
}

void Absorb(const SenderStats& from, SenderStats* into) {
  into->latency.Append(from.latency);
  for (int k = 0; k < kNumReqKinds; ++k) into->by_kind[k].Append(from.by_kind[k]);
  into->rtt.Append(from.rtt);
  into->send_lag.Append(from.send_lag);
  into->arrivals += from.arrivals;
  into->completed += from.completed;
  into->failed += from.failed;
  into->shed += from.shed;
  into->retries += from.retries;
  into->timeouts += from.timeouts;
  into->reconnects += from.reconnects;
  into->degraded += from.degraded;
  into->deadline_exceeded += from.deadline_exceeded;
  into->updates_acked += from.updates_acked;
  into->max_acked_seq = std::max(into->max_acked_seq, from.max_acked_seq);
  into->rows_rewritten += from.rows_rewritten;
  into->epoch_lag_max = std::max(into->epoch_lag_max, from.epoch_lag_max);
}

StatusOr<Response> Stats(serve::ServeClient& client) {
  Request r;
  r.type = RequestType::kStats;
  return client.Call(r);
}

// Open-loop Poisson traffic for `seconds` from cfg.senders connections.
// Sender 0 of a traced window also samples the server's epoch lag between
// arrivals (on its own connection: no extra connection is opened).
SenderStats RunTraffic(const ServeConfig& cfg, const Workload& wl,
                       uint16_t port, uint64_t seed, double seconds,
                       bool traced, uint64_t id_base, double* wall_s) {
  std::vector<SenderStats> stats(cfg.senders);
  const Zipf zipf(wl.hot.size(), cfg.zipf_s);
  const uint64_t base_ns = NowNs() + 5'000'000;
  const uint64_t end_ns = base_ns + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.senders; ++t) {
    threads.emplace_back([&, t] {
      SenderStats& s = stats[t];
      Random rng(seed * 1000003ull + id_base + static_cast<uint64_t>(t) * 7919);
      serve::ServeClient client;
      (void)client.Connect(port, cfg.timeout_ms);
      const double per_sender = cfg.rate / cfg.senders;
      double next = static_cast<double>(base_ns);
      uint64_t last_poll = 0;
      for (uint64_t i = 0;; ++i) {
        next += -std::log(1.0 - rng.NextDouble()) / per_sender * 1e9;
        const uint64_t scheduled = static_cast<uint64_t>(next);
        if (scheduled >= end_ns) break;
        if (traced && t == 0 && scheduled > NowNs() + 20'000'000 &&
            NowNs() - last_poll > 500'000'000 && client.connected()) {
          last_poll = NowNs();
          const StatusOr<Response> st = Stats(client);
          if (st.ok()) {
            s.epoch_lag_max = std::max(
                s.epoch_lag_max, JsonValue(st->text, "update.epoch_lag"));
          }
        }
        // Sleep to just short of the scheduled instant, then spin: a bare
        // sleep overshoots by the timer slack, which would count as load
        // the generator itself added.
        const uint64_t now = NowNs();
        if (scheduled > now + kSpinNs) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(scheduled - now - kSpinNs));
        }
        while (NowNs() < scheduled) {
        }
        ReqKind kind = kKnn;
        const Request request = MakeRequest(
            cfg, wl, zipf, rng, id_base + (static_cast<uint64_t>(t) << 40) + i,
            &kind);
        Issue(cfg, port, client, request, kind, scheduled, traced, s);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  *wall_s = SecondsSince(base_ns);
  SenderStats all;
  for (const SenderStats& s : stats) Absorb(s, &all);
  return all;
}

struct Probe {
  Request request;
  Response response;
  bool answered = false;
};

// Warm-up on one connection before any update: checked probes (uniform
// nodes, kNN type 1 and range) then Zipf reads. Returns false when the
// server cannot be reached.
bool WarmUp(const ServeConfig& cfg, const Workload& wl, uint16_t port,
            uint64_t seed, size_t num_nodes, std::vector<Probe>* probes) {
  const ScopedSpan span("serve.warmup");
  serve::ServeClient client;
  if (!client.Connect(port, cfg.timeout_ms).ok()) return false;
  Random rng(seed * 31 + 7);
  probes->assign(cfg.probes, Probe{});
  for (size_t i = 0; i < probes->size(); ++i) {
    Request& r = (*probes)[i].request;
    r.id = i + 1;
    r.node = static_cast<uint32_t>(rng.NextUint64(num_nodes));
    if (i % 2 == 0) {
      r.type = RequestType::kKnn;
      r.k = cfg.k;
      r.knn_type = 1;
    } else {
      r.type = RequestType::kRange;
      r.epsilon = wl.epsilon * (0.5 + static_cast<double>(i % 3) * 0.75);
    }
    StatusOr<Response> response = client.Call(r);
    if (!response.ok()) return false;
    (*probes)[i].response = std::move(response).value();
    (*probes)[i].answered = true;
  }
  const Zipf zipf(wl.hot.size(), cfg.zipf_s);
  for (size_t i = 0; i < cfg.warm_requests; ++i) {
    Request r;
    r.id = 100000 + i;
    r.node = wl.hot[zipf.Sample(rng.NextDouble())];
    r.type = i % 2 == 0 ? RequestType::kKnn : RequestType::kRange;
    r.k = cfg.k;
    r.knn_type = 1;
    r.epsilon = wl.epsilon;
    if (!client.Call(r).ok()) return false;
  }
  return true;
}

// One deployment's share of a run: fresh directory, spawn to SERVE_READY,
// warm-up, untraced traffic (then traced traffic when asked), the server's
// own stats, SIGTERM drain and a verified recovery.
struct Segment {
  bool up = false;
  double setup_s = 0, ready_s = 0, wall_s = 0;
  double index_bytes = 0, peak_rss_mb = 0;
  SenderStats untraced, traced;
  std::vector<Probe> probes;
  StatusOr<Response> stats = Status::IoError("no stats");
  bool durable = false;
  uint64_t max_acked = 0;
  int64_t recovered = -1;
};

Segment RunSegment(const ServeConfig& cfg, const Args& args, int index,
                   size_t num_objects, size_t num_nodes, double untraced_s,
                   double traced_s, Workload* wl) {
  Segment seg;
  Server server;
  {
    const ScopedSpan span("setup");
    const uint64_t t0 = NowNs();
    if (!StartServer(cfg, args, index, &server)) {
      Reap(&server.child, 0);
      std::filesystem::remove_all(server.dir);
      return seg;
    }
    serve::ServeClient client;
    Request ping;
    ping.type = RequestType::kPing;
    StatusOr<Response> pong = client.Connect(server.port, cfg.timeout_ms).ok()
                                  ? client.Call(ping)
                                  : StatusOr<Response>(Status::IoError("ping"));
    if (!pong.ok() || pong->num_objects != num_objects) {
      std::fprintf(stderr, "dsigbench: the server's deployment differs from "
                           "the oracle's\n");
    } else {
      wl->epsilon = pong->suggested_epsilon;
      seg.up = WarmUp(cfg, *wl, server.port, args.seed + 977 * index,
                      num_nodes, &seg.probes);
    }
    seg.setup_s = SecondsSince(t0);
  }
  seg.ready_s = server.ready_s;
  std::error_code ec;
  seg.index_bytes = static_cast<double>(
      std::filesystem::file_size(server.dir + "/index.0.ckpt", ec));
  if (ec) seg.index_bytes = 0;
  if (seg.up) {
    const uint64_t ids = static_cast<uint64_t>(index + 1) << 52;
    seg.untraced = RunTraffic(cfg, *wl, server.port, args.seed + 131 * index,
                              untraced_s, false, ids, &seg.wall_s);
    if (traced_s > 0) {
      double traced_wall_s = 0;
      seg.traced = RunTraffic(cfg, *wl, server.port, args.seed + 131 * index,
                              traced_s, true, ids | (1ull << 50),
                              &traced_wall_s);
    }
    serve::ServeClient stats_client;
    if (stats_client.Connect(server.port, cfg.timeout_ms).ok()) {
      seg.stats = Stats(stats_client);
    }
  }
  seg.peak_rss_mb = PeakRssMb(server.child.pid);
  const bool drained = DrainServer(&server);
  seg.max_acked = std::max(seg.untraced.max_acked_seq, seg.traced.max_acked_seq);
  seg.recovered = RecoverCheck(server);
  std::filesystem::remove_all(server.dir);
  seg.durable = drained && seg.recovered >= 0 &&
                static_cast<uint64_t>(seg.recovered) >= seg.max_acked;
  if (!seg.durable) {
    std::fprintf(stderr,
                 "dsigbench: DURABILITY MISMATCH drained=%d recovered_seq=%lld "
                 "max_acked_seq=%llu\n",
                 drained ? 1 : 0, static_cast<long long>(seg.recovered),
                 static_cast<unsigned long long>(seg.max_acked));
  }
  return seg;
}

// Each segment's untraced samples of one request kind (-1 = all).
Samples::Quantile SegmentMedian(const std::vector<Segment>& segments,
                                int kind) {
  std::vector<const Samples*> slices;
  for (const Segment& seg : segments) {
    slices.push_back(kind < 0 ? &seg.untraced.latency
                              : &seg.untraced.by_kind[kind]);
  }
  return MedianOfP50s(slices);
}

}  // namespace

void RunServe(const Args& args, RunOutcome* out) {
  const ServeConfig cfg = MakeConfig(args);
  Report& report = out->report;
  std::filesystem::create_directories(args.work_dir);

  // The deployment dsig_serve generates, rebuilt here for the oracle and for
  // picking update edges (same generator, seed and density).
  const RoadNetwork graph =
      MakeRandomPlanar({.num_nodes = cfg.nodes, .seed = kDatasetSeed});
  const std::vector<NodeId> objects =
      UniformDataset(graph, cfg.density, kDatasetSeed + 1);
  Workload wl;
  {
    Random rng(args.seed * 0x9e3779b97f4a7c15ull + 5);
    std::vector<NodeId> all(graph.num_nodes());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);
    const size_t hot = std::min(cfg.hot_set, all.size());
    for (size_t i = 0; i < hot; ++i) {
      std::swap(all[i], all[i + rng.NextUint64(all.size() - i)]);
    }
    wl.hot.assign(all.begin(), all.begin() + hot);
    for (EdgeId e = 0; e < graph.num_edge_slots(); ++e) {
      if (!graph.edge_removed(e)) wl.edges.push_back(e);
    }
  }

  // Several fresh deployments per run, each with its slice of the timed
  // traffic; medians across them damp a slow phase of a shared machine.
  // A traced run adds a traced window to the last deployment.
  const double untraced_s =
      (args.trace ? args.seconds / 2 : args.seconds) / cfg.setups;
  std::vector<Segment> segments;
  for (int r = 0; r < cfg.setups; ++r) {
    const bool last = r + 1 == cfg.setups;
    segments.push_back(RunSegment(cfg, args, r, objects.size(),
                                  graph.num_nodes(), untraced_s,
                                  args.trace && last ? args.seconds / 2 : 0,
                                  &wl));
    if (!segments.back().up) {
      std::fprintf(stderr, "dsigbench: could not bring up dsig_serve\n");
      out->durability_ok = false;
      out->attempted = 1;
      out->failed = 1;
      return;
    }
  }

  std::vector<double> setup_s, ready_s, rates;
  SenderStats s, traced;
  double peak_rss = 0;
  uint64_t max_acked = 0;
  out->durability_ok = true;
  for (const Segment& seg : segments) {
    setup_s.push_back(seg.setup_s);
    ready_s.push_back(seg.ready_s);
    rates.push_back(static_cast<double>(seg.untraced.completed) / seg.wall_s);
    Absorb(seg.untraced, &s);
    Absorb(seg.traced, &traced);
    peak_rss = std::max(peak_rss, seg.peak_rss_mb);
    max_acked = std::max(max_acked, seg.max_acked);
    out->durability_ok = out->durability_ok && seg.durable;
  }
  report.Set("setup_s", Median(setup_s), setup_s.size(),
             "median of spawn -> SERVE_READY + warm-up");
  report.Set("serve.ready_s", Median(ready_s), ready_s.size());
  report.Set("index_mb", segments.back().index_bytes / (1024.0 * 1024.0), 1,
             "persisted index checkpoint");

  // Oracle gate on the warm-up probes (answered before any update).
  Oracle oracle(&graph, objects);
  uint64_t mismatches = 0;
  std::vector<Probe>& first = segments.front().probes;
  if (args.falsify && !first.empty() && !first[0].response.objects.empty()) {
    first[0].response.objects[0] = oracle.FarthestObject(first[0].request.node);
  }
  for (const Segment& seg : segments) {
    for (const Probe& p : seg.probes) {
      ++out->oracle_checked;
      std::string problem;
      if (!p.answered || p.response.status != ResponseStatus::kOk) {
        problem = "probe not answered OK";
      } else if (p.request.type == RequestType::kKnn) {
        problem = oracle.CheckKnnExact(p.request.node, p.request.k,
                                       p.response.objects,
                                       p.response.distances);
      } else {
        problem = oracle.CheckRange(p.request.node, p.request.epsilon,
                                    p.response.objects);
      }
      if (!problem.empty()) {
        ++mismatches;
        std::fprintf(stderr, "dsigbench: ORACLE MISMATCH probe %llu: %s\n",
                     static_cast<unsigned long long>(p.request.id),
                     problem.c_str());
      }
    }
  }
  out->oracle_mismatches = mismatches;

  // End-to-end, from the untraced windows.
  report.Set("throughput_ops", Median(rates), s.completed,
             "median of segments: completed ops/s at the offered rate");
  report.SetQuantile("latency_p50_ms", SegmentMedian(segments, -1));
  report.SetQuantile("knn_p50_ms", SegmentMedian(segments, kKnn));
  report.SetQuantile("range_p50_ms", SegmentMedian(segments, kRange));
  report.Set("peak_rss_mb", peak_rss, segments.size(),
             "largest server VmHWM");
  report.SetQuantile("latency_p99_ms", s.latency.Tail(0.99));
  report.SetQuantile("join_p50_ms", s.by_kind[kJoin].Tail(0.5));
  report.SetQuantile("update_p50_ms", s.by_kind[kUpdate].Tail(0.5));

  // Per-layer, over both windows.
  SenderStats both = s;
  Absorb(traced, &both);
  report.SetQuantile("serve.send_lag_p99_ms", both.send_lag.Tail(0.99));
  report.SetQuantile("serve.client_rtt_p50_ms", both.rtt.Tail(0.5));
  report.SetQuantile("serve.client_rtt_p99_ms", both.rtt.Tail(0.99));
  report.Set("serve.shed", static_cast<double>(s.shed + traced.shed));
  report.Set("serve.retries", static_cast<double>(s.retries + traced.retries));
  report.Set("serve.timeouts",
             static_cast<double>(s.timeouts + traced.timeouts));
  report.Set("serve.reconnects",
             static_cast<double>(s.reconnects + traced.reconnects));
  report.Set("serve.degraded",
             static_cast<double>(s.degraded + traced.degraded));
  report.Set("serve.deadline_exceeded",
             static_cast<double>(s.deadline_exceeded + traced.deadline_exceeded));
  const uint64_t acked = s.updates_acked + traced.updates_acked;
  report.Set("core.update.rows_rewritten_per_update",
             acked == 0 ? 0
                        : static_cast<double>(s.rows_rewritten +
                                              traced.rows_rewritten) /
                              static_cast<double>(acked),
             acked);
  report.Set("core.update.epoch_lag_max", traced.epoch_lag_max, 1,
             "sampled from kStats during the traced window");
  const Segment& last = segments.back();
  if (last.stats.ok()) {
    // Server-side figures come from the last server's own (log-bucketed)
    // registry: the only view of them from outside the process.
    const StatusOr<Response>& stats = last.stats;
    const std::string& text = stats->text;
    const double exec_p99 = stats->window.p99_ms;
    const double queued_p99 = stats->window.queued_p99_ms;
    report.Set("serve.server_exec_p99_ms", exec_p99, stats->window.count,
               "server 60 s window");
    report.Set("serve.queued_p99_ms", queued_p99, stats->window.count,
               "server 60 s window");
    Samples client = last.untraced.latency;
    client.Append(last.traced.latency);
    const Samples::Quantile client_p99 = client.Tail(0.99);
    report.Set("serve.unattributed_p99_ms",
               client_p99.value - (exec_p99 + queued_p99), client_p99.n,
               "client p99 - (server exec p99 + queued p99)");
    const double leaders = JsonValue(text, "serve.coalesce.leaders");
    const double followers = JsonValue(text, "serve.coalesce.followers");
    report.Set("serve.coalesce_follower_ratio",
               leaders + followers > 0 ? followers / (leaders + followers) : 0,
               static_cast<size_t>(leaders + followers));
    report.Set("io.wal.fsync_ms_p50", JsonValue(text, "wal.fsync_ms", "p50"),
               static_cast<size_t>(JsonValue(text, "wal.fsync_ms", "count")),
               "server histogram");
    report.Set("io.wal.checkpoints", JsonValue(text, "wal.checkpoints"));
    report.Set("io.persist.save_index_ms",
               JsonValue(text, "persist.save_index_ms", "mean"),
               static_cast<size_t>(
                   JsonValue(text, "persist.save_index_ms", "count")),
               "mean of server saves");
  }
  if (args.trace) {
    const double untraced_p50 = s.latency.Tail(0.5).value;
    const double traced_p50 = traced.latency.Tail(0.5).value;
    report.Set("trace.overhead_ratio",
               untraced_p50 > 0 ? traced_p50 / untraced_p50 : 0,
               traced.latency.size(), "traced / untraced latency p50");
  }

  out->attempted = s.arrivals + traced.arrivals + out->oracle_checked;
  out->failed = s.failed + traced.failed + mismatches +
                (out->durability_ok ? 0 : 1);
  const double failed_ratio =
      static_cast<double>(out->failed) / static_cast<double>(out->attempted);
  report.Set("ok_ratio", 1.0 - failed_ratio, out->attempted);
  report.Set("failed_ratio", failed_ratio, out->attempted);

  out->env["nodes"] = std::to_string(graph.num_nodes());
  out->env["objects"] = std::to_string(objects.size());
  out->env["loop"] = "open (Poisson)";
  out->env["offered_rate"] = JsonNumber(cfg.rate);
  out->env["senders"] = std::to_string(cfg.senders);
  out->env["labels"] = "absent";
  out->env["labels_stale"] = "false";
  out->env["max_acked_seq"] = std::to_string(max_acked);
  out->env["recovered_seq"] = std::to_string(last.recovered);
}

}  // namespace dsigbench
