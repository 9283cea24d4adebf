#include "serve/coalesce.h"

#include <chrono>
#include <vector>

#include "obs/metrics.h"

namespace dsig {
namespace serve {
namespace {

struct CoalesceMetrics {
  obs::Counter* leaders;
  obs::Counter* followers;
  obs::Counter* follower_timeouts;
};

const CoalesceMetrics& Metrics() {
  static const CoalesceMetrics metrics = {
      obs::MetricsRegistry::Global().GetCounter("serve.coalesce.leaders"),
      obs::MetricsRegistry::Global().GetCounter("serve.coalesce.followers"),
      obs::MetricsRegistry::Global().GetCounter(
          "serve.coalesce.follower_timeouts"),
  };
  return metrics;
}

}  // namespace

bool Coalescible(const Request& request) {
  switch (request.type) {
    case RequestType::kKnn:
    case RequestType::kRange:
    case RequestType::kJoin:
      return true;
    default:
      return false;
  }
}

std::string CoalesceKey(const Request& request) {
  Request canonical = request;
  canonical.id = 0;
  canonical.trace_id = 0;
  canonical.deadline_ms = 0;
  canonical.tenant_id = 0;
  std::vector<uint8_t> bytes;
  EncodeRequest(canonical, &bytes);
  return std::string(bytes.begin(), bytes.end());
}

SingleFlight::JoinResult SingleFlight::Join(const std::string& key,
                                            const Deadline& deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = flights_.find(key);
  if (it == flights_.end()) {
    flights_[key] = std::make_shared<Flight>();
    Metrics().leaders->Add(1);
    JoinResult result;
    result.leader = true;
    return result;
  }
  // Hold the flight by value: the leader's Publish erases the map entry
  // before every follower has woken.
  std::shared_ptr<Flight> flight = it->second;
  const auto ready = [&] { return flight->done; };
  bool woke = true;
  if (deadline.infinite()) {
    flight->cv.wait(lock, ready);
  } else {
    const double remaining = deadline.remaining_millis();
    woke = remaining > 0 &&
           flight->cv.wait_for(
               lock, std::chrono::duration<double, std::milli>(remaining),
               ready);
  }
  JoinResult result;
  if (woke && flight->have_response) {
    // "Followers" are requests answered by a leader; one whose leader
    // abandoned executes on its own and is not counted.
    Metrics().followers->Add(1);
    result.ready = true;
    result.response = flight->response;
  } else if (!woke) {
    Metrics().follower_timeouts->Add(1);
  }
  return result;
}

void SingleFlight::Publish(const std::string& key, const Response& response) {
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;
    flight = it->second;
    flight->done = true;
    flight->have_response = true;
    flight->response = response;
    flights_.erase(it);
  }
  flight->cv.notify_all();
}

void SingleFlight::Abandon(const std::string& key) {
  std::shared_ptr<Flight> flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;
    flight = it->second;
    flight->done = true;
    flights_.erase(it);
  }
  flight->cv.notify_all();
}

size_t SingleFlight::OpenFlights() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

}  // namespace serve
}  // namespace dsig
