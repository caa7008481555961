// lg_client.h — closed-loop HTTP client for the looking-glass workload.
//
// `connections` client threads each hold one keep-alive connection to an
// LgServer on 127.0.0.1 and send the next GET only after the previous
// response arrived (closed loop, no think time). A connection is closed
// and reopened after `session_requests` requests: the server's fixed
// worker pool serves one connection per worker until it closes, so with
// fewer workers than clients the sessions take turns, and the wait for a
// turn shows in the latency tail. Every response is kept (deduplicated by
// path, status and body) so the caller can check each one.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

namespace perfbench {

struct LgTraffic {
  std::uint64_t requests = 0;
  std::uint64_t transport_failures = 0;  ///< connect errors, torn bodies
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> done_ns;  ///< completion time of each response

  /// (path index, status, body) -> responses seen.
  std::map<std::tuple<std::uint32_t, int, std::string>, std::uint64_t> bodies;

  void merge(LgTraffic&& other);
};

class LgClient {
 public:
  LgClient(std::uint16_t port, std::vector<std::string> paths,
           unsigned connections, std::uint64_t seed,
           std::uint64_t session_requests = 32);
  ~LgClient();
  LgClient(const LgClient&) = delete;
  LgClient& operator=(const LgClient&) = delete;

  /// Send `total` requests across the connections and wait for them.
  LgTraffic burst(std::uint64_t total);

  /// Keep sending until stop(); stop() joins and returns the traffic.
  void start();
  LgTraffic stop();

  const std::vector<std::string>& paths() const { return paths_; }

 private:
  void run(unsigned index, std::uint64_t quota, LgTraffic& out);

  std::uint16_t port_;
  std::vector<std::string> paths_;
  unsigned connections_;
  std::uint64_t seed_;
  std::uint64_t session_requests_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
  std::vector<LgTraffic> traffic_;
  std::uint64_t started_ns_ = 0;
};

}  // namespace perfbench
