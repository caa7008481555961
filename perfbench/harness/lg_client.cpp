#include "harness/lg_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "harness/trace.h"

namespace perfbench {

namespace {

int connect_loopback(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(std::size_t(n));
  }
  return true;
}

/// Read one response off `fd` (bytes past it stay in `buffer`). Returns
/// false when the connection ends before the declared body is complete.
bool read_response(int fd, std::string& buffer, int* status,
                   std::string* body) {
  auto fill = [&]() -> bool {
    char chunk[16384];
    for (;;) {
      ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer.append(chunk, std::size_t(n));
      return true;
    }
  };
  std::size_t head_end;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos)
    if (!fill()) return false;
  std::string_view head(buffer.data(), head_end);
  // "HTTP/1.1 200 OK"
  if (head.size() < 12) return false;
  *status = std::atoi(std::string(head.substr(9, 3)).c_str());
  constexpr std::string_view kLength = "\r\nContent-Length: ";
  std::size_t at = head.find(kLength);
  if (at == std::string_view::npos) return false;
  std::size_t length = std::strtoull(
      std::string(head.substr(at + kLength.size())).c_str(), nullptr, 10);
  const std::size_t body_at = head_end + 4;
  while (buffer.size() < body_at + length)
    if (!fill()) return false;
  body->assign(buffer, body_at, length);
  buffer.erase(0, body_at + length);
  return true;
}

}  // namespace

void LgTraffic::merge(LgTraffic&& other) {
  requests += other.requests;
  transport_failures += other.transport_failures;
  latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                    other.latency_ns.end());
  done_ns.insert(done_ns.end(), other.done_ns.begin(), other.done_ns.end());
  for (auto& [key, n] : other.bodies) bodies[key] += n;
}

LgClient::LgClient(std::uint16_t port, std::vector<std::string> paths,
                   unsigned connections, std::uint64_t seed,
                   std::uint64_t session_requests)
    : port_(port),
      paths_(std::move(paths)),
      connections_(connections),
      seed_(seed),
      session_requests_(session_requests) {}

LgClient::~LgClient() {
  stop_ = true;
  for (auto& t : threads_) t.join();
}

void LgClient::run(unsigned index, std::uint64_t quota, LgTraffic& out) {
  // Each connection walks the request mix in order from its own offset,
  // derived from the seed and the connection index.
  std::size_t cursor = std::size_t((seed_ * 2654435761u + index * 7919u) %
                                   paths_.size());
  std::string buffer, body;
  while (!stop_.load(std::memory_order_relaxed) &&
         (quota == 0 || out.requests < quota)) {
    int fd = connect_loopback(port_);
    if (fd < 0) {
      ++out.transport_failures;
      ++out.requests;
      continue;
    }
    buffer.clear();
    for (std::uint64_t k = 0; k < session_requests_; ++k) {
      if (stop_.load(std::memory_order_relaxed) ||
          (quota != 0 && out.requests >= quota))
        break;
      const std::uint32_t path = std::uint32_t(cursor);
      cursor = (cursor + 1) % paths_.size();
      const std::string request =
          "GET " + paths_[path] + " HTTP/1.1\r\nHost: bench\r\n\r\n";
      const std::uint64_t t0 = now_ns();
      int status = 0;
      ++out.requests;
      if (!send_all(fd, request) || !read_response(fd, buffer, &status, &body)) {
        ++out.transport_failures;
        break;
      }
      const std::uint64_t done = now_ns();
      out.latency_ns.push_back(done - t0);
      out.done_ns.push_back(done);
      ++out.bodies[{path, status, body}];
    }
    ::close(fd);
  }
}

LgTraffic LgClient::burst(std::uint64_t total) {
  traffic_.assign(connections_, LgTraffic{});
  stop_ = false;
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections_; ++c) {
    std::uint64_t quota = total / connections_ + (c < total % connections_);
    threads.emplace_back([this, c, quota] { run(c, quota, traffic_[c]); });
  }
  for (auto& t : threads) t.join();
  LgTraffic all;
  for (auto& t : traffic_) all.merge(std::move(t));
  return all;
}

void LgClient::start() {
  traffic_.assign(connections_, LgTraffic{});
  stop_ = false;
  for (unsigned c = 0; c < connections_; ++c)
    threads_.emplace_back([this, c] { run(c, 0, traffic_[c]); });
}

LgTraffic LgClient::stop() {
  stop_ = true;
  for (auto& t : threads_) t.join();
  threads_.clear();
  LgTraffic all;
  for (auto& t : traffic_) all.merge(std::move(t));
  return all;
}

}  // namespace perfbench
