// The HTTP path next to its loopback floor, in one process. Each rep moves
// the same 60 MB document twice:
//   raw  — over a raw loopback socket into a buffer sized to the document
//          up front (allocated and faulted in once, before the reps), then
//          one acknowledging byte back: the kernel's copies and the
//          syscalls, which any transport of the bytes pays;
//   http — HttpCall POSTing it to a path the HttpServer does not route, so
//          the server reads the whole body and answers 404 without running
//          a handler: the HTTP core's own cost on top of that floor.
// Both arms time connect to final byte received, alternate every rep (each
// goes first in every other one) and run after one untimed warm-up rep. The
// binary prints each arm's median of 9 reps and their ratio. It is
// report-only: no bound decides the exit code, since one would flap on a
// shared runner. It exits 2 when an arm fails to run.
//
//   ./build/bench/bench_http_path

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/http/http.h"

namespace xmlproj {
namespace {

constexpr size_t kDocBytes = 60u * 1000 * 1000;
constexpr int kReps = 9;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];  // kReps is odd
}

int ConnectLoopback(uint16_t port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// The floor's receiving end: per connection, reads exactly kDocBytes into
// its buffer and answers one byte, 1 when all of them arrived.
class RawSink {
 public:
  RawSink() = default;
  ~RawSink() {
    if (listen_fd_ < 0) return;
    shutdown(listen_fd_, SHUT_RDWR);  // wakes the accept below
    if (thread_.joinable()) thread_.join();
    close(listen_fd_);
  }
  RawSink(const RawSink&) = delete;
  RawSink& operator=(const RawSink&) = delete;

  bool Start() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        listen(listen_fd_, 1) != 0 ||
        getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      return false;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread(&RawSink::Serve, this);
    return true;
  }
  uint16_t port() const { return port_; }

 private:
  void Serve() {
    for (;;) {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      size_t got = 0;
      while (got < kDocBytes) {
        ssize_t n = recv(fd, buffer_.data() + got, kDocBytes - got, 0);
        if (n <= 0) break;
        got += static_cast<size_t>(n);
      }
      const char ack = got == kDocBytes ? 1 : 0;
      (void)!send(fd, &ack, 1, MSG_NOSIGNAL);
      close(fd);
    }
  }

  std::string buffer_ = std::string(kDocBytes, '\0');
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

bool RawRep(uint16_t port, const std::string& doc, double* ms) {
  const auto start = std::chrono::steady_clock::now();
  int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  size_t sent = 0;
  while (sent < doc.size()) {
    ssize_t n = send(fd, doc.data() + sent, doc.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  char ack = 0;
  const bool ok = sent == doc.size() && recv(fd, &ack, 1, 0) == 1 && ack == 1;
  close(fd);
  *ms = MsSince(start);
  if (!ok) std::fprintf(stderr, "raw arm: transfer failed\n");
  return ok;
}

bool HttpRep(uint16_t port, const std::string& doc, double* ms) {
  HttpClientOptions options;
  options.timeout_ms = 60000;
  HttpClientResult result;
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  const bool ok = HttpCall(port, "POST", "/unrouted", doc, "application/xml",
                           &result, options, &error);
  *ms = MsSince(start);
  if (!ok || result.status != 404) {
    std::fprintf(stderr, "http arm: %s (status %d)\n",
                 ok ? "unexpected status" : error.c_str(), result.status);
    return false;
  }
  return true;
}

int Run() {
  RawSink sink;
  if (!sink.Start()) {
    std::fprintf(stderr, "raw arm: cannot listen on loopback\n");
    return 2;
  }
  HttpServer server;
  server.Handle("GET", "/healthz",
                [](const HttpRequest&) { return TextResponse(200, "ok\n"); });
  HttpServerOptions server_options;
  server_options.worker_threads = 1;
  server_options.max_body_bytes = kDocBytes;
  server_options.connection_deadline_ms = 60000;
  std::string error;
  if (!server.Start(server_options, &error)) {
    std::fprintf(stderr, "http arm: %s\n", error.c_str());
    return 2;
  }

  const std::string doc(kDocBytes, 'x');
  std::vector<double> raw_ms, http_ms;
  for (int rep = -1; rep < kReps; ++rep) {
    double raw = 0, http = 0;
    const bool raw_first = rep % 2 == 0;
    bool ok = raw_first ? RawRep(sink.port(), doc, &raw) &&
                              HttpRep(server.port(), doc, &http)
                        : HttpRep(server.port(), doc, &http) &&
                              RawRep(sink.port(), doc, &raw);
    if (!ok) return 2;
    if (rep < 0) continue;  // warm-up
    raw_ms.push_back(raw);
    http_ms.push_back(http);
  }
  server.Stop();

  const double mb = static_cast<double>(kDocBytes) / 1e6;
  const double raw = Median(raw_ms);
  const double http = Median(http_ms);
  std::printf("bench_http_path: %.1f MB per rep, median of %d alternating reps\n",
              mb, kReps);
  std::printf("raw loopback socket    %8.1f ms  %7.0f MB/s\n", raw,
              mb / (raw / 1000));
  std::printf("HttpCall POST -> 404   %8.1f ms  %7.0f MB/s\n", http,
              mb / (http / 1000));
  std::printf("HTTP / raw             %8.2fx\n", http / raw);
  return 0;
}

}  // namespace
}  // namespace xmlproj

int main() { return xmlproj::Run(); }
