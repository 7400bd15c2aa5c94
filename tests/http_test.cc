// Tests for the reusable loopback HTTP core (common/http/http.h):
// routing (exact match, 404, 405 + Allow), query-param decoding, POST
// bodies (round-trip, 413 over the cap or past what can be reserved,
// Expect: 100-continue, bytes past Content-Length ignored, a stalled
// body cut off with 408), protocol errors (malformed request line, a
// head over the cap, chunked transfer → 501), concurrent requests across
// worker threads, prompt stop with an open connection, a response write
// cut off when the client stops reading, the capped blocking client
// against fake servers (a body cut short of its Content-Length fails,
// one without a length runs to EOF), and W3C trace context: strict
// traceparent parsing (hostile headers mint fresh, never 500, never
// propagate), request/response trace echo, request-id hygiene, and the
// per-request observer hook, whose latency runs from accept (the wait
// for a worker counts) to the end of the response write.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/http/http.h"

namespace xmlproj {
namespace {

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string RawRequest(uint16_t port, const std::string& request) {
  int fd = ConnectTo(port);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// A fake server on an ephemeral port for one exchange: it accepts one
// connection, reads the request head, writes `reply` verbatim and closes.
class OneShotServer {
 public:
  explicit OneShotServer(std::string reply) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
        ::listen(listen_fd_, 1) == 0 &&
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
            0) {
      port_ = ntohs(addr.sin_port);
    }
    thread_ = std::thread([this, reply = std::move(reply)] {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string request;
      char buf[4096];
      while (request.find("\r\n\r\n") == std::string::npos) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        request.append(buf, static_cast<size_t>(n));
      }
      size_t sent = 0;
      while (sent < reply.size()) {
        ssize_t n = ::send(fd, reply.data() + sent, reply.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<size_t>(n);
      }
      ::close(fd);
    });
  }
  ~OneShotServer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes an accept nobody answered
    thread_.join();
    ::close(listen_fd_);
  }
  OneShotServer(const OneShotServer&) = delete;
  OneShotServer& operator=(const OneShotServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

// A server with an echo route and a greeting route, started on an
// ephemeral port.
class HttpTest : public ::testing::Test {
 protected:
  void StartServer(HttpServerOptions options = {}) {
    server_.Handle("GET", "/hello", [](const HttpRequest& request) {
      std::string who = request.QueryParam("who");
      return TextResponse(200, "hello " + (who.empty() ? "world" : who));
    });
    server_.Handle("POST", "/echo", [](const HttpRequest& request) {
      HttpResponse response;
      response.content_type = std::string(request.Header("content-type"));
      response.body = request.body;
      return response;
    });
    std::string error;
    ASSERT_TRUE(server_.Start(options, &error)) << error;
  }

  HttpServer server_;
};

TEST_F(HttpTest, RoutesAndQueryParams) {
  StartServer();
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/hello", {}, {}, &result));
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "hello world");

  // Percent-decoding and '+' decoding in query values.
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/hello?who=big%20spender+x",
                       {}, {}, &result));
  EXPECT_EQ(result.body, "hello big spender x");
}

TEST_F(HttpTest, PostBodyRoundTrip) {
  StartServer();
  std::string body(100000, 'x');
  body[12345] = '\0';  // binary-safe
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(server_.port(), "POST", "/echo", body,
                       "application/octet-stream", &result));
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, body);
  EXPECT_EQ(result.Header("content-type"), "application/octet-stream");
}

TEST_F(HttpTest, UnknownPathIs404) {
  StartServer();
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/nope", {}, {}, &result));
  EXPECT_EQ(result.status, 404);
}

TEST_F(HttpTest, WrongMethodIs405WithAllow) {
  StartServer();
  std::string response =
      RawRequest(server_.port(), "DELETE /echo HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("405"), std::string::npos);
  EXPECT_NE(response.find("Allow: POST"), std::string::npos);
}

TEST_F(HttpTest, MalformedRequestLineIs400) {
  StartServer();
  std::string response = RawRequest(server_.port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_F(HttpTest, ChunkedTransferIs501) {
  StartServer();
  std::string response = RawRequest(
      server_.port(),
      "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_NE(response.find("501"), std::string::npos);
}

TEST_F(HttpTest, BodyOverCapIs413BeforeBodyRead) {
  HttpServerOptions options;
  options.max_body_bytes = 1024;
  StartServer(options);
  // Declare 1 MiB but never send it: the cap must trip on the declared
  // Content-Length alone.
  std::string response = RawRequest(
      server_.port(),
      "POST /echo HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n");
  EXPECT_NE(response.find("413"), std::string::npos);
}

// The head cap holds even when one read could return more than it: a
// 9,000-byte head sent in one write is refused, not parsed.
TEST_F(HttpTest, HeadOverTheCapInOneWriteIs400) {
  StartServer();
  std::string head = "GET /hello HTTP/1.1\r\nX-Pad: " +
                     std::string(9000 - 32, 'a') + "\r\n\r\n";
  ASSERT_GT(head.size(), kHttpMaxHeaderBytes);
  std::string response = RawRequest(server_.port(), head);
  EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response.substr(0, 64);
}

// A body that stalls is cut off with 408 once connection_deadline_ms
// passes, however few of its bytes arrived.
TEST_F(HttpTest, StalledBodyIs408AtTheConnectionDeadline) {
  HttpServerOptions options;
  options.connection_deadline_ms = 300;
  StartServer(options);
  auto start = std::chrono::steady_clock::now();
  std::string response = RawRequest(
      server_.port(), "POST /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(response.rfind("HTTP/1.1 408", 0), 0u) << response;
  EXPECT_GE(elapsed.count(), 250);
  EXPECT_LT(elapsed.count(), 5000);
}

// Bytes past the declared Content-Length are not part of the body.
TEST_F(HttpTest, BytesPastContentLengthAreIgnored) {
  StartServer();
  std::string response =
      RawRequest(server_.port(),
                 "POST /echo HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiEXTRA");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Length: 2\r\n"), std::string::npos);
  ASSERT_GE(response.size(), 6u);
  EXPECT_EQ(response.substr(response.size() - 6), "\r\n\r\nhi") << response;
}

// Content-Length is the client's claim, and the cap may allow more than
// the allocator can give: a length that cannot be reserved is refused
// with 413 instead of throwing out of the worker, and serving goes on.
TEST_F(HttpTest, UnbufferableContentLengthIs413AndServingGoesOn) {
  HttpServerOptions options;
  options.max_body_bytes = SIZE_MAX;
  options.connection_deadline_ms = 300;
  StartServer(options);
  std::string response = RawRequest(
      server_.port(),
      "POST /echo HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 413", 0), 0u) << response;
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/hello", {}, {}, &result));
  EXPECT_EQ(result.status, 200);
}

TEST_F(HttpTest, ExpectContinueIsHonored) {
  StartServer();
  int fd = ConnectTo(server_.port());
  ASSERT_GE(fd, 0);
  std::string head =
      "POST /echo HTTP/1.1\r\nContent-Length: 4\r\n"
      "Expect: 100-continue\r\n\r\n";
  ASSERT_EQ(::send(fd, head.data(), head.size(), 0),
            static_cast<ssize_t>(head.size()));
  // The interim response must arrive before we send the body.
  char buf[256];
  ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  ASSERT_GT(n, 0);
  EXPECT_NE(std::string(buf, static_cast<size_t>(n)).find("100 Continue"),
            std::string::npos);
  ASSERT_EQ(::send(fd, "ping", 4, 0), 4);
  std::string response;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("200"), std::string::npos);
  EXPECT_NE(response.find("ping"), std::string::npos);
}

TEST_F(HttpTest, ConcurrentRequestsAcrossWorkers) {
  HttpServerOptions options;
  options.worker_threads = 4;
  StartServer(options);
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &ok] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        std::string body = "t";
        body += std::to_string(t);
        body += "i";
        body += std::to_string(i);
        HttpClientResult result;
        if (HttpCall(server_.port(), "POST", "/echo", body, "text/plain",
                     &result) &&
            result.status == 200 && result.body == body) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kThreads * kRequestsPerThread);
  EXPECT_EQ(server_.requests_served(), kThreads * kRequestsPerThread);
}

TEST_F(HttpTest, StopIsPromptWithOpenConnection) {
  StartServer();
  // Open a connection and send nothing: a worker is parked in a socket
  // wait on it.
  int fd = ConnectTo(server_.port());
  ASSERT_GE(fd, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto start = std::chrono::steady_clock::now();
  server_.Stop();
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ::close(fd);
  // The self-pipe wakes every wait immediately; the bound is generous
  // for CI but far below any poll-interval floor.
  EXPECT_LT(elapsed.count(), 500);
  EXPECT_FALSE(server_.running());
}

TEST_F(HttpTest, ClientResponseCapFailsCleanly) {
  server_.Handle("GET", "/big", [](const HttpRequest&) {
    return TextResponse(200, std::string(1 << 20, 'b'));
  });
  std::string error;
  ASSERT_TRUE(server_.Start({}, &error)) << error;
  HttpClientOptions options;
  options.max_response_bytes = 1024;
  HttpClientResult result;
  EXPECT_FALSE(HttpCall(server_.port(), "GET", "/big", {}, {}, &result,
                        options, &error));
  EXPECT_NE(error.find("response"), std::string::npos) << error;
}

TEST_F(HttpTest, ClientTimesOutOnSilentServer) {
  // A bare listening socket that never accepts data exchange: the
  // client must give up by its deadline, not hang.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  HttpClientOptions options;
  options.timeout_ms = 200;
  HttpClientResult result;
  std::string error;
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(HttpCall(ntohs(addr.sin_port), "GET", "/", {}, {}, &result,
                        options, &error));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 2000);
  ::close(fd);
}

// A response that ends before its declared Content-Length is a failed
// call, not a short body: a cut-off document must never pass for a
// whole one.
TEST(HttpClientTest, BodyCutShortOfItsContentLengthFails) {
  OneShotServer fake(
      "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789");
  ASSERT_NE(fake.port(), 0);
  HttpClientResult result;
  std::string error;
  EXPECT_FALSE(HttpCall(fake.port(), "GET", "/", {}, {}, &result, {}, &error));
  EXPECT_EQ(error, "truncated response");
}

// Without a Content-Length the body runs to the server's close.
TEST(HttpClientTest, ResponseWithoutContentLengthIsReadToEof) {
  OneShotServer fake(
      "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nno length, read to EOF");
  ASSERT_NE(fake.port(), 0);
  HttpClientResult result;
  std::string error;
  ASSERT_TRUE(HttpCall(fake.port(), "GET", "/", {}, {}, &result, {}, &error))
      << error;
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "no length, read to EOF");
}

// --------------------------------------------------------------------
// W3C trace context.

constexpr char kGoodTraceparent[] =
    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";

bool IsLowerHexString(const std::string& s) {
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return !s.empty();
}

TEST(TraceparentTest, ParsesTheCanonicalHeader) {
  TraceContext context;
  ASSERT_TRUE(ParseTraceparent(kGoodTraceparent, &context));
  EXPECT_EQ(context.trace_id, "4bf92f3577b34da6a3ce929d0e0e4736");
  // The header's span id is the *caller's* span: it lands in parent_id,
  // and span_id stays empty for the receiver to mint.
  EXPECT_EQ(context.parent_id, "00f067aa0ba902b7");
  EXPECT_TRUE(context.span_id.empty());
  EXPECT_TRUE(context.sampled);

  TraceContext unsampled;
  ASSERT_TRUE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", &unsampled));
  EXPECT_FALSE(unsampled.sampled);
}

TEST(TraceparentTest, RejectsHostileHeadersWithoutTouchingOut) {
  const char* hostile[] = {
      "",
      "garbage",
      // Wrong version: unknown and the reserved "ff".
      "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
      // Short / long trace id.
      "00-4bf92f3577b34da6-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736ab-00f067aa0ba902b7-01",
      // Short span id.
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa-01",
      // All-zero ids are explicitly invalid in the spec.
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
      // Uppercase hex is a violation, not a variant.
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
      // Oversized: one trailing byte past the 55.
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
      // Wrong separators.
      "00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01",
      // Missing flags field.
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
  };
  for (const char* header : hostile) {
    TraceContext context;
    context.trace_id = "sentinel";
    EXPECT_FALSE(ParseTraceparent(header, &context)) << header;
    EXPECT_EQ(context.trace_id, "sentinel") << header;
  }
}

TEST(TraceparentTest, MintAndFormatRoundTrip) {
  TraceContext minted = MintTraceContext();
  EXPECT_EQ(minted.trace_id.size(), 32u);
  EXPECT_EQ(minted.span_id.size(), 16u);
  EXPECT_TRUE(IsLowerHexString(minted.trace_id));
  EXPECT_TRUE(IsLowerHexString(minted.span_id));
  EXPECT_NE(minted.trace_id, std::string(32, '0'));
  EXPECT_NE(MintTraceId(), MintTraceId());

  std::string header = FormatTraceparent(minted);
  EXPECT_EQ(header.size(), 55u);
  TraceContext parsed;
  ASSERT_TRUE(ParseTraceparent(header, &parsed));
  EXPECT_EQ(parsed.trace_id, minted.trace_id);
  EXPECT_EQ(parsed.parent_id, minted.span_id);
}

TEST_F(HttpTest, ValidTraceparentIsContinuedNotCopied) {
  StartServer();
  HttpClientOptions options;
  options.traceparent = kGoodTraceparent;
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/hello", {}, {}, &result,
                       options));
  EXPECT_EQ(result.status, 200);

  TraceContext echoed;
  ASSERT_TRUE(
      ParseTraceparent(result.Header("traceparent"), &echoed));
  // Same trace, new span: the response's span id is the server's, not a
  // copy of ours.
  EXPECT_EQ(echoed.trace_id, "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_NE(echoed.parent_id, "00f067aa0ba902b7");
  // Without a client x-request-id, the request id is the server span.
  EXPECT_EQ(result.Header("x-request-id"), echoed.parent_id);
}

TEST_F(HttpTest, HostileTraceparentMintsFreshAndNever500s) {
  StartServer();
  const char* hostile[] = {
      "00-00000000000000000000000000000000-0000000000000000-01",
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
      "zz-not-a-trace-at-all",
  };
  for (const char* header : hostile) {
    std::string response = RawRequest(
        server_.port(), std::string("GET /hello HTTP/1.1\r\ntraceparent: ") +
                            header + "\r\n\r\n");
    // Hostile telemetry must not affect the request outcome...
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << header;
    // ...and must not echo back: the response carries a fresh, valid,
    // unrelated context.
    size_t at = response.find("traceparent: ");
    ASSERT_NE(at, std::string::npos) << header;
    std::string echoed = response.substr(at + 13, 55);
    TraceContext context;
    ASSERT_TRUE(ParseTraceparent(echoed, &context)) << echoed;
    EXPECT_EQ(response.find("00000000000000000000000000000000"),
              std::string::npos)
        << header;
  }
  // The oversized case: 4 KiB of traceparent must not break parsing.
  std::string big(4096, 'a');
  std::string response = RawRequest(
      server_.port(),
      "GET /hello HTTP/1.1\r\ntraceparent: " + big + "\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
}

TEST_F(HttpTest, RequestIdIsEchoedWhenSaneReplacedWhenNot) {
  StartServer();
  std::string response = RawRequest(
      server_.port(),
      "GET /hello HTTP/1.1\r\nX-Request-Id: req-42.alpha_7\r\n\r\n");
  EXPECT_NE(response.find("X-Request-Id: req-42.alpha_7"), std::string::npos);

  // Hostile ids (header-injection bytes, oversized) are replaced by the
  // server's span id, never echoed.
  std::string hostile = RawRequest(
      server_.port(),
      "GET /hello HTTP/1.1\r\nX-Request-Id: evil id\twith spaces\r\n\r\n");
  EXPECT_EQ(hostile.find("evil"), std::string::npos);
  EXPECT_NE(hostile.find("X-Request-Id: "), std::string::npos);

  std::string oversized = RawRequest(
      server_.port(), "GET /hello HTTP/1.1\r\nX-Request-Id: " +
                          std::string(200, 'a') + "\r\n\r\n");
  EXPECT_EQ(oversized.find(std::string(200, 'a')), std::string::npos);
  EXPECT_NE(oversized.find("X-Request-Id: "), std::string::npos);
}

TEST_F(HttpTest, ErrorResponsesCarryTheTraceContextToo) {
  StartServer();
  HttpClientOptions options;
  options.traceparent = kGoodTraceparent;
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/nope", {}, {}, &result,
                       options));
  EXPECT_EQ(result.status, 404);
  TraceContext echoed;
  ASSERT_TRUE(ParseTraceparent(result.Header("traceparent"), &echoed));
  EXPECT_EQ(echoed.trace_id, "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_FALSE(result.Header("x-request-id").empty());
}

TEST_F(HttpTest, ObserverSeesEveryRequestWithItsTrace) {
  std::mutex mu;
  std::vector<std::string> seen;  // "path status trace_id"
  server_.SetObserver([&](const HttpRequest& request,
                          const HttpResponse& response, uint64_t start_ns,
                          uint64_t duration_ns, bool) {
    EXPECT_GT(start_ns, 0u);
    EXPECT_TRUE(request.trace.valid());
    EXPECT_EQ(request.trace.span_id.size(), 16u);
    (void)duration_ns;  // may be 0 on a coarse clock; no assertion
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(request.path + " " + std::to_string(response.status) +
                   " " + request.trace.trace_id);
  });
  StartServer();

  HttpClientOptions options;
  options.traceparent = kGoodTraceparent;
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/hello", {}, {}, &result,
                       options));
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/missing", {}, {}, &result));

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "/hello 200 4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_EQ(seen[1].substr(0, 13), "/missing 404 ");
}

// A request's clock starts when its connection is accepted, so the time
// it waits for a busy worker is part of its observed latency. The read
// deadline still starts when a worker picks the connection up: a short
// one does not cut off a request that only queued.
TEST_F(HttpTest, ObservedLatencyIncludesTheWaitForAWorker) {
  std::promise<void> slow_started;
  server_.Handle("GET", "/slow", [&slow_started](const HttpRequest&) {
    slow_started.set_value();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return TextResponse(200, "slow");
  });
  std::mutex mu;
  std::map<std::string, uint64_t> duration_ns;
  server_.SetObserver([&](const HttpRequest& request, const HttpResponse&,
                          uint64_t, uint64_t duration, bool) {
    std::lock_guard<std::mutex> lock(mu);
    duration_ns[request.path] = duration;
  });
  HttpServerOptions options;
  options.worker_threads = 1;
  options.connection_deadline_ms = 200;
  StartServer(options);

  std::thread slow([this] {
    HttpClientResult result;
    EXPECT_TRUE(HttpCall(server_.port(), "GET", "/slow", {}, {}, &result));
    EXPECT_EQ(result.status, 200);
  });
  slow_started.get_future().wait();
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(server_.port(), "GET", "/hello", {}, {}, &result));
  EXPECT_EQ(result.status, 200);
  slow.join();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(duration_ns.count("/hello"), 1u);
  EXPECT_GE(duration_ns["/hello"], uint64_t{150} * 1000 * 1000);
}

// A request's clock stops after the last byte of its response is
// written: a client that waits before reading a response too large for
// the socket buffers holds the write open, and that wait is latency.
TEST_F(HttpTest, ObservedLatencyIncludesTheResponseWrite) {
  constexpr size_t kResponseBytes = 32u << 20;
  server_.Handle("GET", "/big", [](const HttpRequest&) {
    return TextResponse(200, std::string(kResponseBytes, 'b'));
  });
  std::mutex mu;
  uint64_t observed_ns = 0;
  bool observed_written = false;
  server_.SetObserver([&](const HttpRequest& request, const HttpResponse&,
                          uint64_t, uint64_t duration, bool written) {
    std::lock_guard<std::mutex> lock(mu);
    if (request.path != "/big") return;
    observed_ns = duration;
    observed_written = written;
  });
  StartServer();

  int fd = ConnectTo(server_.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /big HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  size_t received = 0;
  char buf[1 << 16];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    received += static_cast<size_t>(n);
  }
  ::close(fd);
  EXPECT_GT(received, kResponseBytes);

  // The server closes after its observer ran, so the EOF above orders it.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_GE(observed_ns, uint64_t{250} * 1000 * 1000);
  EXPECT_TRUE(observed_written);
}

// The write has a deadline of its own: a client that never reads a
// response too large for the socket buffers frees the worker once
// connection_deadline_ms passes, and the request is still observed, as
// a response that was not written.
TEST_F(HttpTest, ClientThatStopsReadingFreesTheWorkerAtTheWriteDeadline) {
  constexpr size_t kResponseBytes = 32u << 20;
  server_.Handle("GET", "/big", [](const HttpRequest&) {
    return TextResponse(200, std::string(kResponseBytes, 'b'));
  });
  std::mutex mu;
  std::condition_variable observed_cv;
  bool observed = false;
  uint64_t observed_ns = 0;
  bool observed_written = true;
  server_.SetObserver([&](const HttpRequest& request, const HttpResponse&,
                          uint64_t, uint64_t duration, bool written) {
    if (request.path != "/big") return;
    std::lock_guard<std::mutex> lock(mu);
    observed = true;
    observed_ns = duration;
    observed_written = written;
    observed_cv.notify_all();
  });
  HttpServerOptions options;
  options.worker_threads = 1;
  options.connection_deadline_ms = 300;
  StartServer(options);

  int fd = ConnectTo(server_.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /big HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  // The client never reads, so the write stalls once the buffers fill.
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(observed_cv.wait_for(lock, std::chrono::seconds(5),
                                     [&] { return observed; }));
    EXPECT_GE(observed_ns, uint64_t{250} * 1000 * 1000);
    EXPECT_FALSE(observed_written);
  }
  // The server's one worker is free again.
  HttpClientResult result;
  EXPECT_TRUE(HttpCall(server_.port(), "GET", "/hello", {}, {}, &result));
  EXPECT_EQ(result.status, 200);
  ::close(fd);
}

TEST_F(HttpTest, StartIsRetriableAfterPortConflict) {
  StartServer();
  HttpServer second;
  second.Handle("GET", "/x", [](const HttpRequest&) {
    return TextResponse(200, "x");
  });
  HttpServerOptions conflicting;
  conflicting.port = server_.port();
  std::string error;
  EXPECT_FALSE(second.Start(conflicting, &error));
  EXPECT_FALSE(error.empty());
  // Retry on a free port succeeds and routes are intact (not
  // double-registered).
  ASSERT_TRUE(second.Start({}, &error)) << error;
  HttpClientResult result;
  ASSERT_TRUE(HttpCall(second.port(), "GET", "/x", {}, {}, &result));
  EXPECT_EQ(result.status, 200);
  EXPECT_EQ(result.body, "x");
}

}  // namespace
}  // namespace xmlproj
