// Reusable loopback HTTP/1.1 core: the plumbing that used to live inside
// obs/server.cc, extracted so the observability scrape surface and the
// projection service daemon (service/service.h) share one
// implementation — request parsing, a routing table, response writing,
// connection deadlines, POST bodies with a size cap, and a blocking
// client with capped reads.
//
// Scope and non-goals: POSIX sockets only, bound to 127.0.0.1, one
// request per connection (every response carries `Connection: close`).
// This is an operator/sidecar surface — a scrape endpoint and a
// same-host pruning service — not an internet-facing web server: no
// TLS, no keep-alive, no chunked transfer encoding (rejected with 501).
// `Expect: 100-continue` is honored so curl can stream large POST
// bodies without its 1s continue-timeout stall.
//
// Threading: Start() launches one accept thread plus
// `options.worker_threads` handler threads fed from a bounded queue, so
// a slow handler (a large /prune) does not stall scrapes. Handlers may
// therefore run concurrently and must be thread-safe. Stop() wakes
// every blocked socket wait immediately through a self-pipe — shutdown
// latency is bounded by the running handlers, not by a poll interval.
//
// This library sits below obs/ in the link order (xmlproj_obs links
// xmlproj_http): standard library + POSIX only, no other xmlproj
// dependencies.

#ifndef XMLPROJ_COMMON_HTTP_HTTP_H_
#define XMLPROJ_COMMON_HTTP_HTTP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace xmlproj {

// ---------------------------------------------------------------------
// W3C Trace Context (https://www.w3.org/TR/trace-context/).
//
// The server extracts a `traceparent` header from every request — or
// mints a fresh context when the header is absent or hostile — so each
// request carries a {trace_id, span_id, parent_id} triple the layers
// above (obs/trace.h, service/service.cc) hang request spans and log
// lines on. The client side injects the same header on outgoing calls.

struct TraceContext {
  std::string trace_id;   // 32 lowercase hex chars, not all-zero
  std::string span_id;    // 16 lowercase hex chars: *our* span
  std::string parent_id;  // the caller's span id; "" for a root span
  bool sampled = true;    // trace-flags bit 0 from the caller

  bool valid() const { return !trace_id.empty(); }
};

// Strict `traceparent` parse: exactly "00-<32 hex>-<16 hex>-<2 hex>"
// (55 bytes, lowercase hex only, version 00, ids not all-zero). On
// success fills trace_id and parent_id (the header's span id — the
// caller's span) and sampled, leaves span_id empty for the receiver to
// mint. Any deviation — bad version (incl. "ff"), short/long ids,
// uppercase, all-zero ids, oversized header — returns false and leaves
// `*out` untouched: hostile input never propagates.
bool ParseTraceparent(std::string_view header, TraceContext* out);

// "00-<trace_id>-<span_id>-01" ("-00" when !sampled). Requires a valid
// context (non-empty trace_id/span_id).
std::string FormatTraceparent(const TraceContext& context);

// Fresh random ids (thread-local PRNG seeded from std::random_device).
std::string MintTraceId();  // 32 lowercase hex, never all-zero
std::string MintSpanId();   // 16 lowercase hex, never all-zero
TraceContext MintTraceContext();

// Strict decimal parse for protocol integers (Content-Length, the
// service's numeric query params): one or more ASCII digits and nothing
// else — no sign, no whitespace — with no overflow past UINT64_MAX.
// Returns false, leaving `*out` untouched, on anything else.
bool ParseDecimalU64(std::string_view value, uint64_t* out);

// One parsed request. Header names are lowercased at parse time; values
// keep their bytes (leading/trailing whitespace stripped).
struct HttpRequest {
  std::string method;  // as received ("GET", "POST", ...)
  std::string target;  // raw request target ("/prune?workload=abc")
  std::string path;    // target up to '?' ("/prune")
  std::string query;   // after '?', "" when absent ("workload=abc")
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  // The request's trace context: continued from a valid incoming
  // `traceparent` (trace_id kept, parent_id = the caller's span id,
  // span_id freshly minted) or minted whole otherwise. Always valid by
  // the time a handler runs.
  TraceContext trace;
  // The client's `x-request-id` when present and sane (<= 128 bytes of
  // [A-Za-z0-9._-]); otherwise the request's span id. Echoed on every
  // response as X-Request-Id.
  std::string request_id;

  // First header with that (lowercase) name; "" when absent.
  std::string_view Header(std::string_view name) const;
  // Value of `key` in the query string (percent-decoding of %XX and '+';
  // the service's keys and values are plain tokens); "" when absent.
  std::string QueryParam(std::string_view key) const;
  bool HasQueryParam(std::string_view key) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  // Extra headers (e.g. {"Retry-After", "5"}); Content-Type,
  // Content-Length and Connection are emitted automatically.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

// Canonical reason phrase ("Not Found"); "Status" for unknown codes.
const char* HttpStatusReason(int status);

// Convenience builders.
HttpResponse TextResponse(int status, std::string body);
HttpResponse JsonResponse(int status, std::string body);

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

// Observation hook called once per parsed request, after the response
// is computed and before it is written: (request, response, start_ns,
// duration_ns), both times from a monotonic clock. Runs on the worker
// thread that served the request; must be thread-safe. Requests that
// die before parsing (garbage request line, oversized head) are not
// observed — there is nothing to attribute them to.
using HttpObserver = std::function<void(
    const HttpRequest&, const HttpResponse&, uint64_t start_ns,
    uint64_t duration_ns)>;

struct HttpServerOptions {
  // TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back from
  // HttpServer::port() after Start).
  uint16_t port = 0;
  // Handler threads. 1 serializes all requests (the old ObsServer
  // behavior); the service runs several so prunes overlap with scrapes.
  int worker_threads = 2;
  // Request-head cap (request line + headers). A scrape or service
  // request head fits in a line or two; anything larger is not ours.
  size_t max_header_bytes = 8192;
  // POST/PUT body cap; a declared Content-Length beyond it is refused
  // with 413 before any body byte is read.
  size_t max_body_bytes = 1 << 20;
  // Per-connection wall budget for reading the full request: a client
  // that dribbles bytes or never finishes gets cut off rather than
  // pinning a handler thread. The service raises it for big documents.
  int connection_deadline_ms = 2000;
  int listen_backlog = 16;
};

class HttpServer {
 public:
  HttpServer() = default;
  ~HttpServer() { Stop(); }
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Registers `handler` for exact-match (method, path). Must be called
  // before Start. A path registered under some method answers 405 (with
  // an Allow header) for the others; unknown paths answer 404.
  void Handle(std::string method, std::string path, HttpHandler handler);

  // Installs the per-request observation hook (see HttpObserver). Must
  // be called before Start; a default-constructed (empty) observer
  // clears it.
  void SetObserver(HttpObserver observer);

  // Binds, listens, and launches the accept + worker threads. False on
  // any failure (port in use, no routes, ...) with a description in
  // `*error`; the server is then inert and Start may be retried.
  bool Start(const HttpServerOptions& options, std::string* error);

  // Stops every thread promptly: the self-pipe wakes all socket waits
  // immediately, so latency is bounded by in-flight handlers (plus
  // one write for their queued responses), never by a poll interval.
  // Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  // The bound port (the chosen one when options.port was 0); 0 before a
  // successful Start.
  uint16_t port() const { return port_; }
  // Requests answered since Start (any status code).
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Route {
    std::string method;
    std::string path;
    HttpHandler handler;
  };

  void AcceptLoop();
  void WorkerLoop();
  void HandleConnection(int fd);
  HttpResponse Dispatch(const HttpRequest& request) const;
  // Waits for readability of `fd`, also waking on the stop pipe and
  // giving up after `deadline_ms` (<= 0: no deadline). False on stop,
  // timeout, or error.
  bool WaitReadable(int fd, int deadline_ms) const;

  std::vector<Route> routes_;
  HttpObserver observer_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] read, [1] write
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> requests_{0};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  // accepted fds awaiting a worker
};

// ---------------------------------------------------------------------
// Blocking client (127.0.0.1 only).

struct HttpClientOptions {
  int timeout_ms = 5000;
  // Cap on the bytes read off the socket (headers + body): a misbehaving
  // server cannot OOM the caller. Exceeding it fails the call.
  size_t max_response_bytes = 64u << 20;
  // Sent verbatim as a `traceparent` header when non-empty, so a
  // caller's trace context propagates across the hop (build it with
  // FormatTraceparent).
  std::string traceparent;
};

struct HttpClientResult {
  int status = 0;             // parsed from the status line (0 = none)
  std::string status_line;    // e.g. "HTTP/1.1 200 OK"
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;  // lowercased

  std::string_view Header(std::string_view name) const;
};

// One blocking HTTP/1.1 exchange against 127.0.0.1:<port>. `body` is
// sent with a Content-Length (and `content_type` when non-empty) for
// POST/PUT; pass "" for GET. False on connect/send/recv failure,
// timeout, response-size overflow, or an unparseable response —
// `*error` (nullable) says which.
bool HttpCall(uint16_t port, const std::string& method,
              const std::string& target, std::string_view body,
              const std::string& content_type, HttpClientResult* result,
              const HttpClientOptions& options = {}, std::string* error = nullptr);

}  // namespace xmlproj

#endif  // XMLPROJ_COMMON_HTTP_HTTP_H_
