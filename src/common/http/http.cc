#include "common/http/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>

namespace xmlproj {
namespace {

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

void LowerInPlace(std::string* s) {
  for (char& c : *s) c = AsciiLower(c);
}

std::string_view StripSpaces(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string PercentDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && HexDigit(s[i + 1]) >= 0 &&
               HexDigit(s[i + 2]) >= 0) {
      out.push_back(
          static_cast<char>(HexDigit(s[i + 1]) * 16 + HexDigit(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

// Finds the raw (undecoded) value of `key` in a query string; false when
// the key is absent.
bool FindQueryValue(std::string_view query, std::string_view key,
                    std::string_view* value) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    std::string_view pair = query.substr(
        pos, amp == std::string_view::npos ? std::string_view::npos
                                           : amp - pos);
    size_t eq = pair.find('=');
    std::string_view name = eq == std::string_view::npos ? pair
                                                         : pair.substr(0, eq);
    if (name == key) {
      *value = eq == std::string_view::npos ? std::string_view()
                                            : pair.substr(eq + 1);
      return true;
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return false;
}

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Parses the request head (request line + headers, no body). Returns 0
// on success or the HTTP status to answer with.
int ParseRequestHead(std::string_view head, HttpRequest* request) {
  size_t line_end = head.find("\r\n");
  std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1) {
    return 400;
  }
  request->method = std::string(line.substr(0, sp1));
  request->target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  size_t q = request->target.find('?');
  request->path = request->target.substr(0, q);
  request->query =
      q == std::string::npos ? std::string() : request->target.substr(q + 1);
  if (request->path.empty() || request->path[0] != '/') return 400;

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t end = head.find("\r\n", pos);
    if (end == std::string_view::npos) end = head.size();
    std::string_view header = head.substr(pos, end - pos);
    pos = end + 2;
    if (header.empty()) break;
    size_t colon = header.find(':');
    if (colon == std::string_view::npos) continue;  // tolerate junk lines
    std::string name(StripSpaces(header.substr(0, colon)));
    LowerInPlace(&name);
    request->headers.emplace_back(
        std::move(name), std::string(StripSpaces(header.substr(colon + 1))));
  }
  return 0;
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out("HTTP/1.1 ");
  out.append(std::to_string(response.status));
  out.push_back(' ');
  out.append(HttpStatusReason(response.status));
  out.append("\r\nContent-Type: ");
  out.append(response.content_type);
  out.append("\r\nContent-Length: ");
  out.append(std::to_string(response.body.size()));
  for (const auto& [name, value] : response.headers) {
    out.append("\r\n");
    out.append(name);
    out.append(": ");
    out.append(value);
  }
  out.append("\r\nConnection: close\r\n\r\n");
  out.append(response.body);
  return out;
}

// Lowercase-hex-only check for traceparent fields (the spec mandates
// lowercase; uppercase is a violation, not a variant).
bool IsLowerHex(std::string_view s) {
  for (char c : s) {
    bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

bool IsAllZero(std::string_view s) {
  for (char c : s) {
    if (c != '0') return false;
  }
  return true;
}

// A client-chosen request id is kept only when it cannot corrupt a log
// line or a response header: bounded and [A-Za-z0-9._-].
bool IsSaneRequestId(std::string_view id) {
  if (id.empty() || id.size() > 128) return false;
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string MintHex(size_t digits) {
  // Thread-local PRNG: minting must not serialize request workers, and
  // ids only need to be unique, not unpredictable.
  thread_local std::mt19937_64 rng(
      std::random_device{}() ^
      (std::hash<std::thread::id>{}(std::this_thread::get_id()) << 1));
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(digits);
  uint64_t bits = 0;
  size_t left = 0;
  bool all_zero = true;
  for (size_t i = 0; i < digits; ++i) {
    if (left == 0) {
      bits = rng();
      left = 16;
    }
    char c = kHex[bits & 0xf];
    if (c != '0') all_zero = false;
    out.push_back(c);
    bits >>= 4;
    --left;
  }
  if (all_zero) out.back() = '1';  // all-zero ids are invalid on the wire
  return out;
}

// Stamps the request's trace context from its headers (or mints one)
// and resolves the request id. Called once per parsed request, before
// any response — error responses carry the context too.
void StampRequestTrace(HttpRequest* request) {
  if (!ParseTraceparent(request->Header("traceparent"), &request->trace)) {
    request->trace = MintTraceContext();
  } else {
    request->trace.span_id = MintSpanId();
  }
  std::string_view id = request->Header("x-request-id");
  request->request_id =
      IsSaneRequestId(id) ? std::string(id) : request->trace.span_id;
}

// Echoes the request's trace context on a response unless the handler
// already set the headers itself.
void EchoTraceHeaders(const HttpRequest& request, HttpResponse* response) {
  bool has_traceparent = false;
  bool has_request_id = false;
  for (const auto& [name, value] : response->headers) {
    std::string lower(name);
    LowerInPlace(&lower);
    if (lower == "traceparent") has_traceparent = true;
    if (lower == "x-request-id") has_request_id = true;
  }
  if (!has_traceparent && request.trace.valid()) {
    response->headers.emplace_back("traceparent",
                                   FormatTraceparent(request.trace));
  }
  if (!has_request_id && !request.request_id.empty()) {
    response->headers.emplace_back("X-Request-Id", request.request_id);
  }
}

}  // namespace

bool ParseDecimalU64(std::string_view value, uint64_t* out) {
  if (value.empty()) return false;
  uint64_t parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (parsed > (UINT64_MAX - digit) / 10) return false;
    parsed = parsed * 10 + digit;
  }
  *out = parsed;
  return true;
}

bool ParseTraceparent(std::string_view header, TraceContext* out) {
  // Exactly "00-<32 hex>-<16 hex>-<2 hex>": 55 bytes. Anything else —
  // other versions (including the forbidden "ff"), extra fields,
  // oversized headers — is treated as absent rather than guessed at.
  if (header.size() != 55) return false;
  if (header[0] != '0' || header[1] != '0') return false;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') return false;
  std::string_view trace_id = header.substr(3, 32);
  std::string_view span_id = header.substr(36, 16);
  std::string_view flags = header.substr(53, 2);
  if (!IsLowerHex(trace_id) || !IsLowerHex(span_id) || !IsLowerHex(flags)) {
    return false;
  }
  if (IsAllZero(trace_id) || IsAllZero(span_id)) return false;
  out->trace_id = std::string(trace_id);
  out->parent_id = std::string(span_id);
  out->span_id.clear();
  out->sampled = (HexDigit(flags[1]) & 1) != 0;
  return true;
}

std::string FormatTraceparent(const TraceContext& context) {
  std::string out("00-");
  out.append(context.trace_id);
  out.push_back('-');
  out.append(context.span_id);
  out.append(context.sampled ? "-01" : "-00");
  return out;
}

std::string MintTraceId() { return MintHex(32); }

std::string MintSpanId() { return MintHex(16); }

TraceContext MintTraceContext() {
  TraceContext context;
  context.trace_id = MintTraceId();
  context.span_id = MintSpanId();
  return context;
}

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const auto& [n, v] : headers) {
    if (n == name) return v;
  }
  return {};
}

std::string HttpRequest::QueryParam(std::string_view key) const {
  std::string_view raw;
  if (!FindQueryValue(query, key, &raw)) return {};
  return PercentDecode(raw);
}

bool HttpRequest::HasQueryParam(std::string_view key) const {
  std::string_view raw;
  return FindQueryValue(query, key, &raw);
}

const char* HttpStatusReason(int status) {
  switch (status) {
    case 100: return "Continue";
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Status";
  }
}

HttpResponse TextResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

void HttpServer::Handle(std::string method, std::string path,
                        HttpHandler handler) {
  routes_.push_back({std::move(method), std::move(path), std::move(handler)});
}

void HttpServer::SetObserver(HttpObserver observer) {
  observer_ = std::move(observer);
}

bool HttpServer::Start(const HttpServerOptions& options, std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "server already running";
    return false;
  }
  if (routes_.empty()) {
    if (error != nullptr) *error = "no routes registered";
    return false;
  }
  if (pipe2(wake_fds_, O_CLOEXEC) != 0) {
    if (error != nullptr) *error = std::string("pipe2: ") + strerror(errno);
    return false;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + strerror(errno);
    close(wake_fds_[0]);
    close(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
    return false;
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  socklen_t len = sizeof(addr);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(fd, options.listen_backlog) < 0 ||
      getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0) {
    if (error != nullptr) {
      *error = std::string("bind/listen: ") + strerror(errno);
    }
    close(fd);
    close(wake_fds_[0]);
    close(wake_fds_[1]);
    wake_fds_[0] = wake_fds_[1] = -1;
    return false;
  }
  options_ = options;
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  requests_.store(0, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&HttpServer::AcceptLoop, this);
  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back(&HttpServer::WorkerLoop, this);
  }
  return true;
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  // One byte, never drained: every poll on the read end wakes, now and
  // for every future wait until the pipe is closed below.
  char byte = 0;
  (void)!write(wake_fds_[1], &byte, 1);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  for (int fd : pending_) close(fd);
  pending_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
  close(wake_fds_[0]);
  close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  running_.store(false, std::memory_order_release);
}

bool HttpServer::WaitReadable(int fd, int deadline_ms) const {
  int64_t deadline =
      deadline_ms > 0 ? SteadyNowMs() + deadline_ms : 0;
  while (!stop_.load(std::memory_order_acquire)) {
    struct pollfd pfds[2];
    pfds[0].fd = fd;
    pfds[0].events = POLLIN;
    pfds[0].revents = 0;
    pfds[1].fd = wake_fds_[0];
    pfds[1].events = POLLIN;
    pfds[1].revents = 0;
    int wait_ms = -1;
    if (deadline != 0) {
      int64_t remaining = deadline - SteadyNowMs();
      if (remaining <= 0) return false;
      wait_ms = static_cast<int>(remaining);
    }
    int rc = poll(pfds, 2, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pfds[1].revents != 0) return false;  // stop pipe fired
    if (rc > 0 && (pfds[0].revents & (POLLIN | POLLHUP)) != 0) return true;
    if (rc == 0 && deadline != 0) return false;  // timed out
  }
  return false;
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (!WaitReadable(listen_fd_, /*deadline_ms=*/0)) continue;
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      // Backstop only: the listen backlog bounds what can land here.
      if (pending_.size() >= 1024) {
        close(fd);
        continue;
      }
      pending_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(fd);
    close(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  uint64_t start_ns = SteadyNowNs();
  int64_t deadline = SteadyNowMs() + options_.connection_deadline_ms;
  auto remaining_ms = [deadline]() -> int {
    int64_t remaining = deadline - SteadyNowMs();
    return remaining > 0 ? static_cast<int>(remaining) : -1;
  };

  // Request head: read until the blank line, bounded in bytes and time.
  std::string buffer;
  char chunk[4096];
  size_t head_end;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() >= options_.max_header_bytes) {
      SendAll(fd, SerializeResponse(
                      TextResponse(400, "request head too large\n")));
      return;
    }
    int wait = remaining_ms();
    if (wait < 0 || !WaitReadable(fd, wait)) return;
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer closed or error before a full request
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  HttpRequest request;
  int parse_status = ParseRequestHead(buffer.substr(0, head_end + 2), &request);
  if (parse_status != 0) {
    SendAll(fd, SerializeResponse(
                    TextResponse(parse_status, "malformed request line\n")));
    return;
  }
  // From here on the request is attributable: it carries a trace
  // context (extracted or minted) that every response — errors
  // included — echoes, and the observer sees it.
  StampRequestTrace(&request);
  auto respond = [&](HttpResponse response) {
    EchoTraceHeaders(request, &response);
    if (observer_) {
      observer_(request, response, start_ns, SteadyNowNs() - start_ns);
    }
    SendAll(fd, SerializeResponse(response));
  };

  // Body, when declared. No streaming transfer encodings here.
  if (!request.Header("transfer-encoding").empty()) {
    respond(TextResponse(501, "transfer-encoding is not supported\n"));
    return;
  }
  uint64_t content_length = 0;
  std::string_view length_header = request.Header("content-length");
  if (!length_header.empty() &&
      !ParseDecimalU64(length_header, &content_length)) {
    respond(TextResponse(400, "malformed content-length\n"));
    return;
  }
  if (content_length > options_.max_body_bytes) {
    respond(TextResponse(413, "request body exceeds the configured cap\n"));
    return;
  }
  if (content_length > 0) {
    // curl sends Expect: 100-continue for large bodies and stalls ~1s
    // waiting for the interim response; answer it so uploads stream
    // immediately.
    std::string expect(request.Header("expect"));
    LowerInPlace(&expect);
    if (expect.find("100-continue") != std::string::npos) {
      if (!SendAll(fd, "HTTP/1.1 100 Continue\r\n\r\n")) return;
    }
    request.body = buffer.substr(head_end + 4);
    while (request.body.size() < content_length) {
      int wait = remaining_ms();
      if (wait < 0 || !WaitReadable(fd, wait)) {
        respond(TextResponse(408, "request body timed out\n"));
        return;
      }
      ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return;
      }
      request.body.append(chunk, static_cast<size_t>(n));
    }
    request.body.resize(content_length);  // ignore pipelined trailing bytes
  }

  respond(Dispatch(request));
}

HttpResponse HttpServer::Dispatch(const HttpRequest& request) const {
  bool path_known = false;
  std::string allowed;
  for (const Route& route : routes_) {
    if (route.path != request.path) continue;
    if (route.method == request.method) return route.handler(request);
    path_known = true;
    if (!allowed.empty()) allowed.append(", ");
    allowed.append(route.method);
  }
  if (path_known) {
    HttpResponse response = TextResponse(
        405, "method not allowed; supported: " + allowed + "\n");
    response.headers.emplace_back("Allow", allowed);
    return response;
  }
  return TextResponse(404, "unknown path\n");
}

// ---------------------------------------------------------------------
// Client.

std::string_view HttpClientResult::Header(std::string_view name) const {
  for (const auto& [n, v] : headers) {
    if (n == name) return v;
  }
  return {};
}

namespace {

// Poll-based single-fd wait for the client side (no stop pipe).
bool ClientWaitReadable(int fd, int timeout_ms) {
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int rc = poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) return false;
    return (pfd.revents & (POLLIN | POLLHUP)) != 0;
  }
}

}  // namespace

bool HttpCall(uint16_t port, const std::string& method,
              const std::string& target, std::string_view body,
              const std::string& content_type, HttpClientResult* result,
              const HttpClientOptions& options, std::string* error) {
  auto fail = [error](const char* what) {
    if (error != nullptr) *error = what;
    return false;
  };
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return fail("socket failed");
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    close(fd);
    return fail("connect failed");
  }
  std::string request(method);
  request.push_back(' ');
  request.append(target);
  request.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!options.traceparent.empty()) {
    request.append("traceparent: ");
    request.append(options.traceparent);
    request.append("\r\n");
  }
  if (!body.empty() || method == "POST" || method == "PUT") {
    if (!content_type.empty()) {
      request.append("Content-Type: ");
      request.append(content_type);
      request.append("\r\n");
    }
    request.append("Content-Length: ");
    request.append(std::to_string(body.size()));
    request.append("\r\n");
  }
  request.append("Connection: close\r\n\r\n");
  request.append(body);
  if (!SendAll(fd, request)) {
    close(fd);
    return fail("send failed");
  }

  int64_t deadline = SteadyNowMs() + options.timeout_ms;
  std::string response;
  char buf[8192];
  for (;;) {
    int64_t remaining = deadline - SteadyNowMs();
    if (remaining <= 0) {
      close(fd);
      return fail("response timed out");
    }
    if (!ClientWaitReadable(fd, static_cast<int>(remaining))) {
      close(fd);
      return fail("response timed out");
    }
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      close(fd);
      return fail("recv failed");
    }
    if (n == 0) break;
    // An interim 100 Continue can precede the real response; drop it.
    response.append(buf, static_cast<size_t>(n));
    if (response.rfind("HTTP/1.1 100", 0) == 0) {
      size_t interim_end = response.find("\r\n\r\n");
      if (interim_end != std::string::npos) {
        response.erase(0, interim_end + 4);
      }
    }
    if (response.size() > options.max_response_bytes) {
      close(fd);
      return fail("response exceeds max_response_bytes");
    }
  }
  close(fd);

  size_t line_end = response.find("\r\n");
  size_t header_end = response.find("\r\n\r\n");
  if (line_end == std::string::npos || header_end == std::string::npos) {
    return fail("truncated response");
  }
  if (result != nullptr) {
    result->status_line = response.substr(0, line_end);
    result->status = 0;
    size_t sp = result->status_line.find(' ');
    if (sp != std::string::npos) {
      int code = 0;
      for (size_t i = sp + 1;
           i < result->status_line.size() && result->status_line[i] >= '0' &&
           result->status_line[i] <= '9';
           ++i) {
        code = code * 10 + (result->status_line[i] - '0');
      }
      result->status = code;
    }
    result->headers.clear();
    size_t pos = line_end + 2;
    while (pos < header_end) {
      size_t end = response.find("\r\n", pos);
      std::string_view header(response.data() + pos, end - pos);
      pos = end + 2;
      size_t colon = header.find(':');
      if (colon == std::string_view::npos) continue;
      std::string name(StripSpaces(header.substr(0, colon)));
      LowerInPlace(&name);
      result->headers.emplace_back(
          std::move(name), std::string(StripSpaces(header.substr(colon + 1))));
    }
    result->body = response.substr(header_end + 4);
  }
  return true;
}

}  // namespace xmlproj
