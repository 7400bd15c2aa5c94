#include "common/http/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <exception>
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

// Waits until `fd` is ready for `events` (POLLIN or POLLOUT), hung up or
// in error. Also wakes when `wake_fd` (-1: none) turns readable, and
// gives up at `deadline_ms` on the steady clock (0: no deadline). False
// on wake, timeout or a poll error.
bool PollReady(int fd, short events, int wake_fd, int64_t deadline_ms) {
  for (;;) {
    struct pollfd pfds[2];
    pfds[0].fd = fd;
    pfds[0].events = events;
    pfds[0].revents = 0;
    pfds[1].fd = wake_fd;  // poll skips a negative fd
    pfds[1].events = POLLIN;
    pfds[1].revents = 0;
    int wait_ms = -1;
    if (deadline_ms != 0) {
      int64_t remaining = deadline_ms - SteadyNowMs();
      if (remaining <= 0) return false;
      wait_ms = static_cast<int>(std::min<int64_t>(remaining, INT_MAX));
    }
    int rc = poll(pfds, 2, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pfds[1].revents != 0) return false;
    if ((pfds[0].revents & (events | POLLHUP | POLLERR)) != 0) return true;
  }
}

// Writes `head` then `body` with gathered sendmsg calls, resuming after a
// partial write, so a body is never copied behind its head in user space.
// Each sendmsg is non-blocking and a poll waits only while the socket
// buffer is full, so a peer that stops reading fails the write once
// `deadline_ms` (steady clock) passes instead of holding it forever.
// MSG_NOSIGNAL: a peer that hung up fails the write instead of raising
// SIGPIPE.
bool SendAll(int fd, std::string_view head, std::string_view body,
             int64_t deadline_ms) {
  struct iovec iov[2];
  iov[0].iov_base = const_cast<char*>(head.data());
  iov[0].iov_len = head.size();
  iov[1].iov_base = const_cast<char*>(body.data());
  iov[1].iov_len = body.size();
  for (size_t i = 0; i < 2;) {
    if (iov[i].iov_len == 0) {
      ++i;
      continue;
    }
    struct msghdr message = {};
    message.msg_iov = iov + i;
    message.msg_iovlen = 2 - i;
    ssize_t n = sendmsg(fd, &message, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
      if (!PollReady(fd, POLLOUT, /*wake_fd=*/-1, deadline_ms)) return false;
      continue;
    }
    // Step past what went out: whole iovecs, then into a partial one.
    for (size_t sent = static_cast<size_t>(n); sent > 0 && i < 2; ++i) {
      size_t step = std::min(sent, iov[i].iov_len);
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + step;
      iov[i].iov_len -= step;
      sent -= step;
      if (iov[i].iov_len > 0) break;
    }
  }
  return true;
}

// What RecvSome returns when the deadline passed or a stop fired.
constexpr ssize_t kRecvTimedOut = -2;

// How far a sized body is grown ahead of the bytes that arrived. Its
// full length is reserved up front, so growing never moves it; writing
// only this far ahead keeps a peer that declares a length and then
// stalls from committing the memory it declared.
constexpr size_t kBodyGrowthBytes = 1 << 20;

// Reserves a body of the `length` its peer declared. That takes address
// space, not memory: pages are written only as bytes arrive. False for
// a length past the machine's physical memory, which could never be
// buffered and is refused before any allocation is tried, or for one
// the allocator refuses.
bool ReserveDeclaredBody(std::string* body, uint64_t length) {
  static const uint64_t physical_bytes = [] {
    long pages = sysconf(_SC_PHYS_PAGES);
    long page_size = sysconf(_SC_PAGESIZE);
    if (pages <= 0 || page_size <= 0) return UINT64_MAX;
    return static_cast<uint64_t>(pages) * static_cast<uint64_t>(page_size);
  }();
  if (length > physical_bytes) return false;
  try {
    body->reserve(length);
  } catch (const std::exception&) {  // std::bad_alloc, std::length_error
    return false;
  }
  return true;
}

// One read of up to `len` bytes into `data`. The recv comes first and a
// poll only when nothing is buffered, so bytes already in flight cost one
// syscall per read, not a poll+recv pair. Returns the byte count, 0 at
// EOF, -1 on a socket error, or kRecvTimedOut once `deadline_ms` (steady
// clock) passes, `stopping` (nullable) is set or `wake_fd` (-1: none)
// turns readable. The deadline and the stop flag are checked on every
// turn, so a peer that keeps sending outruns neither.
ssize_t RecvSome(int fd, char* data, size_t len, int64_t deadline_ms,
                 const std::atomic<bool>* stopping = nullptr,
                 int wake_fd = -1) {
  for (;;) {
    if (stopping != nullptr && stopping->load(std::memory_order_acquire)) {
      return kRecvTimedOut;
    }
    if (SteadyNowMs() >= deadline_ms) return kRecvTimedOut;
    ssize_t n = recv(fd, data, len, MSG_DONTWAIT);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return -1;
    if (!PollReady(fd, POLLIN, wake_fd, deadline_ms)) return kRecvTimedOut;
  }
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

// The status line and headers, through the blank line. The body goes
// out behind it in SendAll's gathered write; it is never appended here.
std::string SerializeResponseHead(const HttpResponse& response) {
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
  return out;
}

bool SendResponse(int fd, const HttpResponse& response, int64_t deadline_ms) {
  return SendAll(fd, SerializeResponseHead(response), response.body,
                 deadline_ms);
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
    case 507: return "Insufficient Storage";
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
      listen(fd, kHttpListenBacklog) < 0 ||
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
  for (const PendingConnection& pending : pending_) close(pending.fd);
  pending_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
  close(wake_fds_[0]);
  close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  running_.store(false, std::memory_order_release);
}

void HttpServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (!PollReady(listen_fd_, POLLIN, wake_fds_[0], /*deadline_ms=*/0)) {
      continue;
    }
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    const uint64_t accepted_ns = SteadyNowNs();
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      // Backstop only: the listen backlog bounds what can land here.
      if (pending_.size() >= 1024) {
        close(fd);
        continue;
      }
      pending_.push_back({fd, accepted_ns});
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  for (;;) {
    PendingConnection connection;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      connection = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(connection.fd, connection.accepted_ns);
    close(connection.fd);
  }
}

void HttpServer::HandleConnection(int fd, uint64_t accepted_ns) {
  // The request's clock runs from accept, the read deadline from pickup:
  // a request that queued for a worker is not cut off for it.
  const int64_t deadline = SteadyNowMs() + options_.connection_deadline_ms;
  auto receive = [&](char* data, size_t len) {
    return RecvSome(fd, data, len, deadline, &stop_, wake_fds_[0]);
  };
  // A response write gets a window of its own, from the moment the
  // response is ready: a handler that ran long does not cut it short,
  // and a client that stops reading frees the worker when the window
  // ends. Stop() does not cut it either, so a drain still delivers what
  // the running handlers computed.
  auto write_response = [&](const HttpResponse& response) {
    return SendResponse(fd, response,
                        SteadyNowMs() + options_.connection_deadline_ms);
  };

  // Request head: read until the blank line, bounded in bytes and time.
  // The buffer is the cap, so a head that arrives in one large write is
  // refused all the same.
  char head[kHttpMaxHeaderBytes];
  size_t filled = 0;
  size_t head_end = std::string_view::npos;
  while (head_end == std::string_view::npos) {
    if (filled == sizeof(head)) {
      write_response(TextResponse(400, "request head too large\n"));
      return;
    }
    ssize_t n = receive(head + filled, sizeof(head) - filled);
    if (n <= 0) return;  // peer closed, error or timeout before a request
    const size_t scan_from = filled < 3 ? 0 : filled - 3;
    filled += static_cast<size_t>(n);
    head_end = std::string_view(head, filled).find("\r\n\r\n", scan_from);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  HttpRequest request;
  int parse_status =
      ParseRequestHead(std::string_view(head, head_end + 2), &request);
  if (parse_status != 0) {
    write_response(TextResponse(parse_status, "malformed request line\n"));
    return;
  }
  // From here on the request is attributable: it carries a trace
  // context (extracted or minted) that every response — errors
  // included — echoes, and the observer sees it.
  StampRequestTrace(&request);
  auto respond = [&](HttpResponse response) {
    EchoTraceHeaders(request, &response);
    const bool written = write_response(response);
    // The clock stops once the write ended, whole, failed or timed out:
    // a client slow to read its response counts that wait in the
    // request's latency.
    if (observer_) {
      observer_(request, response, accepted_ns, SteadyNowNs() - accepted_ns,
                written);
    }
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
    // The declared length passed the cap but is still only the client's
    // claim, so the body is reserved, not sized: a head alone commits
    // next to nothing. A length that cannot be reserved is refused like
    // one over the cap, before the client is asked to continue.
    if (!ReserveDeclaredBody(&request.body, content_length)) {
      respond(TextResponse(413, "request body too large to buffer\n"));
      return;
    }
    // curl sends Expect: 100-continue for large bodies and stalls ~1s
    // waiting for the interim response; answer it so uploads stream
    // immediately.
    std::string expect(request.Header("expect"));
    LowerInPlace(&expect);
    if (expect.find("100-continue") != std::string::npos) {
      if (!SendAll(fd, "HTTP/1.1 100 Continue\r\n\r\n", {}, deadline)) {
        return;
      }
    }
    // Bytes that came in with the head are copied over and the rest is
    // read straight into place, the body growing a step ahead of what
    // arrived; bytes past the length are no part of it.
    const size_t arrived = filled - (head_end + 4);
    size_t got = std::min<size_t>(arrived, content_length);
    request.body.assign(head + head_end + 4, got);
    while (got < content_length) {
      request.body.resize(
          std::min<size_t>(content_length, got + kBodyGrowthBytes));
      ssize_t n = receive(request.body.data() + got, request.body.size() - got);
      if (n == kRecvTimedOut) {
        respond(TextResponse(408, "request body timed out\n"));
        return;
      }
      if (n <= 0) return;
      got += static_cast<size_t>(n);
    }
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

// The client's read size for the response head and for bodies without a
// Content-Length; a sized body is read straight into its own buffer.
constexpr size_t kClientReadBytes = 64 << 10;

// What a read that returned no bytes fails the call with.
const char* ReadFailure(ssize_t n) {
  if (n == kRecvTimedOut) return "response timed out";
  return n < 0 ? "recv failed" : "truncated response";
}

}  // namespace

bool HttpCall(uint16_t port, const std::string& method,
              const std::string& target, std::string_view body,
              const std::string& content_type, HttpClientResult* result,
              const HttpClientOptions& options, std::string* error) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error != nullptr) *error = "socket failed";
    return false;
  }
  auto fail = [fd, error](const char* what) {
    close(fd);
    if (error != nullptr) *error = what;
    return false;
  };
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("connect failed");
  }
  std::string head(method);
  head.push_back(' ');
  head.append(target);
  head.append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!options.traceparent.empty()) {
    head.append("traceparent: ");
    head.append(options.traceparent);
    head.append("\r\n");
  }
  if (!body.empty() || method == "POST" || method == "PUT") {
    if (!content_type.empty()) {
      head.append("Content-Type: ");
      head.append(content_type);
      head.append("\r\n");
    }
    head.append("Content-Length: ");
    head.append(std::to_string(body.size()));
    head.append("\r\n");
  }
  head.append("Connection: close\r\n\r\n");
  const int64_t deadline = SteadyNowMs() + options.timeout_ms;
  if (!SendAll(fd, head, body, deadline)) return fail("send failed");

  std::string buffer;
  ssize_t last = 0;
  const char* over_cap = nullptr;
  // Appends one large read to `buffer`; false at EOF, on a read failure
  // (`last` says which) or past the cap (`over_cap` is set).
  auto read_more = [&]() {
    const size_t filled = buffer.size();
    buffer.resize(filled + kClientReadBytes);
    last = RecvSome(fd, buffer.data() + filled, kClientReadBytes, deadline);
    buffer.resize(filled + static_cast<size_t>(std::max<ssize_t>(last, 0)));
    if (buffer.size() > options.max_response_bytes) {
      over_cap = "response exceeds max_response_bytes";
    }
    return last > 0 && over_cap == nullptr;
  };

  // Head: read until the blank line. An interim 100 Continue can precede
  // the real response; drop it.
  size_t header_end = std::string::npos;
  while (header_end == std::string::npos) {
    if (!read_more()) return fail(over_cap ? over_cap : ReadFailure(last));
    header_end = buffer.find("\r\n\r\n");
    while (header_end != std::string::npos &&
           buffer.rfind("HTTP/1.1 100", 0) == 0) {
      buffer.erase(0, header_end + 4);
      header_end = buffer.find("\r\n\r\n");
    }
  }

  HttpClientResult parsed;
  size_t line_end = buffer.find("\r\n");
  parsed.status_line = buffer.substr(0, line_end);
  // The status code's three digits; more from a hostile peer would
  // overflow the int.
  size_t sp = parsed.status_line.find(' ');
  if (sp != std::string::npos) {
    const size_t digits_end = std::min(sp + 4, parsed.status_line.size());
    for (size_t i = sp + 1; i < digits_end && parsed.status_line[i] >= '0' &&
                            parsed.status_line[i] <= '9';
         ++i) {
      parsed.status = parsed.status * 10 + (parsed.status_line[i] - '0');
    }
  }
  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t end = buffer.find("\r\n", pos);
    std::string_view header(buffer.data() + pos, end - pos);
    pos = end + 2;
    size_t colon = header.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(StripSpaces(header.substr(0, colon)));
    LowerInPlace(&name);
    parsed.headers.emplace_back(
        std::move(name), std::string(StripSpaces(header.substr(colon + 1))));
  }

  const size_t body_start = header_end + 4;
  uint64_t content_length = 0;
  const bool sized =
      ParseDecimalU64(parsed.Header("content-length"), &content_length);
  if (sized) {
    // Checked against the cap before any body byte is read, reserved,
    // and read straight into place as it arrives, as the server reads a
    // request body. A body cut short of its declared length fails the
    // call.
    if (content_length > options.max_response_bytes - body_start) {
      return fail("response exceeds max_response_bytes");
    }
    if (!ReserveDeclaredBody(&parsed.body, content_length)) {
      return fail("response too large to buffer");
    }
    size_t got = std::min<size_t>(buffer.size() - body_start, content_length);
    parsed.body.assign(buffer, body_start, got);
    while (got < content_length) {
      parsed.body.resize(
          std::min<size_t>(content_length, got + kBodyGrowthBytes));
      ssize_t n = RecvSome(fd, parsed.body.data() + got,
                           parsed.body.size() - got, deadline);
      if (n <= 0) return fail(ReadFailure(n));
      got += static_cast<size_t>(n);
    }
    buffer.clear();  // from here on it holds only bytes past the length
  }
  // Read on to the close: the body itself when no Content-Length sized
  // it, otherwise only bytes past the length, which are dropped. The
  // server closes after its observer has run, so a call that returned
  // has been accounted for on the server's side.
  while (read_more()) {
  }
  if (over_cap != nullptr) return fail(over_cap);
  if (last < 0) return fail(ReadFailure(last));
  if (!sized) parsed.body.assign(buffer, body_start);
  close(fd);
  if (result != nullptr) *result = std::move(parsed);
  return true;
}

}  // namespace xmlproj
