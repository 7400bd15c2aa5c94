#include "obs/push.h"

#include <netdb.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/json.h"
#include "obs/trace.h"

namespace xmlproj {

namespace {

// Delta-map key: name and encoded labels cannot collide across families
// because \x1f never appears in a metric name.
std::string SeriesKey(const std::string& name, const std::string& labels) {
  std::string key = name;
  key.push_back('\x1f');
  key += labels;
  return key;
}

// Formats a double the way both statsd and JSON want it: integral values
// without a fractional part, everything else with enough digits.
void AppendNumber(double v, std::string* out) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out->append(buf);
}

// statsd tag values cannot carry the protocol's structural bytes; replace
// them rather than dropping the sample (tag values here are query ids and
// corpus labels, which are already tame — this is a guard rail).
void AppendTagSanitized(std::string_view s, std::string* out) {
  for (char c : s) {
    const bool structural = c == ':' || c == '|' || c == ',' || c == '#' ||
                            c == '\n' || c == '@';
    out->push_back(structural ? '_' : c);
  }
}

}  // namespace

MetricLabels DecodeMetricLabels(std::string_view encoded) {
  MetricLabels labels;
  size_t i = 0;
  while (i < encoded.size()) {
    // key
    size_t eq = encoded.find('=', i);
    if (eq == std::string_view::npos || eq + 1 >= encoded.size() ||
        encoded[eq + 1] != '"') {
      break;
    }
    MetricLabel label;
    label.key.assign(encoded.substr(i, eq - i));
    // value: scan to the closing unescaped quote, unescaping as we go.
    size_t j = eq + 2;
    bool closed = false;
    while (j < encoded.size()) {
      char c = encoded[j];
      if (c == '\\' && j + 1 < encoded.size()) {
        char next = encoded[j + 1];
        if (next == 'n') {
          label.value.push_back('\n');
        } else {
          label.value.push_back(next);  // \\ and \" (and anything else: keep)
        }
        j += 2;
        continue;
      }
      if (c == '"') {
        closed = true;
        ++j;
        break;
      }
      label.value.push_back(c);
      ++j;
    }
    if (!closed) break;
    labels.push_back(std::move(label));
    if (j < encoded.size() && encoded[j] == ',') ++j;
    i = j;
  }
  return labels;
}

// ---------------------------------------------------------------------------
// StatsdSink

StatsdSink::~StatsdSink() {
  if (fd_ >= 0) ::close(fd_);
}

bool StatsdSink::Open(const std::string& host_port, std::string* error) {
  size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    if (error != nullptr) {
      *error = "statsd target must be HOST:PORT, got \"" + host_port + "\"";
    }
    return false;
  }
  std::string host = host_port.substr(0, colon);
  std::string port = host_port.substr(colon + 1);
  for (char c : port) {
    if (c < '0' || c > '9') {
      if (error != nullptr) {
        *error = "statsd port must be numeric, got \"" + port + "\"";
      }
      return false;
    }
  }

  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_DGRAM;
  addrinfo* result = nullptr;
  int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &result);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "cannot resolve statsd target \"" + host_port +
               "\": " + ::gai_strerror(rc);
    }
    return false;
  }

  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    // connect() on a UDP socket just pins the peer address, so Push can
    // use send() and the kernel reports unreachable-host errors to us
    // (which we ignore — fire and forget) rather than to nobody.
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open UDP socket to \"" + host_port +
               "\": " + std::strerror(errno);
    }
    return false;
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  target_ = host_port;
  return true;
}

std::string StatsdSink::FormatLine(const PushSample& sample) {
  std::string line = sample.name;
  line.push_back(':');
  AppendNumber(sample.value, &line);
  line.append(sample.is_counter ? "|c" : "|g");
  if (!sample.labels.empty()) {
    line.append("|#");
    bool first = true;
    for (const MetricLabel& label : sample.labels) {
      if (!first) line.push_back(',');
      first = false;
      AppendTagSanitized(label.key, &line);
      line.push_back(':');
      AppendTagSanitized(label.value, &line);
    }
  }
  return line;
}

bool StatsdSink::Push(const PushBatch& batch) {
  if (fd_ < 0) return false;
  bool ok = true;
  std::string datagram;
  datagram.reserve(max_datagram_bytes);
  auto send_datagram = [&]() {
    if (datagram.empty()) return;
    ssize_t sent = ::send(fd_, datagram.data(), datagram.size(), 0);
    // ECONNREFUSED from a previous datagram's ICMP reply is the normal
    // no-listener case for fire-and-forget UDP — not an error.
    if (sent < 0 && errno != ECONNREFUSED) ok = false;
    ++datagrams_sent_;
    datagram.clear();
  };
  for (const PushSample& sample : batch.samples) {
    std::string line = FormatLine(sample);
    if (!datagram.empty() &&
        datagram.size() + 1 + line.size() > max_datagram_bytes) {
      send_datagram();
    }
    if (!datagram.empty()) datagram.push_back('\n');
    datagram += line;
  }
  send_datagram();
  return ok;
}

// ---------------------------------------------------------------------------
// JsonlFileSink

JsonlFileSink::~JsonlFileSink() {
  if (file_ != nullptr) std::fclose(file_);
}

bool JsonlFileSink::Open(const std::string& path, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "ae");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open push JSONL file \"" + path +
               "\": " + std::strerror(errno);
    }
    return false;
  }
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  path_ = path;
  return true;
}

std::string JsonlFileSink::FormatBatch(const PushBatch& batch) {
  std::string out;
  out.reserve(256 + batch.samples.size() * 96);
  out.append("{\"resource\":{\"service.name\":\"xmlproj\",\"service.version\":");
  AppendJsonString(XmlprojVersion(), &out);
  out.append(",\"compiler\":");
  AppendJsonString(XmlprojCompiler(), &out);
  out.append("},\"time_unix_ms\":");
  AppendU64(batch.unix_ms, &out);
  out.append(",\"sequence\":");
  AppendU64(batch.sequence, &out);
  out.append(",\"metrics\":[");
  bool first = true;
  for (const PushSample& sample : batch.samples) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":");
    AppendJsonString(sample.name, &out);
    out.append(",\"type\":\"");
    // OTLP vocabulary: a counter delta is a sum with delta temporality.
    out.append(sample.is_counter ? "sum\",\"temporality\":\"delta\""
                                 : "gauge\"");
    if (!sample.labels.empty()) {
      out.append(",\"attributes\":{");
      bool first_label = true;
      for (const MetricLabel& label : sample.labels) {
        if (!first_label) out.push_back(',');
        first_label = false;
        AppendJsonString(label.key, &out);
        out.push_back(':');
        AppendJsonString(label.value, &out);
      }
      out.push_back('}');
    }
    out.append(",\"value\":");
    AppendNumber(sample.value, &out);
    out.push_back('}');
  }
  out.append("]}");
  return out;
}

bool JsonlFileSink::Push(const PushBatch& batch) {
  return file_ != nullptr &&
         AppendJsonlLine(file_, FormatBatch(batch), /*durable=*/false);
}

bool JsonlFileSink::WriteLine(const std::string& line) {
  return file_ != nullptr && AppendJsonlLine(file_, line, /*durable=*/false);
}

// ---------------------------------------------------------------------------
// PushFlusher

bool PushFlusher::Start(const PushFlusherOptions& options, std::string* error) {
  if (running_.load(std::memory_order_acquire)) {
    if (error != nullptr) *error = "push flusher already running";
    return false;
  }
  const bool has_trace = options.trace != nullptr && options.trace_sink != nullptr;
  if (!options.sinks.empty() && options.registry == nullptr) {
    if (error != nullptr) *error = "push flusher needs a registry";
    return false;
  }
  if (options.sinks.empty() && !has_trace) {
    if (error != nullptr) *error = "push flusher needs at least one sink";
    return false;
  }
  if (options.interval_ms == 0) {
    if (error != nullptr) *error = "push interval must be > 0 ms";
    return false;
  }
  options_ = options;
  stop_requested_ = false;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&PushFlusher::Loop, this);
  return true;
}

void PushFlusher::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // The final flush: ships everything since the last interval tick, so a
  // run shorter than one interval still pushes exactly once.
  FlushNow();
  running_.store(false, std::memory_order_release);
}

void PushFlusher::Loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested_) {
    if (stop_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                          [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    FlushNow();
    lock.lock();
  }
}

void PushFlusher::BuildBatch(PushBatch* batch) {
  const MetricsRegistry* registry = options_.registry;
  batch->unix_ms = UnixNowMs();
  batch->sequence = sequence_++;

  // Counters: delta since the previous flush; zero deltas are skipped
  // once a series has appeared (its first flush always ships, so a sink
  // learns the series exists even when the value is still 0 — and the
  // common case of counters incremented before the first flush ships the
  // full initial value as the first delta).
  registry->ForEachCounter([&](const std::string& name,
                               const std::string& labels,
                               const Counter& counter) {
    uint64_t value = counter.Value();
    std::string key = SeriesKey(name, labels);
    auto it = last_values_.find(key);
    const bool known = it != last_values_.end();
    uint64_t last = known ? it->second : 0;
    uint64_t delta = value >= last ? value - last : value;
    last_values_[std::move(key)] = value;
    if (known && delta == 0) return;
    PushSample sample;
    sample.name = name;
    sample.labels = DecodeMetricLabels(labels);
    sample.value = static_cast<double>(delta);
    sample.is_counter = true;
    batch->samples.push_back(std::move(sample));
  });

  registry->ForEachGauge([&](const std::string& name,
                             const std::string& labels, const Gauge& gauge) {
    PushSample sample;
    sample.name = name;
    sample.labels = DecodeMetricLabels(labels);
    sample.value = static_cast<double>(gauge.Value());
    sample.is_counter = false;
    batch->samples.push_back(std::move(sample));
  });

  // Histograms: neither wire format has a pre-aggregated histogram, so
  // synthesize _count/_sum counter deltas plus p50/p99 level gauges.
  registry->ForEachHistogram([&](const std::string& name,
                                 const std::string& labels,
                                 const Histogram& hist) {
    MetricLabels decoded = DecodeMetricLabels(labels);
    auto counter_sample = [&](const std::string& suffix, uint64_t value) {
      std::string full = name + suffix;
      std::string key = SeriesKey(full, labels);
      auto it = last_values_.find(key);
      const bool known = it != last_values_.end();
      uint64_t last = known ? it->second : 0;
      uint64_t delta = value >= last ? value - last : value;
      last_values_[std::move(key)] = value;
      if (known && delta == 0) return;
      PushSample sample;
      sample.name = std::move(full);
      sample.labels = decoded;
      sample.value = static_cast<double>(delta);
      sample.is_counter = true;
      batch->samples.push_back(std::move(sample));
    };
    counter_sample("_count", hist.Count());
    counter_sample("_sum", hist.Sum());
    if (hist.Count() > 0) {
      for (const auto& [suffix, p] :
           {std::pair<const char*, double>{"_p50", 0.50}, {"_p99", 0.99}}) {
        PushSample sample;
        sample.name = name + suffix;
        sample.labels = decoded;
        sample.value = static_cast<double>(hist.ApproxPercentile(p));
        sample.is_counter = false;
        batch->samples.push_back(std::move(sample));
      }
    }
  });
}

bool PushFlusher::FlushNow() {
  const bool metrics_ready =
      options_.registry != nullptr && !options_.sinks.empty();
  const bool trace_ready =
      options_.trace != nullptr && options_.trace_sink != nullptr;
  if (!metrics_ready && !trace_ready) return false;
  bool ok = true;
  if (metrics_ready) {
    PushBatch batch;
    {
      std::lock_guard<std::mutex> lock(delta_mu_);
      BuildBatch(&batch);
    }
    for (PushSink* sink : options_.sinks) {
      if (!sink->Push(batch)) {
        ok = false;
        sink_errors_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (trace_ready) {
    // Spans accumulated since the previous flush, as one OTLP line. The
    // cursor shares delta_mu_ with the counter state: FlushNow may race
    // between the flusher thread and Stop's final flush.
    std::string line;
    bool have;
    {
      std::lock_guard<std::mutex> lock(delta_mu_);
      have = options_.trace->AppendOtlpSpansJson(&trace_cursor_, &line);
    }
    if (have && !options_.trace_sink->WriteLine(line)) {
      ok = false;
      sink_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

}  // namespace xmlproj
