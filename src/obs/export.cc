#include "obs/export.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string_view>

#include "obs/json.h"

namespace xmlproj {
namespace {

// JSON object key for one series: `name` unlabeled, `name{labels}` when
// labeled (the encoded labels are already Prometheus-escaped, which the
// JSON quoting re-escapes safely).
void AppendSeriesKey(const std::string& name, const std::string& labels,
                     std::string* out) {
  if (labels.empty()) {
    AppendJsonString(name, out);
  } else {
    AppendJsonString(name + "{" + labels + "}", out);
  }
}

std::string PrometheusName(const std::string& name) {
  std::string safe = name;
  for (char& c : safe) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return safe;
}

// `# HELP` escaping per the exposition format: backslash and newline
// only (quotes are not escaped in help text).
void AppendEscapedHelp(const std::string& help, std::string* out) {
  for (char c : help) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

// Emits the `# HELP` (if any) and `# TYPE` header once per family. The
// registry's ForEach* order groups a family's series contiguously, so a
// family change is simply a name change; the registry's kind guard
// ensures a name never reappears in another section.
class FamilyHeaderWriter {
 public:
  FamilyHeaderWriter(const char* type,
                     const std::map<std::string, std::string>* help,
                     std::string* out)
      : type_(type), help_(help), out_(out) {}

  // Returns the Prometheus-safe family name, emitting headers on change.
  const std::string& Begin(const std::string& name) {
    if (name != current_) {
      current_ = name;
      safe_ = PrometheusName(name);
      auto it = help_->find(name);
      if (it != help_->end()) {
        out_->append("# HELP ").append(safe_).push_back(' ');
        AppendEscapedHelp(it->second, out_);
        out_->push_back('\n');
      }
      out_->append("# TYPE ").append(safe_).push_back(' ');
      out_->append(type_);
      out_->push_back('\n');
    }
    return safe_;
  }

 private:
  const char* type_;
  const std::map<std::string, std::string>* help_;
  std::string* out_;
  std::string current_;
  std::string safe_;
};

// `name` or `name{labels}` — the series reference on a sample line.
void AppendSeriesRef(const std::string& safe_name, const std::string& labels,
                     std::string* out) {
  out->append(safe_name);
  if (!labels.empty()) {
    out->push_back('{');
    out->append(labels);
    out->push_back('}');
  }
}

// Unit convention: histograms are integer-valued and recorded in
// nanoseconds, but a family named `*_seconds` is exported in base
// units — le bounds and _sum scaled by 1e-9 — so the scrape follows
// Prometheus naming rules (promtool-clean) while Record() stays a
// cheap integer path.
bool IsSecondsFamily(const std::string& name) {
  constexpr std::string_view kSuffix = "_seconds";
  return name.size() >= kSuffix.size() &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) == 0;
}

void AppendSeconds(uint64_t ns, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(ns) * 1e-9);
  out->append(buf);
}

void AppendHistogramJson(const Histogram& hist, std::string* out) {
  char buf[48];
  out->append("{\"count\":");
  AppendU64(hist.Count(), out);
  out->append(",\"sum\":");
  AppendU64(hist.Sum(), out);
  out->append(",\"min\":");
  AppendU64(hist.Min(), out);
  out->append(",\"max\":");
  AppendU64(hist.Max(), out);
  std::snprintf(buf, sizeof(buf), ",\"mean\":%.3f", hist.Mean());
  out->append(buf);
  out->append(",\"p50\":");
  AppendU64(hist.ApproxPercentile(0.50), out);
  out->append(",\"p90\":");
  AppendU64(hist.ApproxPercentile(0.90), out);
  out->append(",\"p99\":");
  AppendU64(hist.ApproxPercentile(0.99), out);
  out->append(",\"buckets\":[");
  bool first = true;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    uint64_t n = hist.BucketCount(i);
    if (n == 0) continue;
    if (!first) out->push_back(',');
    first = false;
    out->append("{\"le\":");
    AppendU64(Histogram::BucketUpperBound(i), out);
    out->append(",\"count\":");
    AppendU64(n, out);
    out->push_back('}');
  }
  out->append("]}");
}

}  // namespace

void AppendMetricsJson(const MetricsRegistry& registry, std::string* out) {
  out->append("{\n  \"counters\": {");
  bool first = true;
  registry.ForEachCounter([&](const std::string& name,
                              const std::string& labels, const Counter& c) {
    out->append(first ? "\n    " : ",\n    ");
    first = false;
    AppendSeriesKey(name, labels, out);
    out->append(": ");
    AppendU64(c.Value(), out);
  });
  out->append(first ? "},\n" : "\n  },\n");

  out->append("  \"gauges\": {");
  first = true;
  registry.ForEachGauge([&](const std::string& name, const std::string& labels,
                            const Gauge& g) {
    out->append(first ? "\n    " : ",\n    ");
    first = false;
    AppendSeriesKey(name, labels, out);
    out->append(": ");
    AppendI64(g.Value(), out);
  });
  out->append(first ? "},\n" : "\n  },\n");

  out->append("  \"histograms\": {");
  first = true;
  registry.ForEachHistogram([&](const std::string& name,
                                const std::string& labels,
                                const Histogram& h) {
    out->append(first ? "\n    " : ",\n    ");
    first = false;
    AppendSeriesKey(name, labels, out);
    out->append(": ");
    AppendHistogramJson(h, out);
  });
  out->append(first ? "}\n" : "\n  }\n");
  out->append("}\n");
}

void AppendPrometheusText(const MetricsRegistry& registry, std::string* out) {
  const std::map<std::string, std::string> help = registry.HelpTexts();

  FamilyHeaderWriter counter_header("counter", &help, out);
  registry.ForEachCounter([&](const std::string& name,
                              const std::string& labels, const Counter& c) {
    const std::string& safe = counter_header.Begin(name);
    AppendSeriesRef(safe, labels, out);
    out->push_back(' ');
    AppendU64(c.Value(), out);
    out->push_back('\n');
  });

  FamilyHeaderWriter gauge_header("gauge", &help, out);
  registry.ForEachGauge([&](const std::string& name, const std::string& labels,
                            const Gauge& g) {
    const std::string& safe = gauge_header.Begin(name);
    AppendSeriesRef(safe, labels, out);
    out->push_back(' ');
    AppendI64(g.Value(), out);
    out->push_back('\n');
  });

  FamilyHeaderWriter hist_header("histogram", &help, out);
  registry.ForEachHistogram([&](const std::string& name,
                                const std::string& labels,
                                const Histogram& h) {
    const std::string& safe = hist_header.Begin(name);
    const bool seconds = IsSecondsFamily(safe);
    // A labeled `_bucket` line carries the series labels plus `le`.
    std::string bucket_prefix = safe + "_bucket{";
    if (!labels.empty()) {
      bucket_prefix.append(labels);
      bucket_prefix.push_back(',');
    }
    bucket_prefix.append("le=\"");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t n = h.BucketCount(i);
      if (n == 0) continue;
      cumulative += n;
      out->append(bucket_prefix);
      if (seconds) {
        AppendSeconds(Histogram::BucketUpperBound(i), out);
      } else {
        AppendU64(Histogram::BucketUpperBound(i), out);
      }
      out->append("\"} ");
      AppendU64(cumulative, out);
      out->push_back('\n');
    }
    out->append(bucket_prefix).append("+Inf\"} ");
    AppendU64(h.Count(), out);
    out->push_back('\n');
    out->append(safe).append("_sum");
    if (!labels.empty()) {
      out->push_back('{');
      out->append(labels);
      out->push_back('}');
    }
    out->push_back(' ');
    if (seconds) {
      AppendSeconds(h.Sum(), out);
    } else {
      AppendU64(h.Sum(), out);
    }
    out->push_back('\n');
    out->append(safe).append("_count");
    if (!labels.empty()) {
      out->push_back('{');
      out->append(labels);
      out->push_back('}');
    }
    out->push_back(' ');
    AppendU64(h.Count(), out);
    out->push_back('\n');
  });
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  bool ok = written == content.size();
  return std::fclose(f) == 0 && ok;
}

bool AtomicWriteTextFile(const std::string& path, const std::string& content,
                         bool fsync_file, std::string* error) {
  auto fail = [&](const char* step) {
    if (error != nullptr) {
      *error = std::string(step) + " \"" + path + "\": " +
               std::strerror(errno);
    }
    return false;
  };
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "we");
  if (f == nullptr) return fail("cannot open temp for");
  bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                content.size() &&
            std::fflush(f) == 0;
  if (ok && fsync_file) ok = ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    ::unlink(tmp.c_str());
    return fail("cannot write temp for");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return fail("cannot rename temp over");
  }
  if (fsync_file) {
    // Make the rename itself durable. Directory fsync is best-effort:
    // some filesystems reject it, and the data above is already synced.
    std::string dir = ".";
    size_t slash = path.find_last_of('/');
    if (slash != std::string::npos) dir = path.substr(0, slash + 1);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dfd >= 0) {
      (void)::fsync(dfd);
      ::close(dfd);
    }
  }
  return true;
}

}  // namespace xmlproj
