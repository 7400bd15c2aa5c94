#include "obs/metrics.h"

#include <algorithm>

namespace xmlproj {

uint64_t Histogram::ApproxPercentile(double p) const {
  uint64_t total = Count();
  if (total == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the target sample, 1-based rounding up (the median of three
  // samples is the second); p=1 maps onto the last sample.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(total));
  if (static_cast<double>(rank) < p * static_cast<double>(total)) ++rank;
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += BucketCount(i);
    if (seen >= rank) {
      // Clamp the bucket bound into the observed range so the estimate
      // never exceeds the true max (the top bucket can be very wide).
      uint64_t bound = BucketUpperBound(i);
      uint64_t max = Max();
      return bound < max ? bound : max;
    }
  }
  return Max();
}

void AppendEscapedLabelValue(std::string_view value, std::string* out) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

std::string EncodeMetricLabels(const MetricLabels& labels) {
  if (labels.empty()) return std::string();
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const MetricLabel& a, const MetricLabel& b) {
              return a.key < b.key;
            });
  std::string out;
  for (const MetricLabel& label : sorted) {
    if (!out.empty()) out.push_back(',');
    out.append(label.key);
    out.append("=\"");
    AppendEscapedLabelValue(label.value, &out);
    out.push_back('"');
  }
  return out;
}

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

namespace {

// The collapsed label set past the cardinality bound: same keys, every
// value replaced by "other", so the overflow series still parses with the
// family's expected label keys.
std::string OverflowEncoding(const MetricLabels& labels) {
  MetricLabels collapsed = labels;
  for (MetricLabel& label : collapsed) label.value = "other";
  return EncodeMetricLabels(collapsed);
}

}  // namespace

template <typename M>
M* MetricsRegistry::GetMetricEncoded(
    std::map<std::string, Family<M>, std::less<>>* families,
    const std::string& name, const std::string& labels, Kind kind,
    bool exempt_from_bound) {
  // Caller holds mu_.
  auto [kind_it, inserted] = kinds_.emplace(name, kind);
  if (!inserted && kind_it->second != kind) {
    kind_conflicts_.fetch_add(1, std::memory_order_relaxed);
    assert(false && "metric name re-registered with a different kind");
    return nullptr;
  }
  Family<M>& family = (*families)[name];
  auto it = family.series.find(labels);
  if (it != family.series.end()) return it->second.get();
  bool counted = !labels.empty() && !exempt_from_bound;
  if (counted && family.labeled_series >= kMaxLabeledSeries) {
    return nullptr;  // caller retries with the overflow encoding
  }
  it = family.series.emplace(labels, std::make_unique<M>()).first;
  if (counted) ++family.labeled_series;
  return it->second.get();
}

template <typename M>
M* MetricsRegistry::GetMetric(
    std::map<std::string, Family<M>, std::less<>>* families,
    std::string_view name, const MetricLabels& labels, Kind kind) {
  std::string encoded = EncodeMetricLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  std::string name_str(name);
  M* metric = GetMetricEncoded(families, name_str, encoded, kind);
  if (metric == nullptr && !encoded.empty()) {
    // Either a kind conflict (the retry hits the same conflict and stays
    // null) or the family hit the cardinality bound — fold onto the
    // all-"other" overflow series, which lives outside the per-family
    // budget so the fold always lands.
    metric = GetMetricEncoded(families, name_str, OverflowEncoding(labels),
                              kind, /*exempt_from_bound=*/true);
  }
  return metric;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  return GetMetric(&counters_, name, {}, Kind::kCounter);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  return GetMetric(&gauges_, name, {}, Kind::kGauge);
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  return GetMetric(&histograms_, name, {}, Kind::kHistogram);
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const MetricLabels& labels) {
  return GetMetric(&counters_, name, labels, Kind::kCounter);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name,
                                 const MetricLabels& labels) {
  return GetMetric(&gauges_, name, labels, Kind::kGauge);
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const MetricLabels& labels) {
  return GetMetric(&histograms_, name, labels, Kind::kHistogram);
}

void MetricsRegistry::SetHelp(std::string_view name, std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  help_[std::string(name)] = std::string(help);
}

std::map<std::string, std::string> MetricsRegistry::HelpTexts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {help_.begin(), help_.end()};
}

std::string_view XmlprojVersion() { return "0.7.0"; }

std::string_view XmlprojCompiler() {
#if defined(__clang_version__)
  return "clang " __clang_version__;
#elif defined(__VERSION__)
  return __VERSION__;
#else
  return "unknown";
#endif
}

void RegisterBuildInfo(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->SetHelp("xmlproj_build_info",
                    "Build identity (value is always 1).");
  Gauge* gauge = registry->GetGauge(
      "xmlproj_build_info",
      {{"version", std::string(XmlprojVersion())},
       {"compiler", std::string(XmlprojCompiler())}});
  if (gauge != nullptr) gauge->Set(1);
}

}  // namespace xmlproj
