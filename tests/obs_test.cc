// Tests for the observability subsystem (obs/): counter/gauge/histogram
// semantics, concurrent increments, registry behavior, trace
// serialization and its retention bound, and exporter golden output.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xmlproj {
namespace {

TEST(Counter, StartsAtZeroAndAdds) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAddSubAndMax) {
  Gauge g;
  g.Set(5);
  g.Add(10);
  g.Sub(3);
  EXPECT_EQ(g.Value(), 12);
  g.SetMax(7);  // below current: no change
  EXPECT_EQ(g.Value(), 12);
  g.SetMax(100);
  EXPECT_EQ(g.Value(), 100);
}

TEST(Histogram, BucketBoundariesAreFixedPowersOfTwo) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), UINT64_MAX);
}

TEST(Histogram, RecordTracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Min(), 0u);  // empty: min reported as 0
  h.Record(10);
  h.Record(1000);
  h.Record(3);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 1013u);
  EXPECT_EQ(h.Min(), 3u);
  EXPECT_EQ(h.Max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1013.0 / 3.0);
}

TEST(Histogram, ApproxPercentileIsBucketBoundClampedToMax) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(10);    // bucket le=15
  for (int i = 0; i < 10; ++i) h.Record(5000);  // bucket le=8191, max=5000
  EXPECT_EQ(h.ApproxPercentile(0.5), 15u);
  EXPECT_EQ(h.ApproxPercentile(0.9), 15u);
  // Top percentile lands in the wide bucket; clamped to observed max.
  EXPECT_EQ(h.ApproxPercentile(0.99), 5000u);
  EXPECT_EQ(h.ApproxPercentile(1.0), 5000u);
}

TEST(Histogram, ConcurrentRecordsAreLossless) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  EXPECT_EQ(registry.GetCounter("c"), c);
  EXPECT_NE(registry.GetCounter("c2"), c);
  Gauge* g = registry.GetGauge("g");
  EXPECT_EQ(registry.GetGauge("g"), g);
  Histogram* h = registry.GetHistogram("h");
  EXPECT_EQ(registry.GetHistogram("h"), h);
  // Reusing a name across kinds is a registration bug; see the
  // KindMismatch tests below.
}

// A name belongs to one kind. Release builds turn the offending lookup
// into a disabled site (nullptr) and count it; debug builds assert.
#ifdef NDEBUG
TEST(MetricsRegistry, KindMismatchReturnsNullAndCounts) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("same"), nullptr);
  EXPECT_EQ(registry.GetGauge("same"), nullptr);
  EXPECT_EQ(registry.GetHistogram("same"), nullptr);
  EXPECT_GE(registry.kind_conflicts(), 2u);
  // The family's original kind keeps working.
  EXPECT_NE(registry.GetCounter("same"), nullptr);
}
#elif defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST
TEST(MetricsRegistryDeathTest, KindMismatchAssertsInDebugBuilds) {
  EXPECT_DEATH(
      {
        MetricsRegistry registry;
        registry.GetCounter("same");
        registry.GetGauge("same");
      },
      "");
}
#endif

TEST(MetricsRegistry, LabeledSeriesAreDistinctAndCanonical) {
  MetricsRegistry registry;
  Counter* unlabeled = registry.GetCounter("c");
  Counter* q0 = registry.GetCounter("c", {{"query_id", "0"}});
  Counter* q1 = registry.GetCounter("c", {{"query_id", "1"}});
  ASSERT_NE(q0, nullptr);
  EXPECT_NE(q0, unlabeled);
  EXPECT_NE(q0, q1);
  // Same label set -> same series; key order does not matter.
  EXPECT_EQ(registry.GetCounter("c", {{"query_id", "0"}}), q0);
  Counter* ab = registry.GetCounter("c", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(registry.GetCounter("c", {{"b", "2"}, {"a", "1"}}), ab);
}

TEST(MetricsRegistry, EncodeMetricLabelsSortsAndEscapes) {
  EXPECT_EQ(EncodeMetricLabels({{"b", "2"}, {"a", "1"}}),
            "a=\"1\",b=\"2\"");
  EXPECT_EQ(EncodeMetricLabels({{"q", "a\"b\\c\nd"}}),
            "q=\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(EncodeMetricLabels({}), "");
}

TEST(DecodeMetricLabelsTest, RoundTripsEncoderOutput) {
  MetricLabels labels = {{"corpus", "xmark"}, {"query_id", "3"}};
  MetricLabels decoded = DecodeMetricLabels(EncodeMetricLabels(labels));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].key, "corpus");
  EXPECT_EQ(decoded[0].value, "xmark");
  EXPECT_EQ(decoded[1].key, "query_id");
  EXPECT_EQ(decoded[1].value, "3");
}

TEST(DecodeMetricLabelsTest, UnescapesQuotesBackslashesNewlines) {
  MetricLabels labels = {{"path", "a\\b\"c\nd"}};
  MetricLabels decoded = DecodeMetricLabels(EncodeMetricLabels(labels));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].value, "a\\b\"c\nd");
}

TEST(MetricsRegistry, LabelCardinalityBoundCollapsesToOther) {
  MetricsRegistry registry;
  const size_t kOverflowing = MetricsRegistry::kMaxLabeledSeries + 5;
  for (size_t i = 0; i < kOverflowing; ++i) {
    Counter* c = registry.GetCounter("c", {{"id", std::to_string(i)}});
    ASSERT_NE(c, nullptr) << "id " << i;
    c->Increment();
  }
  size_t labeled = 0;
  uint64_t other_value = 0;
  registry.ForEachCounter([&](const std::string& /*name*/,
                              const std::string& labels, const Counter& c) {
    if (labels.empty()) return;
    ++labeled;
    if (labels == "id=\"other\"") other_value = c.Value();
  });
  // kMaxLabeledSeries distinct series plus the one overflow series.
  EXPECT_EQ(labeled, MetricsRegistry::kMaxLabeledSeries + 1);
  EXPECT_EQ(other_value, 5u);
  // The overflow series is shared by all further novel label sets.
  EXPECT_EQ(registry.GetCounter("c", {{"id", "zzz"}}),
            registry.GetCounter("c", {{"id", "other"}}));
}

// --- Exporters ---------------------------------------------------------------

TEST(Export, MetricsJsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("xmlproj_tasks_total")->Increment(3);
  registry.GetGauge("xmlproj_queue_depth")->Set(-2);
  Histogram* h = registry.GetHistogram("xmlproj_latency_ns");
  h->Record(0);
  h->Record(5);
  h->Record(5);
  std::string json;
  AppendMetricsJson(registry, &json);
  const char* expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"xmlproj_tasks_total\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"xmlproj_queue_depth\": -2\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"xmlproj_latency_ns\": {\"count\":3,\"sum\":10,\"min\":0,"
      "\"max\":5,\"mean\":3.333,\"p50\":5,\"p90\":5,\"p99\":5,"
      "\"buckets\":[{\"le\":0,\"count\":1},{\"le\":7,\"count\":2}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(Export, EmptyRegistryJsonIsValid) {
  MetricsRegistry registry;
  std::string json;
  AppendMetricsJson(registry, &json);
  EXPECT_EQ(json,
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

TEST(Export, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.GetCounter("xmlproj_tasks_total")->Increment(7);
  registry.GetGauge("xmlproj_threads")->Set(4);
  Histogram* h = registry.GetHistogram("xmlproj_wait_ns");
  h->Record(1);
  h->Record(3);
  h->Record(3);
  std::string text;
  AppendPrometheusText(registry, &text);
  const char* expected =
      "# TYPE xmlproj_tasks_total counter\n"
      "xmlproj_tasks_total 7\n"
      "# TYPE xmlproj_threads gauge\n"
      "xmlproj_threads 4\n"
      "# TYPE xmlproj_wait_ns histogram\n"
      "xmlproj_wait_ns_bucket{le=\"1\"} 1\n"
      "xmlproj_wait_ns_bucket{le=\"3\"} 3\n"
      "xmlproj_wait_ns_bucket{le=\"+Inf\"} 3\n"
      "xmlproj_wait_ns_sum 7\n"
      "xmlproj_wait_ns_count 3\n";
  EXPECT_EQ(text, expected);
}

TEST(Export, PrometheusTextLabeledSeriesAndHelp) {
  MetricsRegistry registry;
  registry.SetHelp("xmlproj_tasks_total", "Tasks completed");
  registry.GetCounter("xmlproj_tasks_total")->Increment(10);
  registry.GetCounter("xmlproj_tasks_total", {{"query_id", "0"}})
      ->Increment(4);
  registry.GetCounter("xmlproj_tasks_total", {{"query_id", "1"}})
      ->Increment(6);
  std::string text;
  AppendPrometheusText(registry, &text);
  const char* expected =
      "# HELP xmlproj_tasks_total Tasks completed\n"
      "# TYPE xmlproj_tasks_total counter\n"
      "xmlproj_tasks_total 10\n"
      "xmlproj_tasks_total{query_id=\"0\"} 4\n"
      "xmlproj_tasks_total{query_id=\"1\"} 6\n";
  EXPECT_EQ(text, expected);
}

TEST(Export, PrometheusTypeLineOncePerFamily) {
  MetricsRegistry registry;
  registry.GetCounter("c", {{"q", "0"}})->Increment();
  registry.GetCounter("c", {{"q", "1"}})->Increment();
  registry.GetCounter("c")->Increment();
  std::string text;
  AppendPrometheusText(registry, &text);
  size_t count = 0;
  for (size_t at = text.find("# TYPE c counter"); at != std::string::npos;
       at = text.find("# TYPE c counter", at + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u) << text;
}

TEST(Export, PrometheusEscapesLabelValuesAndHelp) {
  MetricsRegistry registry;
  registry.SetHelp("c", "line1\nline2 back\\slash");
  registry.GetCounter("c", {{"q", "a\"b\\c\nd"}})->Increment();
  std::string text;
  AppendPrometheusText(registry, &text);
  // HELP escapes backslash and newline (not quotes); label values escape
  // backslash, quote, and newline.
  EXPECT_NE(text.find("# HELP c line1\\nline2 back\\\\slash\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("c{q=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos)
      << text;
}

TEST(Export, PrometheusLabeledHistogramBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("xmlproj_wait_ns", {{"q", "0"}});
  h->Record(1);
  h->Record(3);
  std::string text;
  AppendPrometheusText(registry, &text);
  const char* expected =
      "# TYPE xmlproj_wait_ns histogram\n"
      "xmlproj_wait_ns_bucket{q=\"0\",le=\"1\"} 1\n"
      "xmlproj_wait_ns_bucket{q=\"0\",le=\"3\"} 2\n"
      "xmlproj_wait_ns_bucket{q=\"0\",le=\"+Inf\"} 2\n"
      "xmlproj_wait_ns_sum{q=\"0\"} 4\n"
      "xmlproj_wait_ns_count{q=\"0\"} 2\n";
  EXPECT_EQ(text, expected);
}

TEST(Export, MetricsJsonLabeledSeriesKeys) {
  MetricsRegistry registry;
  registry.GetCounter("c")->Increment(1);
  registry.GetCounter("c", {{"q", "0"}})->Increment(2);
  std::string json;
  AppendMetricsJson(registry, &json);
  EXPECT_NE(json.find("\"c\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c{q=\\\"0\\\"}\": 2"), std::string::npos) << json;
}

TEST(Export, PrometheusNameSanitization) {
  MetricsRegistry registry;
  registry.GetCounter("weird.name-1")->Increment();
  std::string text;
  AppendPrometheusText(registry, &text);
  EXPECT_NE(text.find("weird_name_1 1\n"), std::string::npos) << text;
}

TEST(Export, WriteTextFileRoundTripsAndFailsOnBadPath) {
  std::string path = ::testing::TempDir() + "/obs_export_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "hello\n"));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "hello\n");
  EXPECT_FALSE(WriteTextFile("/nonexistent_dir_xyz/file", "x"));
}

// --- Trace -------------------------------------------------------------------

TEST(Trace, EventsSerializeToChromeFormat) {
  TraceCollector trace;
  uint64_t t0 = MonotonicNowNs();
  trace.AddCompleteEvent("parse", "stage", t0, 1500,
                         {{"task", 7}});
  EXPECT_EQ(trace.event_count(), 1u);
  std::string json;
  trace.AppendChromeTraceJson(&json);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stage\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"task\":7}"), std::string::npos);
  // Braces/brackets balance: the output parses as JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, ThreadsGetStableSmallTids) {
  TraceCollector trace;
  trace.AddCompleteEvent("main1", "t", MonotonicNowNs(), 1);
  trace.AddCompleteEvent("main2", "t", MonotonicNowNs(), 1);
  std::thread other([&trace] {
    trace.AddCompleteEvent("worker", "t", MonotonicNowNs(), 1);
  });
  other.join();
  std::string json;
  trace.AppendChromeTraceJson(&json);
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
}

TEST(Trace, EscapesJsonSignificantCharactersInNames) {
  TraceCollector trace;
  trace.AddCompleteEvent("we\"ird\\name", "c", MonotonicNowNs(), 1);
  std::string json;
  trace.AppendChromeTraceJson(&json);
  EXPECT_NE(json.find("we\\\"ird\\\\name"), std::string::npos);
}

TEST(Trace, AppendRecentSpansJsonKeepsTailAndCountsDropped) {
  TraceCollector trace;
  uint64_t t0 = MonotonicNowNs();
  trace.AddCompleteEvent("first", "stage", t0, 100);
  trace.AddCompleteEvent("second", "stage", t0, 100);
  trace.AddCompleteEvent("third", "stage", t0, 100);
  std::string json;
  trace.AppendRecentSpansJson(2, &json);
  EXPECT_NE(json.find("\"dropped\":1"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"name\":\"first\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"second\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"third\""), std::string::npos) << json;
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// The collector keeps the most recent kMaxEvents events. /tracez counts
// evicted events as dropped, and the OTLP cursor counts appends, so an
// export after eviction ships each retained span exactly once and the
// next export ships only newer ones.
TEST(Trace, EvictsTheOldestPastTheCapAndExportsEachSpanOnce) {
  constexpr size_t kCap = TraceCollector::kMaxEvents;
  constexpr size_t kExtra = 1000;
  constexpr size_t kTotal = kCap + kExtra;
  auto span_id = [](size_t i) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016zx", i + 1);
    return std::string(buf);
  };
  TraceCollector trace;
  SpanContext context;
  context.trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
  const uint64_t t0 = MonotonicNowNs();
  auto append = [&](size_t i) {
    context.span_id = span_id(i);
    trace.AddSpanEvent("request", "http", t0, 1000, context);
  };
  for (size_t i = 0; i < kTotal; ++i) append(i);
  EXPECT_EQ(trace.event_count(), kCap);

  std::string tracez;
  trace.AppendRecentSpansJson(10, &tracez);
  // 66,526: the 1,000 evicted events plus the 65,526 retained ones the
  // 10-span listing leaves out.
  EXPECT_EQ(tracez.rfind("{\"dropped\":" + std::to_string(kTotal - 10) + ",",
                         0),
            0u)
      << tracez.substr(0, 64);

  // Every span id in an export, in order.
  auto exported_ids = [](const std::string& otlp) {
    std::vector<std::string> ids;
    const std::string key = "\"spanId\":\"";
    for (size_t at = otlp.find(key); at != std::string::npos;
         at = otlp.find(key, at + 1)) {
      ids.push_back(otlp.substr(at + key.size(), 16));
    }
    return ids;
  };

  // An exporter that never ran is more than kCap events behind: it gets
  // the retained window, each span once, and loses the evicted ones.
  size_t cursor = 0;
  std::string otlp;
  ASSERT_TRUE(trace.AppendOtlpSpansJson(&cursor, &otlp));
  EXPECT_EQ(cursor, kTotal);
  std::vector<std::string> ids = exported_ids(otlp);
  ASSERT_EQ(ids.size(), kCap);
  for (size_t k = 0; k < kCap; ++k) {
    ASSERT_EQ(ids[k], span_id(kExtra + k)) << "export position " << k;
  }
  std::string unchanged = "untouched";
  EXPECT_FALSE(trace.AppendOtlpSpansJson(&cursor, &unchanged));
  EXPECT_EQ(unchanged, "untouched");

  // The next export ships only what was appended since.
  for (size_t i = kTotal; i < kTotal + 3; ++i) append(i);
  std::string newer;
  ASSERT_TRUE(trace.AppendOtlpSpansJson(&cursor, &newer));
  EXPECT_EQ(exported_ids(newer),
            (std::vector<std::string>{span_id(kTotal), span_id(kTotal + 1),
                                      span_id(kTotal + 2)}));
  EXPECT_EQ(trace.event_count(), kCap);
}

// xmlprojd --trace-export writes each AppendOtlpSpansJson result as one
// JSONL line: a resourceSpans envelope holding only the trace-stamped
// spans appended since the last export, child spans carrying their
// parent's id, and the 64-bit nanos as quoted digit strings (a fragment
// missing its closing quote breaks every JSONL consumer).
TEST(Trace, OtlpExportLinesCarryOnlyNewSpansInOtlpShape) {
  TraceCollector trace;
  SpanContext root{"4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7",
                   "", "w-1"};
  trace.AddSpanEvent("POST /prune", "request", MonotonicNowNs(), 1000, root);
  // An anonymous stage span is local to /tracez, never exported.
  trace.AddCompleteEvent("anonymous", "stage", MonotonicNowNs(), 10);

  size_t cursor = 0;
  std::vector<std::string> lines(1);
  ASSERT_TRUE(trace.AppendOtlpSpansJson(&cursor, &lines[0]));
  std::string unchanged;
  EXPECT_FALSE(trace.AppendOtlpSpansJson(&cursor, &unchanged));
  EXPECT_EQ(unchanged, "");

  SpanContext child{"4bf92f3577b34da6a3ce929d0e0e4736", "1111111111111111",
                    "00f067aa0ba902b7", "w-1"};
  trace.AddSpanEvent("parse", "stage", MonotonicNowNs(), 500, child);
  lines.emplace_back();
  ASSERT_TRUE(trace.AppendOtlpSpansJson(&cursor, &lines[1]));

  for (const std::string& l : lines) {
    EXPECT_EQ(l.rfind("{\"resourceSpans\":[{\"resource\":", 0), 0u)
        << l.substr(0, 64);
    EXPECT_EQ(l.find('\n'), std::string::npos);
    EXPECT_NE(l.find("\"traceId\":\"4bf92f3577b34da6a3ce929d0e0e4736\""),
              std::string::npos)
        << l;
    EXPECT_EQ(l.find("\"name\":\"anonymous\""), std::string::npos) << l;
    for (const char* key :
         {"\"startTimeUnixNano\":\"", "\"endTimeUnixNano\":\""}) {
      const size_t at = l.find(key);
      ASSERT_NE(at, std::string::npos) << l;
      EXPECT_EQ(l.find(key, at + 1), std::string::npos) << l;  // one span
      const size_t digits = at + std::strlen(key);
      const size_t end = l.find('"', digits);
      ASSERT_NE(end, std::string::npos);
      EXPECT_GT(end, digits) << l.substr(at, 48);
      for (size_t i = digits; i < end; ++i) {
        EXPECT_TRUE(l[i] >= '0' && l[i] <= '9') << l.substr(at, 48);
      }
    }
  }
  EXPECT_NE(lines[0].find("\"name\":\"POST /prune\""), std::string::npos);
  EXPECT_EQ(lines[0].find("\"parentSpanId\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"name\":\"POST /prune\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"parentSpanId\":\"00f067aa0ba902b7\""),
            std::string::npos)
      << lines[1];
}

TEST(Trace, TimestampsRebaseOntoCollectorEpoch) {
  TraceCollector trace;
  // A timestamp before the collector existed clamps to 0, not underflow.
  trace.AddCompleteEvent("early", "c", 0, 1);
  std::string json;
  trace.AppendChromeTraceJson(&json);
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
}

TEST(BuildInfo, RegistersTheStandardInfoGauge) {
  EXPECT_FALSE(XmlprojVersion().empty());
  EXPECT_FALSE(XmlprojCompiler().empty());

  MetricsRegistry registry;
  RegisterBuildInfo(&registry);
  MetricLabels labels = {{"compiler", std::string(XmlprojCompiler())},
                         {"version", std::string(XmlprojVersion())}};
  Gauge* info = registry.GetGauge("xmlproj_build_info", labels);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->Value(), 1);

  RegisterBuildInfo(nullptr);  // null-safe no-op
}

}  // namespace
}  // namespace xmlproj
