// Tests for the observability subsystem: metrics registry shard merging
// under concurrent writers, log2 histogram bucketing, tracer ring-buffer
// wraparound, Chrome trace_event JSON structure, and the interpolated
// quantile queries the replay report builds on.
#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/sampler.h"
#include "src/obs/tracer.h"
#include "src/util/stats.h"

namespace artc::obs {
namespace {

TEST(MetricsRegistry, CountersAndGaugesMergeAcrossThreads) {
  MetricsRegistry reg;
  MetricId counter = reg.Counter("test.counter");
  MetricId gauge = reg.Gauge("test.gauge");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        reg.Add(counter, 1);
      }
      // Gauges may go negative per shard; only the merged value matters.
      reg.Add(gauge, +3);
      reg.Add(gauge, -2);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("test.counter"), kThreads * kIncrements);
  EXPECT_EQ(snap.gauges.at("test.gauge"), kThreads);
  // Every writer thread registered its own shard (the main thread may or
  // may not have one, so >=).
  EXPECT_GE(reg.ShardCount(), static_cast<size_t>(kThreads));
}

TEST(MetricsRegistry, RegistrationInternsByName) {
  MetricsRegistry reg;
  MetricId a = reg.Counter("same.name");
  MetricId b = reg.Counter("same.name");
  EXPECT_EQ(a.cell, b.cell);
  reg.Add(a, 2);
  reg.Add(b, 3);
  EXPECT_EQ(reg.Snapshot().counters.at("same.name"), 5);
}

TEST(MetricsRegistry, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  MetricId h = reg.Histogram("test.hist");
  // Bucket 0 holds exactly 0; bucket b >= 1 holds [2^(b-1), 2^b - 1], so its
  // inclusive upper bound in the snapshot is 2^b - 1.
  reg.Observe(h, 0);
  reg.Observe(h, 1);
  reg.Observe(h, 2);
  reg.Observe(h, 3);  // shares the le=3 bucket with 2
  reg.Observe(h, 4);
  reg.Observe(h, 1023);
  reg.Observe(h, 1024);
  HistogramSnapshot snap = reg.Snapshot().histograms.at("test.hist");
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.sum, 0 + 1 + 2 + 3 + 4 + 1023 + 1024);
  std::vector<std::pair<uint64_t, uint64_t>> expected = {
      {0, 1}, {1, 1}, {3, 2}, {7, 1}, {1023, 1}, {2047, 1}};
  EXPECT_EQ(snap.buckets, expected);
}

TEST(MetricsRegistry, SnapshotJsonIsStructurallySound) {
  MetricsRegistry reg;
  reg.Add(reg.Counter("c"), 7);
  reg.Add(reg.Gauge("g"), -1);
  reg.Observe(reg.Histogram("h"), 5);
  std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"g\": -1"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 7, \"count\": 1}"), std::string::npos);
  // Balanced braces/brackets — the cheap proxy for "a JSON parser will not
  // choke" without pulling in a parser dependency.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(MetricsRegistry, SnapshotJsonKeepsLongNamesWholeAndEscaped) {
  MetricsRegistry reg;
  const std::string long_name(200, 'n');
  reg.Add(reg.Counter(long_name), 1);
  reg.Add(reg.Gauge("quote\"and\\slash"), 2);
  const std::string json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"" + long_name + "\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"quote\\\"and\\\\slash\": 2"), std::string::npos) << json;
}

TEST(MetricsRegistry, SetOverridesAddsFromOtherThreads) {
  MetricsRegistry reg;
  MetricId gauge = reg.Gauge("test.set_gauge");
  std::vector<std::thread> adders;
  for (int t = 0; t < 2; ++t) {
    adders.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        reg.Add(gauge, 3);
      }
    });
  }
  for (auto& th : adders) {
    th.join();
  }
  std::thread setter([&] { reg.Set(gauge, 42); });
  setter.join();
  EXPECT_EQ(reg.Snapshot().gauges.at("test.set_gauge"), 42);
  reg.Add(gauge, -2);  // adds keep composing with the set value
  EXPECT_EQ(reg.Snapshot().gauges.at("test.set_gauge"), 40);
}

TEST(Tracer, RingWrapsAndCountsDrops) {
  Tracer tracer(/*ring_capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    tracer.Instant(ClockDomain::kHost, 0, "test", "tick", i * 100);
  }
  std::vector<TraceRecord> recs = tracer.Records();
  ASSERT_EQ(recs.size(), 8u);
  EXPECT_EQ(tracer.dropped_records(), 12u);
  // The survivors are the newest 8, sorted by timestamp.
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].ts_ns, static_cast<int64_t>((12 + i) * 100));
  }
  tracer.Clear();
  EXPECT_TRUE(tracer.Records().empty());
  EXPECT_EQ(tracer.dropped_records(), 0u);
}

TEST(Tracer, MergesRecordsFromMultipleThreads) {
  Tracer tracer(1 << 10);
  constexpr int kThreads = 4;
  constexpr int kEvents = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kEvents; ++i) {
        tracer.CompleteSpan(ClockDomain::kVirtual, static_cast<uint32_t>(t),
                            "test", "work", i * 10, 5);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::vector<TraceRecord> recs = tracer.Records();
  EXPECT_EQ(recs.size(), static_cast<size_t>(kThreads * kEvents));
  EXPECT_EQ(tracer.dropped_records(), 0u);
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(recs[i - 1].ts_ns, recs[i].ts_ns);  // merged sort order
  }
}

TEST(Tracer, ChromeJsonHasExpectedEventShapes) {
  Tracer tracer(1 << 10);
  tracer.SetTrackName(ClockDomain::kVirtual, 3, "sim-thread");
  tracer.CompleteSpan(ClockDomain::kVirtual, 3, "replay", "pread", 1000, 500,
                      "idx", 42);
  tracer.FlowStart(ClockDomain::kVirtual, 3, "replay", "dep", 1500, 77);
  tracer.FlowEnd(ClockDomain::kVirtual, 4, "replay", "dep", 2000, 77);
  tracer.Instant(ClockDomain::kHost, 0, "harness", "mark", 100);
  std::string json = tracer.ToChromeJson();
  // Top-level object with a traceEvents array.
  EXPECT_EQ(json.find("{"), 0u);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The span: complete event on the virtual process (pid 1), ts in
  // microseconds (1000 ns -> 1 us), with its numeric arg.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pread\""), std::string::npos);
  EXPECT_NE(json.find("\"idx\":42"), std::string::npos);
  // Flow start/end pair with binding point "enclosing slice" on the end.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // Track-name metadata.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("sim-thread"), std::string::npos);
  // Both clock-domain processes appear.
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Obs, RuntimeSwitchGatesMacros) {
#ifndef ARTC_OBS_DISABLED
  // The macros route through the process-global registry only while enabled.
  Disable();
  ARTC_OBS_COUNT("obs_test.gated", 1);
  auto off = DefaultRegistry().Snapshot();
  EXPECT_EQ(off.counters.count("obs_test.gated"), 0u);
  Enable();
  EXPECT_TRUE(Enabled());
  ARTC_OBS_COUNT("obs_test.gated", 2);
  ARTC_OBS_OBSERVE("obs_test.gated_hist", 9);
  auto on = DefaultRegistry().Snapshot();
  EXPECT_EQ(on.counters.at("obs_test.gated"), 2);
  EXPECT_EQ(on.histograms.at("obs_test.gated_hist").count, 1u);
  Disable();
  EXPECT_FALSE(Enabled());
#else
  // Compiled out: the macros must still parse and generate nothing.
  ARTC_OBS_COUNT("obs_test.gated", 1);
  ARTC_OBS_IF_ENABLED { FAIL() << "disabled build must not reach here"; }
#endif
}

// ---- Quantile math backing the replay-report percentiles ----

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  artc::Histogram h({10.0, 20.0, 30.0});
  // 10 samples in (10, 20]: quantiles interpolate linearly across the
  // bucket that contains the target rank.
  for (int i = 0; i < 10; ++i) {
    h.Add(15.0);
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
}

TEST(HistogramQuantile, EmptyHistogramReturnsZero) {
  artc::Histogram h({10.0, 20.0, 30.0});
  EXPECT_EQ(h.Total(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.0);
}

TEST(HistogramQuantile, SpansBucketsAndClampsOverflow) {
  artc::Histogram h({10.0, 20.0});
  h.Add(5.0);    // first bucket, lower edge 0
  h.Add(15.0);   // second bucket
  h.Add(100.0);  // overflow bucket: no upper edge, quantile clamps to 20
  EXPECT_DOUBLE_EQ(h.Quantile(1.0 / 3.0), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
  EXPECT_GT(h.Quantile(0.5), 10.0);
  EXPECT_LE(h.Quantile(0.5), 20.0);
}

TEST(SampleStatsEdge, SingleSampleAndExtremeQuantiles) {
  artc::SampleStats s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(s.TailMean(0.99), 42.0);
  EXPECT_DOUBLE_EQ(s.Min(), 42.0);
  EXPECT_DOUBLE_EQ(s.Max(), 42.0);
  EXPECT_DOUBLE_EQ(s.Stddev(), 0.0);
}

// ---- TimeSeriesSampler delta/rate math (pure, no clocks) ----

TEST(SamplerDiff, CounterDeltasAndRates) {
  MetricsSnapshot prev;
  prev.counters["a"] = 100;
  prev.counters["b"] = 10;
  MetricsSnapshot cur;
  cur.counters["a"] = 160;
  cur.counters["b"] = 10;
  cur.counters["fresh"] = 5;  // first seen this tick: full value is the delta
  TimeSeriesSample out;
  TimeSeriesSampler::DiffInto(prev, cur, /*interval_s=*/2.0, &out);
  EXPECT_EQ(out.counters.at("a"), 160);
  EXPECT_EQ(out.deltas.at("a"), 60);
  EXPECT_DOUBLE_EQ(out.rates.at("a"), 30.0);
  EXPECT_EQ(out.deltas.at("b"), 0);
  EXPECT_DOUBLE_EQ(out.rates.at("b"), 0.0);
  EXPECT_EQ(out.deltas.at("fresh"), 5);
  EXPECT_DOUBLE_EQ(out.rates.at("fresh"), 2.5);
}

TEST(SamplerDiff, CounterResetClampsDeltaToZero) {
  MetricsSnapshot prev;
  prev.counters["c"] = 50;
  MetricsSnapshot cur;
  cur.counters["c"] = 7;  // registry restarted / Tracer::Clear rewind
  TimeSeriesSample out;
  TimeSeriesSampler::DiffInto(prev, cur, 1.0, &out);
  EXPECT_EQ(out.deltas.at("c"), 0);
  EXPECT_DOUBLE_EQ(out.rates.at("c"), 0.0);
  EXPECT_EQ(out.counters.at("c"), 7);  // cumulative still reports truth
}

TEST(SamplerDiff, GaugesAreInstantaneousNotDiffed) {
  MetricsSnapshot prev;
  prev.gauges["g"] = 100;
  MetricsSnapshot cur;
  cur.gauges["g"] = 4;
  TimeSeriesSample out;
  TimeSeriesSampler::DiffInto(prev, cur, 1.0, &out);
  EXPECT_EQ(out.gauges.at("g"), 4);
  EXPECT_EQ(out.deltas.count("g"), 0u);
}

TEST(SamplerDiff, HistogramDeltaCountAndSum) {
  MetricsSnapshot prev;
  prev.histograms["h"].count = 10;
  prev.histograms["h"].sum = 1000;
  MetricsSnapshot cur;
  cur.histograms["h"].count = 13;
  cur.histograms["h"].sum = 1600;
  TimeSeriesSample out;
  TimeSeriesSampler::DiffInto(prev, cur, 1.0, &out);
  EXPECT_EQ(out.histograms.at("h").count, 13u);
  EXPECT_EQ(out.histograms.at("h").sum, 1600);
  EXPECT_EQ(out.histograms.at("h").d_count, 3u);
  EXPECT_EQ(out.histograms.at("h").d_sum, 600);
}

TEST(SamplerDiff, ZeroIntervalYieldsZeroRates) {
  MetricsSnapshot prev;
  prev.counters["x"] = 0;
  MetricsSnapshot cur;
  cur.counters["x"] = 9;
  TimeSeriesSample out;
  TimeSeriesSampler::DiffInto(prev, cur, 0.0, &out);
  EXPECT_EQ(out.deltas.at("x"), 9);
  EXPECT_DOUBLE_EQ(out.rates.at("x"), 0.0);  // no divide-by-zero inf
}

// ---- Structured log line shape (pure formatter, pinned clocks) ----

TEST(LogFormat, LineShapeWithFields) {
  const LogField fields[] = {{"skipped", 17}, {"file", "t.trace"}};
  const std::string line = internal::FormatLogLine(
      LogLevel::kWarn, "trace", "skipped lines", fields, 2,
      /*wall_ms=*/1722540000123, /*host_ns=*/81234, /*tid=*/2, /*dropped=*/0);
  EXPECT_EQ(line,
            "{\"ts_ms\":1722540000123,\"host_ns\":81234,\"level\":\"warn\","
            "\"tid\":2,\"component\":\"trace\",\"msg\":\"skipped lines\","
            "\"fields\":{\"skipped\":17,\"file\":\"t.trace\"}}\n");
}

TEST(LogFormat, DroppedCountAppearsAfterRateLimiting) {
  const std::string line = internal::FormatLogLine(
      LogLevel::kError, "obs", "boom", nullptr, 0, 1, 2, 0, /*dropped=*/5);
  EXPECT_NE(line.find("\"dropped\":5"), std::string::npos);
  EXPECT_EQ(line.find("\"fields\""), std::string::npos);
}

TEST(LogFormat, EscapesQuotesBackslashesAndControlChars) {
  const LogField fields[] = {{"path", "a\"b\\c\nd"}};
  const std::string line = internal::FormatLogLine(
      LogLevel::kInfo, "fs", "msg", fields, 1, 0, 0, 0, 0);
  EXPECT_NE(line.find("a\\\"b\\\\c\\u000ad"), std::string::npos);
  // The line is still exactly one physical line.
  EXPECT_EQ(line.find('\n'), line.size() - 1);
}

TEST(LogFormat, TypedFieldValues) {
  const LogField fields[] = {{"i", -3}, {"u", uint64_t{18446744073709551615u}},
                             {"d", 2.5}, {"b", true}};
  const std::string line = internal::FormatLogLine(
      LogLevel::kDebug, "t", "m", fields, 4, 0, 0, 0, 0);
  EXPECT_NE(line.find("\"i\":-3"), std::string::npos);
  EXPECT_NE(line.find("\"u\":18446744073709551615"), std::string::npos);
  EXPECT_NE(line.find("\"d\":2.5"), std::string::npos);
  EXPECT_NE(line.find("\"b\":true"), std::string::npos);
}

TEST(LogLevelApi, ParseAndNamesRoundTrip) {
  for (LogLevel l : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                     LogLevel::kError, LogLevel::kOff}) {
    LogLevel parsed;
    ASSERT_TRUE(ParseLogLevel(LogLevelName(l), &parsed));
    EXPECT_EQ(parsed, l);
  }
  LogLevel parsed;
  EXPECT_FALSE(ParseLogLevel("verbose", &parsed));
}

TEST(LogLevelApi, ThresholdFiltersLowerLevels) {
  const LogLevel saved = CurrentLogLevel();
  SetLogLevel(LogLevel::kWarn);
  EXPECT_FALSE(LogEnabledFor(LogLevel::kDebug));
  EXPECT_FALSE(LogEnabledFor(LogLevel::kInfo));
  EXPECT_TRUE(LogEnabledFor(LogLevel::kWarn));
  EXPECT_TRUE(LogEnabledFor(LogLevel::kError));
  SetLogLevel(saved);
}

}  // namespace
}  // namespace artc::obs
