// Observability layer tests: registry concurrency (the tsan workload),
// Distribution/Histogram percentile parity, span nesting and thread
// attribution, and trace_event JSON well-formedness.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace oe::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax checker (recursive descent). Good enough to reject
// malformed output — unbalanced braces, missing commas, bad escapes — which
// is what the golden checks below need; semantic checks are done on top via
// substring probes.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // {
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // [
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          if (pos_ + 4 >= text_.size()) return false;
          for (int i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // unescaped control character
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a": [1, 2.5, -3e4], "b": {"c": "x\n"}})")
                  .Valid());
  EXPECT_TRUE(JsonChecker("[]").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a": 1,})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a" 1})").Valid());
  EXPECT_FALSE(JsonChecker(R"(["unterminated)").Valid());
  EXPECT_FALSE(JsonChecker("{}{}").Valid());
}

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsRegistryTest, SameIdentitySamePointer) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("ops", {{"shard", "0"}});
  Counter* b = registry.GetCounter("ops", {{"shard", "0"}});
  Counter* c = registry.GetCounter("ops", {{"shard", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Add(2);
  c->Increment();
  EXPECT_EQ(registry.Snapshot().CounterValue("ops", {{"shard", "0"}}), 2u);
  EXPECT_EQ(registry.Snapshot().CounterValue("ops", {{"shard", "1"}}), 1u);
}

TEST(MetricsRegistryTest, FindMatchesLabelSubset) {
  MetricsRegistry registry;
  registry.GetGauge("depth", {{"engine", "pipelined"}, {"shard", "3"}})
      ->Set(7);
  const MetricsSnapshot snap = registry.Snapshot();
  const MetricValue* by_subset = snap.Find("depth", {{"shard", "3"}});
  ASSERT_NE(by_subset, nullptr);
  EXPECT_EQ(by_subset->gauge, 7);
  EXPECT_EQ(snap.Find("depth", {{"shard", "9"}}), nullptr);
  EXPECT_EQ(snap.Find("nope"), nullptr);
}

// The TSan workload: concurrent registration of overlapping identities plus
// lock-free recording, racing a snapshotting reader.
TEST(MetricsRegistryTest, ConcurrentRegisterRecordSnapshot) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      // Half the threads share each identity, so registration races.
      const Labels labels = {{"shard", std::to_string(t % 4)}};
      Counter* counter = registry.GetCounter("ops", labels);
      Distribution* dist = registry.GetDistribution("lat_ns", labels);
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter->Increment();
        dist->Record(static_cast<double>(100 + i % 1000));
      }
    });
  }
  std::atomic<bool> stop{false};
  threads.emplace_back([&registry, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = registry.Snapshot();
      for (const MetricValue& m : snap.metrics) {
        if (m.kind == MetricValue::Kind::kDistribution) {
          // Count/buckets must always be internally consistent enough to
          // not crash percentile math mid-race.
          (void)m.distribution.Percentile(50);
        }
      }
    }
  });
  for (int t = 0; t < kThreads; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  uint64_t total = 0;
  const MetricsSnapshot snap = registry.Snapshot();
  for (const MetricValue& m : snap.metrics) {
    if (m.kind == MetricValue::Kind::kCounter) total += m.counter;
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kOpsPerThread);
  const MetricValue* dist = snap.Find("lat_ns", {{"shard", "0"}});
  ASSERT_NE(dist, nullptr);
  EXPECT_EQ(dist->distribution.count(), 2u * kOpsPerThread);
}

TEST(MetricsRegistryTest, SnapshotJsonIsValid) {
  MetricsRegistry registry;
  registry.GetCounter("pulls", {{"store", "1"}})->Add(3);
  registry.GetGauge("cached")->Set(-5);
  Distribution* dist = registry.GetDistribution("lat_ns");
  dist->Record(10);
  dist->Record(1000);
  const std::string json = registry.SnapshotJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"pulls\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Serving SLOs are quoted at p999; the exported snapshot must carry it.
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Distribution vs common/Histogram parity

TEST(DistributionTest, MatchesHistogramPercentiles) {
  MetricsRegistry registry;
  Distribution* dist = registry.GetDistribution("lat");
  Histogram histogram;
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> lognormal(8.0, 2.0);
  for (int i = 0; i < 20000; ++i) {
    const double v = lognormal(rng);
    dist->Record(v);
    histogram.Add(v);
  }
  const Histogram snap = dist->Snapshot();
  EXPECT_EQ(snap.count(), 20000u);
  for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    // Same bucket scheme, same interpolation: the two implementations must
    // agree to rounding error.
    EXPECT_NEAR(snap.Percentile(p), histogram.Percentile(p),
                1e-6 * std::max(1.0, histogram.Percentile(p)))
        << "p" << p;
  }
  EXPECT_NEAR(snap.Mean(), histogram.Mean(),
              1e-6 * std::max(1.0, histogram.Mean()));
  EXPECT_DOUBLE_EQ(snap.min(), histogram.min());
  EXPECT_DOUBLE_EQ(snap.max(), histogram.max());
}

TEST(DistributionTest, EmptyAndSingleValue) {
  MetricsRegistry registry;
  Distribution* dist = registry.GetDistribution("lat");
  EXPECT_EQ(dist->Snapshot().Percentile(50), 0.0);
  dist->Record(123.0);
  const Histogram snap = dist->Snapshot();
  // Percentiles are clamped to the observed [min, max].
  EXPECT_DOUBLE_EQ(snap.Percentile(0), 123.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(50), 123.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(99.9), 123.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(100), 123.0);
}

TEST(DistributionTest, TailPercentileAccurateWithFewSamples) {
  // The p999 regime for a short bench run: the threshold count (99.9% of
  // ten samples = 9.99) lands inside the single outlier's bucket, so the
  // estimate must interpolate within that bucket and clamp to the observed
  // max — never report a value the distribution cannot contain.
  MetricsRegistry registry;
  Distribution* dist = registry.GetDistribution("lat");
  for (int i = 0; i < 9; ++i) dist->Record(1.0);
  dist->Record(1000.0);
  const Histogram snap = dist->Snapshot();

  const int bucket = Histogram::BucketFor(1000.0);
  const double bucket_left = Histogram::BucketLimit(bucket - 1);
  const double p999 = snap.Percentile(99.9);
  EXPECT_GE(p999, bucket_left);  // came from the outlier's bucket...
  EXPECT_LE(p999, 1000.0);       // ...and clamped to the true max
  // One-bucket accuracy: at the histogram's geometric bucket ratio that
  // bounds the relative error of a tail estimate from sparse samples.
  EXPECT_NEAR(p999, 1000.0, 1000.0 - bucket_left);
}

TEST(DistributionTest, PercentilesMonotoneInP) {
  MetricsRegistry registry;
  Distribution* dist = registry.GetDistribution("lat");
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> lognormal(5.0, 1.5);
  for (int i = 0; i < 200; ++i) dist->Record(lognormal(rng));
  const Histogram snap = dist->Snapshot();
  double previous = snap.min();
  for (const double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const double value = snap.Percentile(p);
    EXPECT_GE(value, previous) << "p" << p << " regressed";
    previous = value;
  }
  EXPECT_LE(previous, snap.max());
}

// ---------------------------------------------------------------------------
// Tracing

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder recorder(64);
  { ScopedSpan span(recorder, "cat", "op"); }
  EXPECT_TRUE(recorder.Drain().empty());
}

TEST(TraceRecorderTest, SpanNestingAndThreadAttribution) {
  TraceRecorder recorder(256);
  recorder.set_enabled(true);

  recorder.SetThreadName("main");
  {
    ScopedSpan outer(recorder, "test", "outer");
    ScopedSpan inner(recorder, "test", "inner");
  }
  std::thread worker([&recorder] {
    recorder.SetThreadName("worker");
    ScopedSpan span(recorder, "test", "from_worker");
  });
  worker.join();

  const std::vector<TraceEvent> events = recorder.Drain();
  ASSERT_EQ(events.size(), 3u);

  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  const TraceEvent* remote = nullptr;
  for (const TraceEvent& event : events) {
    if (std::string_view(event.name) == "outer") outer = &event;
    if (std::string_view(event.name) == "inner") inner = &event;
    if (std::string_view(event.name) == "from_worker") remote = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(remote, nullptr);

  // Nesting: the inner span starts no earlier and ends no later (RAII
  // destruction order closes inner first).
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->duration_ns,
            outer->start_ns + outer->duration_ns);
  // Same thread, same tid; other thread, different tid.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_NE(remote->tid, outer->tid);
  EXPECT_EQ(outer->pid, TraceRecorder::kWallPid);

  // Thread names land as metadata events in the JSON.
  const std::string json = recorder.ToChromeJson();
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"worker\""), std::string::npos);
}

TEST(TraceRecorderTest, RingOverflowCountsDropped) {
  TraceRecorder recorder(16);
  recorder.set_enabled(true);
  for (int i = 0; i < 50; ++i) {
    ScopedSpan span(recorder, "test", "op");
  }
  EXPECT_EQ(recorder.Drain().size(), 16u);
  EXPECT_EQ(recorder.dropped(), 34u);
  recorder.Clear();
  EXPECT_TRUE(recorder.Drain().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
}

// Golden-format check: the emitted JSON is syntactically valid and each
// event carries the complete-event fields Perfetto requires.
TEST(TraceRecorderTest, ChromeJsonIsValidTraceEventFormat) {
  TraceRecorder recorder(256);
  recorder.set_enabled(true);
  recorder.SetThreadName("t\"quoted\"");  // escaping must survive
  { ScopedSpan span(recorder, "store", "pull"); }
  recorder.Emit("sim", "maintenance", 1000, 500, TraceRecorder::kSimPid, 2);
  recorder.SetVirtualThreadName(TraceRecorder::kSimPid, 2, "sim:maintenance");

  const std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* field :
       {"\"name\"", "\"cat\"", "\"ph\"", "\"ts\"", "\"dur\"", "\"pid\"",
        "\"tid\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("sim:maintenance"), std::string::npos);
}

// Concurrent recording from many threads: every span lands on its own
// thread's ring with its own tid (no cross-thread interleaving corruption).
TEST(TraceRecorderTest, ConcurrentRecording) {
  TraceRecorder recorder(1 << 12);
  recorder.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span(recorder, "test", "op");
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::vector<TraceEvent> events = recorder.Drain();
  EXPECT_EQ(events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  std::map<int64_t, int> per_tid;
  for (const TraceEvent& event : events) ++per_tid[event.tid];
  EXPECT_EQ(per_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, count] : per_tid) {
    EXPECT_EQ(count, kSpansPerThread) << "tid " << tid;
  }
  EXPECT_EQ(recorder.dropped(), 0u);
}

}  // namespace
}  // namespace oe::obs
