#ifndef OE_OBS_METRICS_H_
#define OE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace oe::obs {

/// Metric labels (shard/node/engine dimensions). Ordered map so the encoded
/// identity of an instrument is canonical regardless of insertion order.
using Labels = std::map<std::string, std::string>;

/// Monotonic counter. Hot path is one relaxed atomic add — instruments are
/// registered once (under the registry mutex) and the returned pointer is
/// then incremented lock-free for the registry's lifetime.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// Last-value gauge (cache occupancy, published checkpoint id, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t v) { value_.fetch_add(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// Lock-free latency/size histogram: the atomic sibling of common/Histogram
/// (identical log-bucket scheme; Record() is a handful of relaxed atomic
/// operations, safe from any thread). Values are conventionally nanoseconds
/// for *_ns instruments.
class Distribution {
 public:
  void Record(double value);
  /// Point-in-time copy as a plain Histogram (same buckets, so the same
  /// percentile math).
  Histogram Snapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Distribution();

  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_;
  std::atomic<double> max_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
};

/// One instrument in a MetricsSnapshot.
struct MetricValue {
  enum class Kind { kCounter, kGauge, kDistribution };
  std::string name;
  Labels labels;
  Kind kind = Kind::kCounter;
  uint64_t counter = 0;
  int64_t gauge = 0;
  Histogram distribution;
};

/// Consistent point-in-time view of every registered instrument. "Consistent"
/// means each instrument is read once into plain (non-atomic) storage — a
/// reader works on frozen values instead of racing live atomics (the
/// StoreStats/NetStats reference-return hazard this layer replaces).
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  /// First metric matching `name` (and every label in `labels`, which may
  /// be a subset of the instrument's labels); nullptr if none.
  const MetricValue* Find(std::string_view name,
                          const Labels& labels = {}) const;
  uint64_t CounterValue(std::string_view name, const Labels& labels = {}) const;

  /// JSON exposition: an array of {name, labels, kind, value...} objects.
  std::string ToJson() const;
};

/// Process-wide metric registry. Get* registers on first use (mutex-guarded,
/// amortized away by caching the returned pointer) and returns a stable
/// pointer whose operations are lock-free; Snapshot() walks every instrument.
/// Instruments are identified by (name, labels) — a second Get* with the
/// same identity returns the same instrument.
class MetricsRegistry {
 public:
  /// The default registry instrumented code records into.
  static MetricsRegistry& Default();

  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  Gauge* GetGauge(std::string_view name, const Labels& labels = {});
  Distribution* GetDistribution(std::string_view name,
                                const Labels& labels = {});

  MetricsSnapshot Snapshot() const;
  std::string SnapshotJson() const { return Snapshot().ToJson(); }

  /// Drops every instrument. Outstanding instrument pointers dangle — only
  /// for test isolation on registries the test owns.
  void Clear();

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricValue::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Distribution> distribution;
  };

  Entry* FindOrCreate(std::string_view name, const Labels& labels,
                      MetricValue::Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;  // by encoded key
};

/// Monotonically increasing instance id for labeling per-object instruments
/// ({"store": "3"}): keeps instruments of distinct objects distinct within
/// one process without global coordination.
uint64_t NextInstanceId();

}  // namespace oe::obs

#endif  // OE_OBS_METRICS_H_
