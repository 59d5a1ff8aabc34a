#include "obs/metrics.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "obs/json_writer.h"

namespace oe::obs {

namespace {

/// Canonical instrument identity: name + sorted label pairs. '\0' cannot
/// appear in metric names/labels, so it is a safe separator.
std::string EncodeKey(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\0';
    key += k;
    key += '\0';
    key += v;
  }
  return key;
}

void AtomicMinDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

Distribution::Distribution()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()),
      buckets_(new std::atomic<uint64_t>[Histogram::kNumBuckets]) {
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Distribution::Record(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMinDouble(&min_, value);
  AtomicMaxDouble(&max_, value);
  buckets_[static_cast<size_t>(Histogram::BucketFor(value))].fetch_add(
      1, std::memory_order_relaxed);
}

Histogram Distribution::Snapshot() const {
  Histogram snap;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    snap.buckets_[static_cast<size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count_ = count_.load(std::memory_order_relaxed);
  snap.sum_ = sum_.load(std::memory_order_relaxed);
  snap.min_ = min_.load(std::memory_order_relaxed);
  snap.max_ = max_.load(std::memory_order_relaxed);
  return snap;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      const Labels& labels,
                                                      MetricValue::Kind kind) {
  const std::string key = EncodeKey(name, labels);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    auto entry = std::make_unique<Entry>();
    entry->name = std::string(name);
    entry->labels = labels;
    entry->kind = kind;
    switch (kind) {
      case MetricValue::Kind::kCounter:
        entry->counter.reset(new Counter());
        break;
      case MetricValue::Kind::kGauge:
        entry->gauge.reset(new Gauge());
        break;
      case MetricValue::Kind::kDistribution:
        entry->distribution.reset(new Distribution());
        break;
    }
    it = entries_.emplace(key, std::move(entry)).first;
  }
  OE_CHECK(it->second->kind == kind)
      << "metric '" << it->second->name << "' re-registered as another kind";
  return it->second.get();
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     const Labels& labels) {
  return FindOrCreate(name, labels, MetricValue::Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, const Labels& labels) {
  return FindOrCreate(name, labels, MetricValue::Kind::kGauge)->gauge.get();
}

Distribution* MetricsRegistry::GetDistribution(std::string_view name,
                                               const Labels& labels) {
  return FindOrCreate(name, labels, MetricValue::Kind::kDistribution)
      ->distribution.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.metrics.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricValue value;
    value.name = entry->name;
    value.labels = entry->labels;
    value.kind = entry->kind;
    switch (entry->kind) {
      case MetricValue::Kind::kCounter:
        value.counter = entry->counter->value();
        break;
      case MetricValue::Kind::kGauge:
        value.gauge = entry->gauge->value();
        break;
      case MetricValue::Kind::kDistribution:
        value.distribution = entry->distribution->Snapshot();
        break;
    }
    snap.metrics.push_back(std::move(value));
  }
  return snap;
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

const MetricValue* MetricsSnapshot::Find(std::string_view name,
                                         const Labels& labels) const {
  for (const MetricValue& metric : metrics) {
    if (metric.name != name) continue;
    bool match = true;
    for (const auto& [k, v] : labels) {
      auto it = metric.labels.find(k);
      if (it == metric.labels.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) return &metric;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name,
                                       const Labels& labels) const {
  const MetricValue* metric = Find(name, labels);
  return metric == nullptr ? 0 : metric->counter;
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter json;
  json.BeginArray();
  for (const MetricValue& metric : metrics) {
    json.BeginObject();
    json.Key("name").String(metric.name);
    if (!metric.labels.empty()) {
      json.Key("labels").BeginObject();
      for (const auto& [k, v] : metric.labels) json.Key(k).String(v);
      json.EndObject();
    }
    switch (metric.kind) {
      case MetricValue::Kind::kCounter:
        json.Key("kind").String("counter");
        json.Key("value").UInt(metric.counter);
        break;
      case MetricValue::Kind::kGauge:
        json.Key("kind").String("gauge");
        json.Key("value").Int(metric.gauge);
        break;
      case MetricValue::Kind::kDistribution: {
        const Histogram& d = metric.distribution;
        json.Key("kind").String("distribution");
        json.Key("count").UInt(d.count());
        json.Key("sum").Double(d.sum());
        json.Key("min").Double(d.min());
        json.Key("max").Double(d.max());
        json.Key("mean").Double(d.Mean());
        json.Key("p50").Double(d.Percentile(50));
        json.Key("p90").Double(d.Percentile(90));
        json.Key("p99").Double(d.Percentile(99));
        json.Key("p999").Double(d.Percentile(99.9));
        break;
      }
    }
    json.EndObject();
  }
  json.EndArray();
  return json.Take();
}

uint64_t NextInstanceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace oe::obs
