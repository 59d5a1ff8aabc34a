#ifndef OE_COMMON_HISTOGRAM_H_
#define OE_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace oe {

namespace obs {
class Distribution;
}  // namespace obs

/// Log-bucketed latency/size histogram (RocksDB-style). Thread-compatible:
/// callers synchronize externally or keep one per thread and Merge().
class Histogram {
 public:
  Histogram();

  void Add(double value);
  void Merge(const Histogram& other);
  void Clear();

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double Mean() const;
  /// Linear interpolation within the containing bucket; p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  std::string ToString() const;

  /// The bucket scheme is public so the lock-free mirror (obs::Distribution
  /// keeps one atomic counter per bucket) records into the same buckets.
  static constexpr int kNumBuckets = 132;
  /// Upper bound of bucket i (exclusive); buckets grow ~exponentially.
  static double BucketLimit(int bucket);
  static int BucketFor(double value);

 private:
  /// Snapshots its atomic buckets into a Histogram, so both share one
  /// percentile implementation.
  friend class obs::Distribution;

  uint64_t count_;
  double sum_;
  double min_;
  double max_;
  std::vector<uint64_t> buckets_;
};

}  // namespace oe

#endif  // OE_COMMON_HISTOGRAM_H_
