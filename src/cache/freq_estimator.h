#ifndef OE_CACHE_FREQ_ESTIMATOR_H_
#define OE_CACHE_FREQ_ESTIMATOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace oe::cache {

/// Compact per-key access-frequency estimator: a count-min sketch with
/// saturating 8-bit counters and periodic halving decay, after the
/// frequency-aware software cache of Fang et al. (arXiv 2208.05321) and the
/// TinyLFU admission family.
///
/// Estimates only over-count (count-min property), never under-count, so a
/// genuinely hot key can never be mistaken for cold — the signal the
/// ServingCache's admission rule needs.
///
/// Not thread-safe: the ServingCache keeps one estimator per shard and
/// touches it only under that shard's mutex.
class FreqEstimator {
 public:
  /// Frequencies saturate here; decay halves them back into range long
  /// before a hot key's counter pins at the ceiling for good.
  static constexpr uint32_t kMaxFreq = 255;

  /// `counters` is the per-row width; rounded up to a power of two
  /// (minimum 64) so row indexing is a mask, not a modulo.
  explicit FreqEstimator(size_t counters) {
    size_t width = 64;
    while (width < counters) width <<= 1;
    mask_ = width - 1;
    table_.assign(kDepth * width, 0);
  }

  /// Increments `key`'s estimate by one (saturating) and returns the new
  /// estimate.
  uint32_t Record(uint64_t key) {
    uint32_t estimate = kMaxFreq;
    for (size_t row = 0; row < kDepth; ++row) {
      uint8_t& counter = table_[row * (mask_ + 1) + Index(key, row)];
      if (counter < kMaxFreq) ++counter;
      estimate = std::min<uint32_t>(estimate, counter);
    }
    return estimate;
  }

  /// Current estimate (an upper bound on the true decayed count).
  uint32_t Estimate(uint64_t key) const {
    uint32_t estimate = kMaxFreq;
    for (size_t row = 0; row < kDepth; ++row) {
      estimate = std::min<uint32_t>(
          estimate, table_[row * (mask_ + 1) + Index(key, row)]);
    }
    return estimate;
  }

  /// Halves every counter: the periodic decay that lets yesterday's hot
  /// keys cool off instead of squatting in the cache forever.
  void Decay() {
    for (uint8_t& counter : table_) {
      counter = static_cast<uint8_t>(counter >> 1);
    }
  }

  size_t width() const { return mask_ + 1; }

 private:
  static constexpr size_t kDepth = 4;

  size_t Index(uint64_t key, size_t row) const {
    // One multiply-xorshift per row with distinct odd constants; the rows
    // only need to be pairwise weakly independent.
    static constexpr uint64_t kSeeds[kDepth] = {
        0x9E3779B97F4A7C15ULL, 0xC2B2AE3D27D4EB4FULL, 0x165667B19E3779F9ULL,
        0x27D4EB2F165667C5ULL};
    uint64_t h = (key + kSeeds[row]) * kSeeds[row];
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h) & mask_;
  }

  size_t mask_ = 0;
  std::vector<uint8_t> table_;  // kDepth rows of width() counters
};

}  // namespace oe::cache

#endif  // OE_CACHE_FREQ_ESTIMATOR_H_
