#ifndef OE_WORKLOAD_CRITEO_H_
#define OE_WORKLOAD_CRITEO_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "storage/entry_layout.h"

namespace oe::workload {

/// One CTR training example in the Criteo-Kaggle layout: a click label,
/// dense numeric features, and one categorical id per field.
struct CtrExample {
  float label = 0;                           // 0/1 click
  std::vector<float> dense;                  // dense_fields values
  std::vector<storage::EntryId> cat_keys;    // one global id per field
};

/// Synthetic stand-in for the Criteo display-advertising dataset (the real
/// one is an external download). Field shapes follow the original: 13
/// dense + 26 categorical fields whose cardinalities span a few dozen to
/// millions, with skewed value popularity. Labels are planted: a hidden
/// logistic ground-truth model over the same features generates clicks, so
/// training on this data has a real signal to learn (logloss decreases) —
/// which the training tests assert.
struct CriteoSynthConfig {
  uint32_t dense_fields = 13;
  uint32_t categorical_fields = 26;
  /// Base cardinality; field i gets a cardinality spread around this in
  /// [base/64, base*8] like the real dataset's wide spread.
  uint64_t base_cardinality = 10000;
  uint64_t seed = 20140701;  // Criteo Kaggle launch date
  double ground_truth_scale = 0.8;
};

/// Seed derivation of SyncTrainer's data streams: each worker's stream is
/// keyed to WorkerSeed and repositioned per global batch with BatchSeed, so
/// a replayed batch regenerates exactly the original examples. Changing
/// either constant changes every deterministic run.
inline constexpr uint64_t WorkerSeed(uint64_t base_seed, int worker) {
  return base_seed + static_cast<uint64_t>(worker) * 7919;
}
inline constexpr uint64_t BatchSeed(uint64_t worker_seed, uint64_t batch) {
  return worker_seed + batch * 1000003ULL;
}

class CriteoSynth {
 public:
  explicit CriteoSynth(const CriteoSynthConfig& config);

  /// Generates the next example (deterministic stream for a given seed).
  CtrExample Next();
  std::vector<CtrExample> NextBatch(size_t n);

  /// Repositions the stream: after Reseed(s) the generator produces the
  /// same examples it would after construction with seed s. Lets a trainer
  /// key batch content to the global batch id, so batches replayed after a
  /// crash rollback are bit-identical to the originals. The ground-truth
  /// model and field cardinalities are fixed at construction and unaffected.
  void Reseed(uint64_t seed) { rng_.Seed(seed); }

  /// Total embedding-id universe (sum of field cardinalities). Ids are
  /// globally unique across fields: id = field_offset[f] + value.
  uint64_t total_keys() const { return total_keys_; }
  uint64_t cardinality(uint32_t field) const { return cardinalities_[field]; }
  const CriteoSynthConfig& config() const { return config_; }

  /// The hidden ground-truth click probability for an example (test hook:
  /// a learned model's logloss should approach the ground truth entropy).
  double GroundTruthCtr(const CtrExample& example) const;

 private:
  float GroundTruthWeight(storage::EntryId key) const;

  CriteoSynthConfig config_;
  std::vector<uint64_t> cardinalities_;
  std::vector<uint64_t> field_offset_;
  uint64_t total_keys_ = 0;
  Random rng_;
};

}  // namespace oe::workload

#endif  // OE_WORKLOAD_CRITEO_H_
