#ifndef OE_WORKLOAD_TRACE_H_
#define OE_WORKLOAD_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/entry_layout.h"
#include "workload/skew.h"

namespace oe::workload {

/// Generates per-batch key sets with the production trace's structure:
/// each batch draws `keys_per_batch` lookups from the skew model and
/// dedupes them (the same entry appearing several times in one batch is a
/// single pull + a single aggregated update — the "pairs" of Fig. 2).
class BatchTraceGenerator {
 public:
  BatchTraceGenerator(const SkewedKeySampler* sampler, size_t keys_per_batch,
                      uint64_t seed)
      : sampler_(sampler), keys_per_batch_(keys_per_batch), rng_(seed) {}

  /// Unique keys accessed by the next batch, ascending.
  std::vector<storage::EntryId> NextBatch();

 private:
  const SkewedKeySampler* sampler_;
  size_t keys_per_batch_;
  Random rng_;
};

/// Statistics over a stream of accesses: the Table II concentration
/// numbers and the Fig. 10 rank/frequency curve with its exponential fit.
class TraceAnalyzer {
 public:
  void Record(storage::EntryId key) { ++frequency_[key]; }

  uint64_t total_accesses() const;
  uint64_t distinct_keys() const { return frequency_.size(); }

  /// Share of accesses landing on the hottest `fraction` of *accessed*
  /// keys (Table II's "% of total access").
  double TopFractionShare(double fraction) const;

  /// Access counts sorted descending (the Fig. 10 curve).
  std::vector<uint64_t> RankFrequencies() const;

  /// Least-squares fit of log(freq) = a - lambda * rank/num_ranks over the
  /// hottest `head_fraction` of the rank-frequency curve (the exponential
  /// regime; the cold tail of single-hit keys is excluded by default as in
  /// the paper's Fig. 10 fit). Returns lambda, the decay rate.
  double FitExponentialLambda(double head_fraction = 0.05) const;

 private:
  std::map<storage::EntryId, uint64_t> frequency_;
};

/// Per-millisecond request counts over a synchronous-training timeline
/// (Fig. 2): all workers issue pulls in a burst at batch start, the PS is
/// idle during GPU compute, and updates burst at batch end.
struct BurstTimelineConfig {
  int num_batches = 2;
  int workers = 4;
  uint64_t requests_per_worker = 4096;  // per phase (pull or update)
  int batch_period_ms = 15;             // batch-to-batch period
  int burst_width_ms = 2;               // how long each burst lasts
};

struct BurstTimeline {
  std::vector<uint64_t> pull_per_ms;
  std::vector<uint64_t> update_per_ms;

  uint64_t TotalPulls() const;
  uint64_t TotalUpdates() const;
};

/// Builds the Fig. 2 timeline for the given configuration.
BurstTimeline MakeBurstTimeline(const BurstTimelineConfig& config,
                                uint64_t seed);

}  // namespace oe::workload

#endif  // OE_WORKLOAD_TRACE_H_
