#ifndef OE_WORKLOAD_SKEW_H_
#define OE_WORKLOAD_SKEW_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "storage/entry_layout.h"

namespace oe::workload {

/// Named skew presets matching Section VI-C-4 / Fig. 10: the production
/// trace's fitted distribution plus the paper's "more skew" and "less skew"
/// variants generated "by modifying the parameters of the exponential
/// distribution while keeping the total amount of accesses the same".
enum class SkewPreset : uint8_t {
  kOriginal = 0,
  kMoreSkew = 1,
  kLessSkew = 2,
};

std::string_view SkewPresetToString(SkewPreset preset);

/// Access-frequency model for embedding-entry ids.
///
/// The paper's production workload (Table II) concentrates 85.7% / 89.5% /
/// 95.7% of accesses in the top 0.05% / 0.1% / 1% of entries, and Fig. 10
/// fits the frequency-vs-rank curve with exponential decay. A single
/// exponential cannot reproduce all three Table II points, so this model
/// uses tiers with exponential decay *within* each tier: by construction
/// the tier masses match Table II, and the within-tier decay keeps the
/// rank-frequency curve exponential in shape.
class SkewedKeySampler {
 public:
  struct Tier {
    double rank_fraction;  // fraction of the keyspace in this tier
    double access_mass;    // fraction of accesses landing in it
  };

  /// `num_keys` is the total embedding-id universe.
  SkewedKeySampler(uint64_t num_keys, SkewPreset preset);
  SkewedKeySampler(uint64_t num_keys, std::vector<Tier> tiers);

  /// Draws one key (0-based id). Ids are rank-ordered: id 0 is the hottest.
  storage::EntryId Sample(Random* rng) const;

  /// Fraction of accesses expected to land in the hottest
  /// `rank_fraction` of keys (closed form; used to verify Table II).
  double MassOfTopFraction(double rank_fraction) const;

  uint64_t num_keys() const { return num_keys_; }
  const std::vector<Tier>& tiers() const { return tiers_; }

  /// Tier tables for the three presets.
  static std::vector<Tier> TiersFor(SkewPreset preset);

 private:
  uint64_t num_keys_;
  std::vector<Tier> tiers_;
  std::vector<double> cumulative_mass_;   // CDF over tiers
  std::vector<uint64_t> tier_begin_;      // first rank of each tier
  std::vector<uint64_t> tier_size_;
};

}  // namespace oe::workload

#endif  // OE_WORKLOAD_SKEW_H_
