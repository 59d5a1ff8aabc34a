#include "workload/skew.h"

#include <cmath>

#include "common/logging.h"

namespace oe::workload {

std::string_view SkewPresetToString(SkewPreset preset) {
  switch (preset) {
    case SkewPreset::kOriginal:
      return "original";
    case SkewPreset::kMoreSkew:
      return "more-skew";
    case SkewPreset::kLessSkew:
      return "less-skew";
  }
  return "unknown";
}

std::vector<SkewedKeySampler::Tier> SkewedKeySampler::TiersFor(
    SkewPreset preset) {
  // Original tiers reproduce Table II exactly:
  //   top 0.05% -> 85.7%, top 0.1% -> 89.5%, top 1% -> 95.7%.
  switch (preset) {
    case SkewPreset::kOriginal:
      return {{0.0005, 0.857},
              {0.0005, 0.038},   // 0.05%..0.1%: 89.5 - 85.7
              {0.009, 0.062},    // 0.1%..1%:   95.7 - 89.5
              {0.99, 0.043}};    // the cold 99%
    case SkewPreset::kMoreSkew:
      return {{0.0005, 0.9035},
              {0.0005, 0.030},
              {0.009, 0.045},
              {0.99, 0.0215}};
    case SkewPreset::kLessSkew:
      return {{0.0005, 0.797},
              {0.0005, 0.050},
              {0.009, 0.085},
              {0.99, 0.068}};
  }
  return {};
}

SkewedKeySampler::SkewedKeySampler(uint64_t num_keys, SkewPreset preset)
    : SkewedKeySampler(num_keys, TiersFor(preset)) {}

SkewedKeySampler::SkewedKeySampler(uint64_t num_keys, std::vector<Tier> tiers)
    : num_keys_(num_keys), tiers_(std::move(tiers)) {
  OE_CHECK(num_keys_ > 0);
  OE_CHECK(!tiers_.empty());
  double mass = 0;
  uint64_t rank = 0;
  for (const Tier& tier : tiers_) {
    mass += tier.access_mass;
    if (rank >= num_keys_) {
      // Small universes exhaust the keyspace before the tier table does
      // (each materialized tier is clamped to >= 1 key below). A zero-width
      // tier that still carried access mass would make Sample() return the
      // out-of-range id num_keys_; fold the leftover mass into the last
      // materialized tier instead (renormalization: masses still sum to 1).
      OE_CHECK(!cumulative_mass_.empty());
      cumulative_mass_.back() = mass;
      continue;
    }
    cumulative_mass_.push_back(mass);
    tier_begin_.push_back(rank);
    uint64_t size = static_cast<uint64_t>(
        tier.rank_fraction * static_cast<double>(num_keys_));
    // Every materialized tier covers at least one key and at most the keys
    // that remain.
    if (size == 0) size = 1;
    size = std::min(size, num_keys_ - rank);
    tier_size_.push_back(size);
    rank += size;
  }
  OE_CHECK(std::abs(mass - 1.0) < 1e-6) << "tier masses must sum to 1";
}

storage::EntryId SkewedKeySampler::Sample(Random* rng) const {
  const double u = rng->NextDouble();
  size_t tier = 0;
  while (tier + 1 < cumulative_mass_.size() && u >= cumulative_mass_[tier]) {
    ++tier;
  }
  // Exponential decay within the tier (lambda = 3 keeps the head of each
  // tier hotter, preserving the overall exponential-looking curve).
  constexpr double kLambda = 3.0;
  const double v = rng->NextDouble();
  const double z =
      -std::log(1.0 - v * (1.0 - std::exp(-kLambda))) / kLambda;  // [0,1)
  const uint64_t offset =
      std::min(tier_size_[tier] - 1,
               static_cast<uint64_t>(z * static_cast<double>(
                                             tier_size_[tier])));
  return tier_begin_[tier] + offset;
}

double SkewedKeySampler::MassOfTopFraction(double rank_fraction) const {
  const double target_ranks = rank_fraction * static_cast<double>(num_keys_);
  double mass = 0;
  double ranks = 0;
  constexpr double kLambda = 3.0;
  // Iterate the *materialized* tiers: small universes may fold trailing
  // tiers' mass into the last one (see the constructor), so tiers_ and
  // tier_size_ can differ in length.
  for (size_t t = 0; t < tier_size_.size(); ++t) {
    const double tier_mass =
        cumulative_mass_[t] - (t == 0 ? 0.0 : cumulative_mass_[t - 1]);
    const double size = static_cast<double>(tier_size_[t]);
    if (ranks + size <= target_ranks) {
      mass += tier_mass;
      ranks += size;
      continue;
    }
    const double q = (target_ranks - ranks) / size;  // partial tier coverage
    if (q > 0) {
      const double partial =
          (1.0 - std::exp(-kLambda * q)) / (1.0 - std::exp(-kLambda));
      mass += tier_mass * partial;
    }
    break;
  }
  return mass;
}

}  // namespace oe::workload
