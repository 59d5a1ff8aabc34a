#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "workload/criteo.h"
#include "workload/open_loop.h"
#include "workload/skew.h"
#include "workload/trace.h"

namespace oe::workload {
namespace {

TEST(SkewedKeySamplerTest, OriginalPresetMatchesTableTwo) {
  SkewedKeySampler sampler(1 << 20, SkewPreset::kOriginal);
  // Closed-form tier masses reproduce the paper's Table II.
  EXPECT_NEAR(sampler.MassOfTopFraction(0.0005), 0.857, 0.01);
  EXPECT_NEAR(sampler.MassOfTopFraction(0.001), 0.895, 0.01);
  EXPECT_NEAR(sampler.MassOfTopFraction(0.01), 0.957, 0.01);
}

TEST(SkewedKeySamplerTest, EmpiricalSamplesMatchTableTwo) {
  const uint64_t num_keys = 200000;
  SkewedKeySampler sampler(num_keys, SkewPreset::kOriginal);
  Random rng(3);
  TraceAnalyzer analyzer;
  for (int i = 0; i < 400000; ++i) analyzer.Record(sampler.Sample(&rng));
  // Hottest 0.05% of the full keyspace = 100 keys. Use the accessed-key
  // basis like the paper: accessed keys are dominated by hot ranks.
  const double top_005 =
      analyzer.TopFractionShare(100.0 / analyzer.distinct_keys());
  EXPECT_NEAR(top_005, 0.857, 0.05);
}

TEST(SkewedKeySamplerTest, PresetsOrderBySkew) {
  const uint64_t num_keys = 1 << 20;
  SkewedKeySampler original(num_keys, SkewPreset::kOriginal);
  SkewedKeySampler more(num_keys, SkewPreset::kMoreSkew);
  SkewedKeySampler less(num_keys, SkewPreset::kLessSkew);
  EXPECT_GT(more.MassOfTopFraction(0.001), original.MassOfTopFraction(0.001));
  EXPECT_GT(original.MassOfTopFraction(0.001), less.MassOfTopFraction(0.001));
}

TEST(SkewedKeySamplerTest, SamplesWithinRange) {
  SkewedKeySampler sampler(1000, SkewPreset::kOriginal);
  Random rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(sampler.Sample(&rng), 1000u);
  }
}

// Regression: with a small universe the per-tier widths round to zero-width
// ranges whose leftover mass used to make Sample() return ids >= num_keys
// (and ids far beyond the hot ranks far too often). Every preset must stay
// in range and conserve mass even when num_keys is tiny.
TEST(SkewedKeySamplerTest, SmallUniverseStaysInRange) {
  const SkewPreset presets[] = {SkewPreset::kLessSkew, SkewPreset::kOriginal,
                                SkewPreset::kMoreSkew};
  const uint64_t universes[] = {1, 3, 10, 100, 1500};
  for (SkewPreset preset : presets) {
    for (uint64_t num_keys : universes) {
      SkewedKeySampler sampler(num_keys, preset);
      EXPECT_NEAR(sampler.MassOfTopFraction(1.0), 1.0, 1e-9)
          << "preset " << static_cast<int>(preset) << " keys " << num_keys;
      Random rng(17 + num_keys);
      for (int i = 0; i < 20000; ++i) {
        EXPECT_LT(sampler.Sample(&rng), num_keys)
            << "preset " << static_cast<int>(preset) << " keys " << num_keys;
      }
    }
  }
}

// The folded tiers still prefer low ranks: in a 100-key universe the top
// 10 ids must dominate the samples under the original preset.
TEST(SkewedKeySamplerTest, SmallUniverseKeepsSkew) {
  SkewedKeySampler sampler(100, SkewPreset::kOriginal);
  Random rng(23);
  int head_hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (sampler.Sample(&rng) < 10) ++head_hits;
  }
  EXPECT_GT(static_cast<double>(head_hits) / n, 0.5);
}

TEST(SkewedKeySamplerTest, ColdTailIsReached) {
  const uint64_t num_keys = 10000;
  SkewedKeySampler sampler(num_keys, SkewPreset::kOriginal);
  Random rng(2);
  uint64_t tail_hits = 0;
  for (int i = 0; i < 200000; ++i) {
    if (sampler.Sample(&rng) > num_keys / 10) ++tail_hits;
  }
  EXPECT_GT(tail_hits, 100u);  // the cold 90% still sees traffic
}

TEST(BatchTraceGeneratorTest, BatchesAreUniqueSorted) {
  SkewedKeySampler sampler(100000, SkewPreset::kOriginal);
  BatchTraceGenerator generator(&sampler, 4096, 9);
  auto batch = generator.NextBatch();
  EXPECT_FALSE(batch.empty());
  EXPECT_LE(batch.size(), 4096u);
  EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
  EXPECT_EQ(std::set<uint64_t>(batch.begin(), batch.end()).size(),
            batch.size());
}

TEST(BatchTraceGeneratorTest, SkewCompressesUniqueKeys) {
  // Duplicates collapse: a skewed batch has far fewer unique keys than
  // draws (hot entries are drawn repeatedly — the paper's "pairs").
  SkewedKeySampler sampler(1 << 20, SkewPreset::kOriginal);
  BatchTraceGenerator generator(&sampler, 8192, 10);
  auto batch = generator.NextBatch();
  EXPECT_LT(batch.size(), 8192u / 2);
}

// Inverse-CDF sample of a rank in [0, num_keys) from the pure exponential
// frequency model of Fig. 10: freq(rank r) ∝ exp(-lambda * r / num_keys).
uint64_t SampleExponentialRank(uint64_t num_keys, double lambda,
                               Random* rng) {
  const double u = rng->NextDouble();
  const double z = -std::log(1.0 - u * (1.0 - std::exp(-lambda))) / lambda;
  const auto rank = static_cast<uint64_t>(z * static_cast<double>(num_keys));
  return std::min(rank, num_keys - 1);
}

TEST(TraceAnalyzerTest, FitRecoversLambda) {
  Random rng(5);
  TraceAnalyzer analyzer;
  for (int i = 0; i < 2000000; ++i) {
    analyzer.Record(SampleExponentialRank(5000, 12.0, &rng));
  }
  const double lambda = analyzer.FitExponentialLambda();
  // The fit runs over accessed keys only, so it recovers the decay rate up
  // to the coverage ratio; expect the right order of magnitude.
  EXPECT_GT(lambda, 6.0);
  EXPECT_LT(lambda, 20.0);
}

TEST(TraceAnalyzerTest, CountsAndShares) {
  TraceAnalyzer analyzer;
  for (int i = 0; i < 90; ++i) analyzer.Record(1);
  for (int i = 0; i < 10; ++i) analyzer.Record(i + 10);
  EXPECT_EQ(analyzer.total_accesses(), 100u);
  EXPECT_EQ(analyzer.distinct_keys(), 11u);
  // Top ~9% (1 of 11 keys) captures 90%.
  EXPECT_NEAR(analyzer.TopFractionShare(0.09), 0.90, 0.01);
}

TEST(BurstTimelineTest, PullsAndUpdatesPairUp) {
  BurstTimelineConfig config;
  config.num_batches = 2;
  config.workers = 4;
  config.requests_per_worker = 4096;
  BurstTimeline timeline = MakeBurstTimeline(config, 11);
  // Fig. 2: pull and update request totals are consistent (pairs).
  const double ratio = static_cast<double>(timeline.TotalPulls()) /
                       static_cast<double>(timeline.TotalUpdates());
  EXPECT_NEAR(ratio, 1.0, 0.05);
  // Bursty: the peak ms is much higher than the mean ms.
  uint64_t peak = 0, total = 0;
  for (uint64_t c : timeline.pull_per_ms) {
    peak = std::max(peak, c);
    total += c;
  }
  const double mean =
      static_cast<double>(total) / timeline.pull_per_ms.size();
  EXPECT_GT(static_cast<double>(peak), 4 * mean);
}

TEST(OpenLoopGeneratorTest, OfferedRateMatchesConfiguredQps) {
  OpenLoopConfig config;
  config.qps = 50000.0;
  config.keys_per_request = 8;
  config.num_keys = 10000;
  OpenLoopGenerator generator(config);
  const size_t n = 20000;
  const auto requests = generator.Take(n);
  ASSERT_EQ(requests.size(), n);
  EXPECT_EQ(generator.generated(), n);
  // Poisson arrivals with mean gap 1/qps: over 20k draws the empirical rate
  // concentrates around the configured one (std error ~1/sqrt(n) < 1%).
  const double span_s =
      static_cast<double>(requests.back().arrival_ns) / 1e9;
  const double offered = static_cast<double>(n) / span_s;
  EXPECT_NEAR(offered, config.qps, 0.05 * config.qps);
  for (const auto& request : requests) {
    EXPECT_EQ(request.keys.size(), config.keys_per_request);
    for (uint64_t key : request.keys) EXPECT_LT(key, config.num_keys);
  }
}

TEST(OpenLoopGeneratorTest, ArrivalsAreMonotoneAndSpread) {
  OpenLoopConfig config;
  config.qps = 1000.0;
  OpenLoopGenerator generator(config);
  uint64_t previous = 0;
  std::set<uint64_t> gaps;
  for (int i = 0; i < 500; ++i) {
    const auto request = generator.Next();
    EXPECT_GE(request.arrival_ns, previous);
    gaps.insert(request.arrival_ns - previous);
    previous = request.arrival_ns;
  }
  // Exponential gaps, not a fixed tick: nearly every gap is distinct.
  EXPECT_GT(gaps.size(), 450u);
}

TEST(OpenLoopGeneratorTest, DeterministicForSeed) {
  OpenLoopConfig config;
  config.qps = 10000.0;
  config.seed = 11;
  OpenLoopGenerator a(config), b(config);
  OpenLoopConfig other = config;
  other.seed = 12;
  OpenLoopGenerator c(other);
  bool diverged = false;
  for (int i = 0; i < 200; ++i) {
    const auto ra = a.Next();
    const auto rb = b.Next();
    const auto rc = c.Next();
    EXPECT_EQ(ra.arrival_ns, rb.arrival_ns) << "request " << i;
    EXPECT_EQ(ra.keys, rb.keys) << "request " << i;
    diverged = diverged || ra.arrival_ns != rc.arrival_ns;
  }
  EXPECT_TRUE(diverged);  // the seed actually matters
}

TEST(CriteoSynthTest, ShapeMatchesConfig) {
  CriteoSynthConfig config;
  CriteoSynth data(config);
  auto example = data.Next();
  EXPECT_EQ(example.dense.size(), 13u);
  EXPECT_EQ(example.cat_keys.size(), 26u);
  EXPECT_GT(data.total_keys(), 0u);
}

TEST(CriteoSynthTest, KeysAreGloballyUniquePerField) {
  CriteoSynthConfig config;
  CriteoSynth data(config);
  // Field key ranges must not overlap: two fields never share an id.
  for (int i = 0; i < 2000; ++i) {
    auto example = data.Next();
    std::set<uint64_t> distinct(example.cat_keys.begin(),
                                example.cat_keys.end());
    EXPECT_EQ(distinct.size(), example.cat_keys.size());
  }
}

TEST(CriteoSynthTest, LabelsFollowGroundTruth) {
  CriteoSynthConfig config;
  CriteoSynth data(config);
  double click_rate = 0;
  double mean_ctr = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto example = data.Next();
    click_rate += example.label;
    mean_ctr += data.GroundTruthCtr(example);
  }
  click_rate /= n;
  mean_ctr /= n;
  EXPECT_NEAR(click_rate, mean_ctr, 0.02);
  EXPECT_GT(click_rate, 0.05);
  EXPECT_LT(click_rate, 0.6);
}

TEST(CriteoSynthTest, DeterministicForSeed) {
  CriteoSynthConfig config;
  CriteoSynth a(config), b(config);
  for (int i = 0; i < 100; ++i) {
    auto ea = a.Next();
    auto eb = b.Next();
    EXPECT_EQ(ea.label, eb.label);
    EXPECT_EQ(ea.cat_keys, eb.cat_keys);
  }
}

TEST(CriteoSynthTest, CardinalitiesSpread) {
  CriteoSynthConfig config;
  CriteoSynth data(config);
  uint64_t min_card = ~0ULL, max_card = 0;
  for (uint32_t f = 0; f < config.categorical_fields; ++f) {
    min_card = std::min(min_card, data.cardinality(f));
    max_card = std::max(max_card, data.cardinality(f));
  }
  EXPECT_LT(min_card * 8, max_card);  // wide spread like the real dataset
}

}  // namespace
}  // namespace oe::workload
