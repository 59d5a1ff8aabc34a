// Systematic crash-consistency suite for PipelinedStore, driven by the
// pmem fault-injection hooks (pmem/fault_plan.h) through the CrashSim
// harness. Every persist event of a multi-checkpoint training run is a
// crash point; each one must recover to a batch-consistent prefix
// (Algorithm 2 of the paper). See DESIGN.md "Fault-injection points".

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"
#include "testing/crash_sim.h"

namespace oe::testing {
namespace {

CrashSimOptions BaseOptions(uint32_t shards) {
  CrashSimOptions options;
  options.store = oe::test::SmallConfig();
  options.store.store_shards = shards;
  return options;
}

void ExpectAllOk(const CrashSim& sim,
                 const std::vector<CrashPointResult>& results) {
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& res = results[i];
    std::string site = res.fault.event != 0 && res.fault.event <= sim.event_sites().size()
                           ? sim.event_sites()[res.fault.event - 1]
                           : "<none>";
    EXPECT_TRUE(res.ok()) << "fault '" << res.fault.kind << "' at event "
                          << res.fault.event << " (site " << site
                          << "): " << res.violation;
  }
}

// Crash once at every persist event of a 3-checkpoint run and verify the
// full recovery contract at each point.
void EnumerateAllAtShards(uint32_t shards) {
  CrashSim sim(BaseOptions(shards));
  ASSERT_TRUE(sim.CountEvents().ok());
  ASSERT_GE(sim.requested_checkpoints().size(), 3u);
  ASSERT_GT(sim.total_events(), 0u);

  std::vector<CrashPointResult> results;
  ASSERT_TRUE(sim.EnumerateAll(&results).ok());
  ASSERT_EQ(results.size(), sim.total_events());  // every event covered
  ExpectAllOk(sim, results);

  // Once the final checkpoint's root-publish has persisted, every later
  // crash must recover to exactly that checkpoint.
  const uint64_t last_publish = sim.FindEvent(
      "ckpt-publish", static_cast<int>(sim.requested_checkpoints().size()));
  ASSERT_GT(last_publish, 0u);
  for (uint64_t e = last_publish + 1; e <= sim.total_events(); ++e) {
    EXPECT_EQ(results[e - 1].published, sim.requested_checkpoints().back())
        << "crash after the final publish (event " << e
        << ") lost the checkpoint";
  }
  // And a crash before any publish recovers the empty model.
  const uint64_t first_publish = sim.FindEvent("ckpt-publish", 1);
  ASSERT_GT(first_publish, 1u);
  EXPECT_EQ(results[first_publish - 2].published, 0u);
}

TEST(CrashSimTest, EnumerateAllSingleShard) { EnumerateAllAtShards(1); }

TEST(CrashSimTest, EnumerateAllSixteenShards) { EnumerateAllAtShards(16); }

// The default config's persist schedule, pinned as its set of distinct
// sites: slab record commits and frees plus the checkpoint publish. A
// change that adds, renames or drops a persist site shows up here.
TEST(CrashSimTest, DefaultConfigPersistSites) {
  const std::set<std::string> want = {
      "ckpt-gc/slab-free",
      "ckpt-publish",
      "write-back/slab-commit",
      "write-back/slab-format/alloc-header",
      "write-back/slab-format/commit-header",
      "write-back/slab-format/commit-payload",
      "write-back/slab-publish",
  };
  for (uint32_t shards : {1u, 16u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    CrashSim sim(BaseOptions(shards));
    ASSERT_TRUE(sim.CountEvents().ok());
    const std::set<std::string> got(sim.event_sites().begin(),
                                    sim.event_sites().end());
    EXPECT_EQ(got, want);
  }
}

// CrashSim's contract: with one maintainer and one driver thread the
// persist schedule is a total order, so every counting run sees the same
// event sequence and an enumerated crash point lands on the site the
// counting run saw. At 16 shards this needs each seal to queue all of its
// per-shard maintenance chunks in one append.
TEST(CrashSimTest, CountingRunsAreRepeatable) {
  for (uint32_t shards : {1u, 16u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    CrashSim reference(BaseOptions(shards));
    ASSERT_TRUE(reference.CountEvents().ok());
    EXPECT_EQ(reference.total_events(), shards == 1 ? 176u : 221u);
    for (int run = 1; run < 20; ++run) {
      CrashSim sim(BaseOptions(shards));
      ASSERT_TRUE(sim.CountEvents().ok());
      ASSERT_EQ(sim.event_sites(), reference.event_sites()) << "run " << run;
    }
  }
}

// The default config's persist schedule, pinned event by event against the
// golden sequences in tests/data (one site path per line). A change that
// reorders, adds or drops a persist event fails here; a change that alters
// the schedule on purpose regenerates the files and says why.
TEST(CrashSimTest, DefaultConfigScheduleMatchesGolden) {
  for (uint32_t shards : {1u, 16u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    const std::string path = std::string(OE_TEST_DATA_DIR) +
                             "/persist_sites_" + std::to_string(shards) +
                             "shard.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open()) << "missing golden file " << path;
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);) want.push_back(line);
    CrashSim sim(BaseOptions(shards));
    ASSERT_TRUE(sim.CountEvents().ok());
    ASSERT_EQ(sim.event_sites().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(sim.event_sites()[i], want[i]) << "event " << i + 1;
    }
  }
}

// Crash-point enumeration with a cache small enough that every
// maintenance chunk evicts: most keys are PMem-resident at each push, and
// the flush/eviction persist schedule differs from the default config's,
// but every recovery invariant must hold unchanged.
TEST(CrashSimTest, EnumerateAllUnderEvictionChurn) {
  CrashSimOptions options = BaseOptions(4);
  options.store.cache_bytes = 512;  // a handful of entries: constant churn
  CrashSim sim(options);
  ASSERT_TRUE(sim.CountEvents().ok());
  ASSERT_GT(sim.total_events(), 0u);
  std::vector<CrashPointResult> results;
  ASSERT_TRUE(sim.EnumerateAll(&results).ok());
  ASSERT_EQ(results.size(), sim.total_events());
  ExpectAllOk(sim, results);
}

// The same churn with a write-back pass running beside Push, as in
// training: Push copies-on-write or updates in place the PMem-resident
// records the chunk evicted, while the pass may publish the checkpoint
// that decides between the two. The persist order is not fixed, so each
// crash point is checked only for recovery consistency: a requested
// checkpoint recovered bit-exactly.
TEST(CrashSimTest, PassBesidePushRecoversConsistently) {
  const uint64_t seed = oe::test::TestSeed(20261017);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  CrashSimOptions options = BaseOptions(4);
  options.store.cache_bytes = 512;
  options.quiesce_before_push = false;
  options.batches = 24;
  options.checkpoint_every = 2;
  CrashSim sim(options);
  ASSERT_TRUE(sim.CountEvents().ok());
  std::vector<CrashPointResult> results;
  ASSERT_TRUE(sim.RunRandomSchedule(seed, /*rounds=*/200, &results).ok());
  ASSERT_EQ(results.size(), 200u);
  ExpectAllOk(sim, results);
}

// Randomized schedules (crash or torn write at a random event) must hold
// the same invariants. The seed is overridable via OE_TEST_SEED and is
// attached to every failure message for reproduction.
TEST(CrashSimTest, RandomizedTearAndCrashSchedules) {
  const uint64_t seed = oe::test::TestSeed(20260806);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  CrashSim sim(BaseOptions(4));
  ASSERT_TRUE(sim.CountEvents().ok());
  std::vector<CrashPointResult> results;
  ASSERT_TRUE(sim.RunRandomSchedule(seed, /*rounds=*/12, &results).ok());
  ASSERT_EQ(results.size(), 12u);
  ExpectAllOk(sim, results);
  bool tore = false;
  for (const auto& res : results) tore |= res.fault.kind == 't';
  EXPECT_TRUE(tore) << "schedule never drew a torn write; adjust the seed";
}

// Tearing the checkpoint-publish root store to a zero-line prefix means the
// new Checkpointed Batch ID never reaches PMem: recovery lands on the
// previous checkpoint, and that is still a valid prefix.
TEST(CrashSimTest, TornCheckpointPublishFallsBackOneCheckpoint) {
  CrashSim sim(BaseOptions(1));
  ASSERT_TRUE(sim.CountEvents().ok());
  const auto& requested = sim.requested_checkpoints();
  ASSERT_GE(requested.size(), 2u);
  pmem::FaultPlan plan;
  plan.tear_at = sim.FindEvent("ckpt-publish", 2);
  plan.tear_lines = 0;
  ASSERT_GT(plan.tear_at, 0u);
  auto res = sim.RunPlan(plan);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().fault.kind, 't');
  EXPECT_TRUE(res.value().ok()) << res.value().violation;
  EXPECT_EQ(res.value().published, requested[0]);
}

// Dropping the flush that persists a checkpoint-GC free is benign: the
// stale record is resurrected by the crash, but recovery's newest-wins
// rescan supersedes it. The store must tolerate this without help.
TEST(CrashSimTest, DroppedCheckpointGcFreeIsBenign) {
  CrashSim sim(BaseOptions(1));
  ASSERT_TRUE(sim.CountEvents().ok());
  pmem::FaultPlan plan;
  plan.drop_at = sim.FindEvent("ckpt-gc", 1);
  ASSERT_GT(plan.drop_at, 0u);
  auto res = sim.RunPlan(plan);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value().fault.kind, 'd');
  EXPECT_TRUE(res.value().ok()) << res.value().violation;
}

// Meta-test: the harness must *detect* a genuinely missed persist. Dropping
// the payload-commit flush of the run's final write-back (the "slab-commit"
// leg of the slab allocator's two-persist protocol) leaves a record whose
// contents roll back at the crash — verification has to flag it. This is
// what distinguishes the suite from one that trivially passes.
TEST(CrashSimTest, DroppedWriteBackCommitIsDetected) {
  const std::string commit_site = "write-back/slab-commit";
  CrashSim sim(BaseOptions(1));
  ASSERT_TRUE(sim.CountEvents().ok());
  int commits = 0;
  for (const auto& site : sim.event_sites()) {
    commits += site.find(commit_site) != std::string::npos;
  }
  ASSERT_GT(commits, 0);
  pmem::FaultPlan plan;
  plan.drop_at = sim.FindEvent(commit_site, commits);
  ASSERT_GT(plan.drop_at, 0u);
  auto res = sim.RunPlan(plan);
  ASSERT_TRUE(res.ok());
  ASSERT_TRUE(res.value().fault.triggered);
  EXPECT_EQ(res.value().fault.kind, 'd');
  EXPECT_FALSE(res.value().ok())
      << "a dropped payload persist went undetected by the invariant checks";
}

}  // namespace
}  // namespace oe::testing
