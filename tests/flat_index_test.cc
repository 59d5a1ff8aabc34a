// FlatIndex unit suite: the pipelined store's per-shard key -> slot index
// (F14-style flat DRAM table) checked against a plain std::unordered_map
// reference, including its batched probe and growth.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "cache/tagged_ptr.h"
#include "common/random.h"
#include "storage/flat_index.h"
#include "test_util.h"

namespace oe::storage {
namespace {

using cache::AtomicTaggedPtr;
using cache::TaggedPtr;

TaggedPtr Val(uint64_t n) { return TaggedPtr::FromPmem(n * 8); }

TEST(FlatIndexTest, InsertFindUpdateEraseClear) {
  FlatIndex kv;
  EXPECT_EQ(kv.Size(), 0u);
  EXPECT_EQ(kv.Find(42), nullptr);
  EXPECT_FALSE(kv.Erase(42));

  AtomicTaggedPtr* slot = kv.Upsert(42, Val(1));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(kv.Size(), 1u);
  EXPECT_EQ(slot->load().pmem_offset(), Val(1).pmem_offset());
  ASSERT_NE(kv.Find(42), nullptr);
  EXPECT_EQ(kv.Find(42)->load().pmem_offset(), Val(1).pmem_offset());

  // Upsert of an existing key updates in place, size unchanged.
  ASSERT_NE(kv.Upsert(42, Val(2)), nullptr);
  EXPECT_EQ(kv.Size(), 1u);
  EXPECT_EQ(kv.Find(42)->load().pmem_offset(), Val(2).pmem_offset());

  // Insert of an existing key keeps its value and reports no insert.
  auto [kept, inserted] = kv.Insert(42, Val(9));
  EXPECT_FALSE(inserted);
  EXPECT_EQ(kept, kv.Find(42));
  EXPECT_EQ(kept->load().pmem_offset(), Val(2).pmem_offset());
  EXPECT_EQ(kv.Size(), 1u);

  // The slot is an atomic the push path stores through directly.
  kv.Find(42)->store(Val(3));
  EXPECT_EQ(kv.Find(42)->load().pmem_offset(), Val(3).pmem_offset());

  EXPECT_TRUE(kv.Erase(42));
  EXPECT_EQ(kv.Size(), 0u);
  EXPECT_EQ(kv.Find(42), nullptr);
  EXPECT_FALSE(kv.Erase(42));

  for (EntryId k = 1; k <= 10; ++k) kv.Upsert(k, Val(k));
  kv.Clear();
  EXPECT_EQ(kv.Size(), 0u);
  for (EntryId k = 1; k <= 10; ++k) EXPECT_EQ(kv.Find(k), nullptr);
  // And the index is reusable after Clear; Insert of an absent key inserts.
  ASSERT_NE(kv.Upsert(7, Val(7)), nullptr);
  EXPECT_TRUE(kv.Insert(8, Val(8)).second);
  EXPECT_EQ(kv.Find(8)->load().pmem_offset(), Val(8).pmem_offset());
  EXPECT_EQ(kv.Size(), 2u);
}

TEST(FlatIndexTest, GrowthKeepsEveryKeyFindable) {
  // 3000 keys: the table rehashes ~6 times from its 64-slot seed.
  constexpr EntryId kKeys = 3000;
  FlatIndex kv;
  for (EntryId k = 1; k <= kKeys; ++k) {
    ASSERT_NE(kv.Upsert(k, Val(k)), nullptr) << "key " << k;
  }
  ASSERT_EQ(kv.Size(), kKeys);
  for (EntryId k = 1; k <= kKeys; ++k) {
    AtomicTaggedPtr* slot = kv.Find(k);
    ASSERT_NE(slot, nullptr) << "key " << k;
    EXPECT_EQ(slot->load().pmem_offset(), Val(k).pmem_offset());
  }
  EXPECT_EQ(kv.Find(kKeys + 1), nullptr);
}

TEST(FlatIndexTest, RandomizedOpsMatchReferenceMap) {
  const uint64_t seed = oe::test::TestSeed(20260809);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  FlatIndex kv;
  std::unordered_map<EntryId, uint64_t> ref;
  Random rng(seed);
  for (int op = 0; op < 20000; ++op) {
    const EntryId key = 1 + rng.Uniform(600);  // dense: plenty of hits
    const uint64_t roll = rng.Uniform(10);
    if (roll < 6) {
      const uint64_t v = 1 + rng.Uniform(1u << 20);
      ASSERT_NE(kv.Upsert(key, Val(v)), nullptr);
      ref[key] = v;
    } else if (roll < 9) {
      EXPECT_EQ(kv.Erase(key), ref.erase(key) != 0);
    } else {
      AtomicTaggedPtr* slot = kv.Find(key);
      auto it = ref.find(key);
      ASSERT_EQ(slot != nullptr, it != ref.end());
      if (slot != nullptr) {
        EXPECT_EQ(slot->load().pmem_offset(), Val(it->second).pmem_offset());
      }
    }
  }
  ASSERT_EQ(kv.Size(), ref.size());
  // Full-scan parity: ForEach yields exactly the reference contents.
  size_t seen = 0;
  kv.ForEach([&](EntryId key, TaggedPtr value) {
    ++seen;
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "ForEach produced unknown key " << key;
    EXPECT_EQ(value.pmem_offset(), Val(it->second).pmem_offset());
  });
  EXPECT_EQ(seen, ref.size());
}

// FindBatch is the store's hot path (pipelined probe), Find the reference:
// over a mixed stream of present/absent keys — batch sizes straddling the
// internal pipeline stride — both must agree slot-for-slot.
TEST(FlatIndexTest, FindBatchMatchesFind) {
  const uint64_t seed = oe::test::TestSeed(20260810);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  FlatIndex kv;
  Random rng(seed);
  for (EntryId key = 0; key < 800; ++key) {
    if (rng.Uniform(3) != 0) {  // ~1/3 of the keyspace stays absent
      kv.Upsert(key, Val(key + 1));
    }
  }
  for (size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{33},
                   size_t{256}}) {
    std::vector<EntryId> keys(n);
    for (auto& key : keys) key = rng.Uniform(1000);  // some out of range
    std::vector<AtomicTaggedPtr*> slots(n, nullptr);
    kv.FindBatch(keys.data(), n, slots.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(slots[i], kv.Find(keys[i])) << "key " << keys[i];
    }
  }
}

}  // namespace
}  // namespace oe::storage
