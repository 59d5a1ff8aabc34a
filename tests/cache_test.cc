#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <list>
#include <thread>
#include <vector>

#include "cache/access_queue.h"
#include "cache/lru_list.h"
#include "cache/tagged_ptr.h"
#include "common/random.h"

namespace oe::cache {
namespace {

struct Entry {
  uint64_t key = 0;
  LruNode lru;
};

using List = LruList<Entry, &Entry::lru>;

TEST(TaggedPtrTest, NullByDefault) {
  TaggedPtr ptr;
  EXPECT_TRUE(ptr.is_null());
  EXPECT_FALSE(ptr.is_dram());
  EXPECT_FALSE(ptr.is_pmem());
}

TEST(TaggedPtrTest, DramRoundTrip) {
  Entry entry;
  TaggedPtr ptr = TaggedPtr::FromDram(&entry);
  EXPECT_TRUE(ptr.is_dram());
  EXPECT_FALSE(ptr.is_pmem());
  EXPECT_EQ(ptr.dram<Entry>(), &entry);
}

TEST(TaggedPtrTest, PmemRoundTrip) {
  TaggedPtr ptr = TaggedPtr::FromPmem(0xdeadbeef);
  EXPECT_TRUE(ptr.is_pmem());
  EXPECT_FALSE(ptr.is_dram());
  EXPECT_EQ(ptr.pmem_offset(), 0xdeadbeefULL);
}

TEST(TaggedPtrTest, PmemOffsetZeroIsNotNull) {
  TaggedPtr ptr = TaggedPtr::FromPmem(0);
  EXPECT_FALSE(ptr.is_null());
  EXPECT_TRUE(ptr.is_pmem());
  EXPECT_EQ(ptr.pmem_offset(), 0u);
}

TEST(TaggedPtrTest, Equality) {
  Entry entry;
  EXPECT_EQ(TaggedPtr::FromDram(&entry), TaggedPtr::FromDram(&entry));
  EXPECT_FALSE(TaggedPtr::FromPmem(1) == TaggedPtr::FromPmem(2));
}

TEST(LruListTest, EmptyList) {
  List list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_EQ(list.Tail(), nullptr);
  EXPECT_EQ(list.Head(), nullptr);
}

TEST(LruListTest, PushFrontOrdering) {
  List list;
  Entry a{1, {}}, b{2, {}}, c{3, {}};
  list.PushFront(&a);
  list.PushFront(&b);
  list.PushFront(&c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.Head(), &c);  // most recent
  EXPECT_EQ(list.Tail(), &a);  // victim
}

TEST(LruListTest, TouchMovesToHead) {
  List list;
  Entry a{1, {}}, b{2, {}}, c{3, {}};
  list.PushFront(&a);
  list.PushFront(&b);
  list.PushFront(&c);
  list.Touch(&a);
  EXPECT_EQ(list.Head(), &a);
  EXPECT_EQ(list.Tail(), &b);
}

TEST(LruListTest, TouchLinksUnlinkedEntry) {
  List list;
  Entry a{1, {}};
  EXPECT_FALSE(list.Contains(&a));
  list.Touch(&a);
  EXPECT_TRUE(list.Contains(&a));
  EXPECT_EQ(list.size(), 1u);
}

TEST(LruListTest, RemoveUnlinks) {
  List list;
  Entry a{1, {}}, b{2, {}};
  list.PushFront(&a);
  list.PushFront(&b);
  list.Remove(&a);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_FALSE(list.Contains(&a));
  EXPECT_EQ(list.Tail(), &b);
}

TEST(LruListTest, ClearUnlinksEverything) {
  List list;
  std::vector<Entry> entries(10);
  for (auto& entry : entries) list.PushFront(&entry);
  list.Clear();
  EXPECT_TRUE(list.empty());
  for (auto& entry : entries) EXPECT_FALSE(list.Contains(&entry));
  // Reusable after Clear.
  list.PushFront(&entries[0]);
  EXPECT_EQ(list.size(), 1u);
}

TEST(LruListTest, MoreRecentWalksFromTailToHead) {
  List list;
  Entry a{1, {}}, b{2, {}}, c{3, {}};
  list.PushFront(&a);
  list.PushFront(&b);
  list.PushFront(&c);
  // Eviction-preference order: tail -> ... -> head -> nullptr.
  Entry* e = list.Tail();
  EXPECT_EQ(e, &a);
  e = list.MoreRecent(e);
  EXPECT_EQ(e, &b);
  e = list.MoreRecent(e);
  EXPECT_EQ(e, &c);
  EXPECT_EQ(list.MoreRecent(e), nullptr);
}

// The container_of offset is measured on the first real object pushed; an
// Entry whose node member is not first must still round-trip exactly (the
// rewritten EntryOf — the old fabricated-pointer probe was UB).
TEST(LruListTest, NodeOffsetRecoveryWithLeadingMembers) {
  struct Padded {
    uint64_t key = 0;
    double filler[3] = {};
    LruNode lru;
    uint32_t more = 0;
  };
  LruList<Padded, &Padded::lru> list;
  Padded a, b;
  a.key = 7;
  b.key = 9;
  list.PushFront(&a);
  list.PushFront(&b);
  EXPECT_EQ(list.Tail(), &a);
  EXPECT_EQ(list.Head(), &b);
  EXPECT_EQ(list.Tail()->key, 7u);
  EXPECT_EQ(list.MoreRecent(list.Tail()), &b);
}

// Property: LruList behaves exactly like a reference std::list-based LRU
// under random Touch/Remove/PushFront sequences.
class LruPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LruPropertyTest, MatchesReferenceModel) {
  constexpr size_t kEntries = 32;
  std::vector<Entry> entries(kEntries);
  for (size_t i = 0; i < kEntries; ++i) entries[i].key = i;
  List list;
  std::list<size_t> reference;  // front = MRU

  Random rng(GetParam());
  for (int step = 0; step < 2000; ++step) {
    const size_t i = rng.Uniform(kEntries);
    const bool linked = list.Contains(&entries[i]);
    const double dice = rng.NextDouble();
    if (dice < 0.5) {
      list.Touch(&entries[i]);
      reference.remove(i);
      reference.push_front(i);
    } else if (dice < 0.75 && linked) {
      list.Remove(&entries[i]);
      reference.remove(i);
    } else if (!linked) {
      list.PushFront(&entries[i]);
      reference.push_front(i);
    }
    ASSERT_EQ(list.size(), reference.size());
    if (!reference.empty()) {
      ASSERT_EQ(list.Head()->key, reference.front());
      ASSERT_EQ(list.Tail()->key, reference.back());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(ShardedAccessQueueTest, ExcludesBusyShardsAndKeepsPerShardFifo) {
  ShardedAccessQueue<int> queue(2);
  queue.Append(1, {{10}, {20}});
  queue.Append(2, {{11}, {}});

  size_t shard = ~0ull;
  uint64_t batch = 0;
  std::vector<int> items;
  // First pop claims shard 0's oldest chunk and marks the shard busy.
  ASSERT_TRUE(queue.Pop(&shard, &batch, &items));
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(batch, 1u);
  EXPECT_EQ(items, std::vector<int>({10}));

  // Shard 0 is busy, so the next pop must skip its queued batch-2 chunk
  // and hand out shard 1 instead.
  size_t shard2 = ~0ull;
  ASSERT_TRUE(queue.Pop(&shard2, &batch, &items));
  EXPECT_EQ(shard2, 1u);
  EXPECT_EQ(items, std::vector<int>({20}));

  // Releasing shard 0 makes its next chunk (FIFO) eligible again.
  queue.Done(0);
  ASSERT_TRUE(queue.Pop(&shard, &batch, &items));
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(batch, 2u);
  EXPECT_EQ(items, std::vector<int>({11}));

  queue.Done(0);
  queue.Done(1);
  queue.Close();
  EXPECT_FALSE(queue.Pop(&shard, &batch, &items));
}

TEST(ShardedAccessQueueTest, CloseWakesPopBlockedOnBusyShard) {
  ShardedAccessQueue<int> queue(1);
  queue.Append(1, {{1}});
  size_t shard = 0;
  uint64_t batch = 0;
  std::vector<int> items;
  ASSERT_TRUE(queue.Pop(&shard, &batch, &items));

  // A second consumer blocks: the only shard is busy. Finishing the chunk
  // after Close must let it drain to the closed-and-empty return.
  std::thread consumer([&] {
    size_t s;
    uint64_t b;
    std::vector<int> i;
    EXPECT_FALSE(queue.Pop(&s, &b, &i));
  });
  queue.Close();
  queue.Done(0);
  consumer.join();
}

// One Append queues a whole seal: every non-empty per-shard chunk becomes
// visible at once under the seal's batch, empty chunks queue nothing, and
// pops walk the shards round-robin.
TEST(ShardedAccessQueueTest, AppendQueuesWholeSeal) {
  ShardedAccessQueue<int> queue(3);
  queue.Append(5, {{1, 2}, {}, {3}});
  EXPECT_EQ(queue.size(), 2u);
  queue.Append(6, {{}, {}, {}});
  EXPECT_EQ(queue.size(), 2u);

  size_t shard = ~0ull;
  uint64_t batch = 0;
  std::vector<int> items;
  ASSERT_TRUE(queue.Pop(&shard, &batch, &items));
  EXPECT_EQ(shard, 0u);
  EXPECT_EQ(batch, 5u);
  EXPECT_EQ(items, std::vector<int>({1, 2}));
  ASSERT_TRUE(queue.Pop(&shard, &batch, &items));
  EXPECT_EQ(shard, 2u);
  EXPECT_EQ(batch, 5u);
  EXPECT_EQ(items, std::vector<int>({3}));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(ShardedAccessQueueTest, DrainsRemainingAfterClose) {
  ShardedAccessQueue<int> queue(2);
  queue.Append(1, {{1}, {2}});
  queue.Close();
  size_t shard;
  uint64_t batch;
  std::vector<int> items;
  EXPECT_TRUE(queue.Pop(&shard, &batch, &items));  // still drains
  queue.Done(shard);
  EXPECT_TRUE(queue.Pop(&shard, &batch, &items));
  queue.Done(shard);
  EXPECT_FALSE(queue.Pop(&shard, &batch, &items));  // then reports closed
}

// Producers own one shard each and append seals in batch order; consumers
// must see every item, never two chunks of one shard at once, and each
// shard's chunks in FIFO (batch) order.
TEST(ShardedAccessQueueTest, ConcurrentProducersConsumers) {
  constexpr size_t kShards = 4;
  constexpr int kSeals = 100;
  ShardedAccessQueue<int> queue(kShards);
  std::atomic<int> consumed{0};
  std::atomic<bool> in_order{true};
  std::array<uint64_t, kShards> last_batch{};  // guarded by the busy claim
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      size_t shard;
      uint64_t batch;
      std::vector<int> items;
      while (queue.Pop(&shard, &batch, &items)) {
        if (batch <= last_batch[shard]) in_order.store(false);
        last_batch[shard] = batch;
        consumed.fetch_add(static_cast<int>(items.size()));
        queue.Done(shard);
      }
    });
  }
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kShards; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 1; i <= kSeals; ++i) {
        std::vector<std::vector<int>> seal(kShards);
        seal[p] = {i};
        queue.Append(static_cast<uint64_t>(i), std::move(seal));
      }
    });
  }
  for (auto& t : producers) t.join();
  while (queue.size() > 0) std::this_thread::yield();
  queue.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), static_cast<int>(kShards) * kSeals);
  EXPECT_TRUE(in_order.load());
}

}  // namespace
}  // namespace oe::cache
