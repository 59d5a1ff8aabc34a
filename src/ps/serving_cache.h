#ifndef OE_PS_SERVING_CACHE_H_
#define OE_PS_SERVING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cache/lru_list.h"

namespace oe::ps {

struct ServingCacheStats {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  /// Entries displaced from a full shard to make room for a new key.
  std::atomic<uint64_t> evicted{0};
  /// Entries dropped because their checkpoint tag no longer matches the
  /// serving checkpoint (training published a newer version).
  std::atomic<uint64_t> invalidated{0};
};

/// Per-node hot-embedding cache in front of the store's snapshot read path
/// (the DRAM embedding cache of NVIDIA's inference PS, arXiv 2210.08804,
/// scaled down to one node). Values are tagged with the checkpoint version
/// they were read at; since MultiGet only serves published-checkpoint data,
/// a (key, checkpoint) pair names an immutable value, and coherence against
/// concurrent training pushes reduces to tag comparison: a lookup at a newer
/// serving checkpoint treats the stale entry as a miss and drops it (lazy
/// invalidation — no cross-thread flush when training publishes).
///
/// A plain sharded LRU: a full shard evicts its least recently used entry
/// for every new key. Each shard takes one uncontended mutex per probe.
class ServingCache {
 public:
  /// `capacity_bytes` is split evenly across shards; `dim` floats per value.
  ServingCache(size_t capacity_bytes, uint32_t dim);

  /// On hit copies the dim cached floats for `key` (tagged with checkpoint
  /// `cp`) to the bytes at `out` and returns true. `out` needs no
  /// alignment. A tag mismatch drops the entry and reports a miss.
  bool Lookup(uint64_t key, uint64_t cp, uint8_t* out);

  /// Caches a value read from the store at checkpoint `cp`.
  void Insert(uint64_t key, uint64_t cp, const float* weights);

  const ServingCacheStats& stats() const { return stats_; }
  size_t entries() const;
  /// Entries the cache holds at most (per-shard capacity times shards).
  size_t capacity() const;
  uint32_t dim() const { return dim_; }
  double HitRate() const;

 private:
  struct Entry {
    uint64_t key = 0;
    uint64_t cp = 0;
    cache::LruNode lru;
    std::unique_ptr<float[]> data;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<uint64_t, std::unique_ptr<Entry>> map;
    cache::LruList<Entry, &Entry::lru> lru;
  };

  size_t ShardOf(uint64_t key) const;
  void RemoveLocked(Shard* shard, Entry* entry);

  const uint32_t dim_;
  size_t per_shard_capacity_ = 0;  // entries per shard
  std::vector<std::unique_ptr<Shard>> shards_;
  ServingCacheStats stats_;
};

}  // namespace oe::ps

#endif  // OE_PS_SERVING_CACHE_H_
