#include "ps/serving_cache.h"

#include <algorithm>
#include <cstring>

namespace oe::ps {

namespace {

constexpr size_t kShards = 8;

}  // namespace

ServingCache::ServingCache(size_t capacity_bytes, uint32_t dim) : dim_(dim) {
  const size_t entry_bytes = sizeof(Entry) + dim * sizeof(float);
  const size_t total_entries = std::max<size_t>(capacity_bytes / entry_bytes,
                                                kShards);
  per_shard_capacity_ = std::max<size_t>(total_entries / kShards, 1);
  shards_.reserve(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ServingCache::ShardOf(uint64_t key) const {
  uint64_t h = key * 0x9E3779B97F4A7C15ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h % kShards);
}

void ServingCache::RemoveLocked(Shard* shard, Entry* entry) {
  shard->lru.Remove(entry);
  shard->map.erase(entry->key);  // frees the entry
}

bool ServingCache::Lookup(uint64_t key, uint64_t cp, uint8_t* out) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Entry* entry = it->second.get();
  if (entry->cp != cp) {
    // Training published a newer checkpoint since this value was cached (or
    // the caller pinned an older one): the tag no longer names the serving
    // version, so the entry is dead weight — drop it now.
    RemoveLocked(&shard, entry);
    stats_.invalidated.fetch_add(1, std::memory_order_relaxed);
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  std::memcpy(out, entry->data.get(), dim_ * sizeof(float));
  shard.lru.Touch(entry);
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ServingCache::Insert(uint64_t key, uint64_t cp, const float* weights) {
  Shard& shard = *shards_[ShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // Refresh in place (typically a newer checkpoint tag after the old one
    // was served stale).
    Entry* entry = it->second.get();
    entry->cp = cp;
    std::memcpy(entry->data.get(), weights, dim_ * sizeof(float));
    shard.lru.Touch(entry);
    return;
  }
  if (shard.map.size() >= per_shard_capacity_) {
    RemoveLocked(&shard, shard.lru.Tail());
    stats_.evicted.fetch_add(1, std::memory_order_relaxed);
  }
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->cp = cp;
  entry->data = std::make_unique<float[]>(dim_);
  std::memcpy(entry->data.get(), weights, dim_ * sizeof(float));
  shard.lru.PushFront(entry.get());
  shard.map.emplace(key, std::move(entry));
}

size_t ServingCache::entries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

size_t ServingCache::capacity() const {
  return per_shard_capacity_ * shards_.size();
}

double ServingCache::HitRate() const {
  const uint64_t hits = stats_.hits.load(std::memory_order_relaxed);
  const uint64_t misses = stats_.misses.load(std::memory_order_relaxed);
  return hits + misses == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

}  // namespace oe::ps
