#include "storage/pipelined_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"

namespace oe::storage {

using cache::TaggedPtr;

namespace {

// kFreqAware policy constants (DESIGN.md §5c).
// Per-shard count-min sketch width (counters per row; 4 rows of saturating
// 8-bit counters).
constexpr uint32_t kFreqCounters = 1 << 12;
// Halve every frequency counter after this many maintenance batches per
// shard: the periodic decay that lets stale hot keys cool off.
constexpr uint64_t kFreqDecayBatches = 64;
// At most this fraction of a shard's cache capacity may be pinned, so
// eviction always has an unpinned victim available.
constexpr double kHotPinFraction = 0.5;
// Victim search window: the lowest-frequency entry among this many LRU-tail
// candidates is evicted.
constexpr uint32_t kEvictWindow = 8;

// Records per CheckpointLog chunk written by backups and migration images.
constexpr size_t kChunkRecords = 4096;

/// Buffers consecutive entry records and appends them to a CheckpointLog in
/// chunks of kChunkRecords, every chunk tagged with one batch id.
class RecordChunkWriter {
 public:
  RecordChunkWriter(ckpt::CheckpointLog* log, uint64_t batch,
                    size_t record_bytes)
      : log_(log),
        batch_(batch),
        record_bytes_(record_bytes),
        buffer_(kChunkRecords * record_bytes) {}

  /// Space for the next record (record_bytes, filled by the caller); a
  /// full buffer is appended to the log first.
  uint8_t* Next() {
    if (buffered_ == kChunkRecords) Flush();
    return buffer_.data() + buffered_++ * record_bytes_;
  }

  /// False once an append failed; nothing is appended after that.
  bool ok() const { return status_.ok(); }

  /// Appends the buffered tail; returns the first append error, if any.
  Status Finish() {
    Flush();
    return status_;
  }

 private:
  void Flush() {
    if (buffered_ > 0 && status_.ok()) {
      status_ = log_->AppendChunk(batch_, buffer_.data(), buffered_);
    }
    buffered_ = 0;
  }

  ckpt::CheckpointLog* log_;
  const uint64_t batch_;
  const size_t record_bytes_;
  std::vector<uint8_t> buffer_;
  size_t buffered_ = 0;
  Status status_ = Status::OK();
};

}  // namespace

size_t PipelinedStore::ShardCount(const StoreConfig& config) {
  return static_cast<size_t>(std::max(1, config.store_shards));
}

PipelinedStore::PipelinedStore(const StoreConfig& config,
                               pmem::PmemDevice* device)
    : config_(config),
      layout_(config.dim, config.optimizer.Slots()),
      device_(device),
      shards_(ShardCount(config)),
      access_queue_(ShardCount(config)),
      shard_acked_(ShardCount(config), 0) {
  const std::string store_id = std::to_string(obs::NextInstanceId());
  const obs::Labels labels = {{"engine", "pipelined"}, {"store", store_id}};
  auto& registry = obs::MetricsRegistry::Default();
  pull_latency_ = registry.GetDistribution("store.pull_ns", labels);
  push_latency_ = registry.GetDistribution("store.push_ns", labels);
  multiget_latency_ = registry.GetDistribution("store.multiget_ns", labels);
  hit_rate_gauge_ = registry.GetGauge("store.cache_hit_rate_bp", labels);
  pinned_gauge_ = registry.GetGauge("store.cache_pinned_entries", labels);
  shard_maint_latency_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    obs::Labels shard_labels = labels;
    shard_labels["shard"] = std::to_string(s);
    shard_maint_latency_.push_back(registry.GetDistribution(
        "store.maintenance_chunk_ns", shard_labels));
  }
}

Result<std::unique_ptr<PipelinedStore>> PipelinedStore::Create(
    const StoreConfig& config, pmem::PmemDevice* device) {
  if (config.dim == 0) return Status::InvalidArgument("dim must be > 0");
  if (device == nullptr) return Status::InvalidArgument("null device");
  if (config.maintainer_threads <= 0) {
    return Status::InvalidArgument("need at least one maintainer thread");
  }
  auto store =
      std::unique_ptr<PipelinedStore>(new PipelinedStore(config, device));
  OE_RETURN_IF_ERROR(store->Init());
  return store;
}

Result<std::unique_ptr<PipelinedStore>> PipelinedStore::Open(
    const StoreConfig& config, pmem::PmemDevice* device) {
  if (config.dim == 0) return Status::InvalidArgument("dim must be > 0");
  if (device == nullptr) return Status::InvalidArgument("null device");
  if (config.maintainer_threads <= 0) {
    return Status::InvalidArgument("need at least one maintainer thread");
  }
  auto store =
      std::unique_ptr<PipelinedStore>(new PipelinedStore(config, device));
  // Validate the pool before starting threads, then let the standard
  // recovery path (scan + discard-newer-than-checkpoint + index rebuild)
  // adopt the existing contents.
  OE_ASSIGN_OR_RETURN(store->pool_, pmem::PmemPool::Open(device));
  // The slab scan never sees records under a retired tag: refuse the image
  // (untouched) rather than recover an empty model from it.
  for (uint64_t tag : {kRetiredRecordTag, kRetiredIndexTag}) {
    uint64_t extents = 0;
    store->pool_->ForEachAllocated(tag, [&](uint64_t, uint64_t) { ++extents; });
    if (extents != 0) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "0x%llX",
                    static_cast<unsigned long long>(tag));
      return Status::FailedPrecondition(
          "pool holds " + std::to_string(extents) + " extent(s) under retired "
          "tag " + hex + " (per-record pool allocation or PMem bucket "
          "index); this store reads slab-allocated records only");
    }
  }
  OE_RETURN_IF_ERROR(store->Init());
  OE_RETURN_IF_ERROR(store->RecoverFromCrash());
  return store;
}

Status PipelinedStore::Init() {
  if (pool_ == nullptr) {
    OE_ASSIGN_OR_RETURN(pool_, pmem::PmemPool::Create(device_));
  }
  pmem::SlabAllocatorOptions slab_options;
  slab_options.lanes = static_cast<uint32_t>(shards_.size());
  OE_ASSIGN_OR_RETURN(slab_,
                      pmem::SlabAllocator::Attach(pool_.get(), slab_options));
  if (config_.cache_enabled) {
    cache_capacity_ = std::max<size_t>(
        1, config_.cache_bytes / layout_.record_bytes());
  } else {
    cache_capacity_ = 0;
  }
  // Split the budget so per-shard capacities sum to exactly
  // cache_capacity_. A zero-capacity shard is legal: entries pass through
  // its cache and are evicted by the first maintenance touch.
  const size_t shards = shards_.size();
  for (size_t s = 0; s < shards; ++s) {
    shards_[s].capacity =
        cache_capacity_ / shards + (s < cache_capacity_ % shards ? 1 : 0);
  }
  if (config_.cache_enabled &&
      config_.cache_policy == CachePolicy::kFreqAware) {
    for (auto& sh : shards_) {
      sh.freq = std::make_unique<cache::FreqEstimator>(kFreqCounters);
    }
  }
  const uint64_t cp = pool_->RootGet(kRootCheckpointId);
  published_ckpt_.store(cp, std::memory_order_release);
  std::fill(shard_acked_.begin(), shard_acked_.end(), cp);
  if (config_.cache_enabled && config_.pipeline_enabled) {
    maintainers_.reserve(static_cast<size_t>(config_.maintainer_threads));
    for (int i = 0; i < config_.maintainer_threads; ++i) {
      maintainers_.emplace_back([this] { MaintainerLoop(); });
    }
  }
  return Status::OK();
}

PipelinedStore::~PipelinedStore() {
  access_queue_.Close();
  for (auto& t : maintainers_) t.join();
}

void PipelinedStore::GroupByShard(const EntryId* keys, size_t n,
                                  std::vector<size_t>* order,
                                  std::vector<size_t>* begin) const {
  const size_t shards = shards_.size();
  begin->assign(shards + 1, 0);
  if (shards == 1) {
    order->resize(n);
    for (size_t i = 0; i < n; ++i) (*order)[i] = i;
    (*begin)[1] = n;
    return;
  }
  // Counting sort by shard: stable, one pass over the keys per phase.
  std::vector<size_t> shard_of(n);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = ShardOf(keys[i]);
    ++(*begin)[shard_of[i] + 1];
  }
  for (size_t s = 0; s < shards; ++s) (*begin)[s + 1] += (*begin)[s];
  order->resize(n);
  std::vector<size_t> cursor(begin->begin(), begin->end() - 1);
  for (size_t i = 0; i < n; ++i) (*order)[cursor[shard_of[i]]++] = i;
}

void PipelinedStore::MaintainerLoop() {
  if (obs::TraceRecorder::Default().enabled()) {
    obs::TraceRecorder::Default().SetThreadName("maintainer");
  }
  size_t shard = 0;
  uint64_t batch = 0;
  std::vector<EntryId> keys;
  while (access_queue_.Pop(&shard, &batch, &keys)) {
    const Nanos chunk_start = WallNowNanos();
    {
      obs::ScopedSpan span("store", "maintenance_chunk");
      WriteGuard guard(shards_[shard].lock);
      ProcessChunkLocked(shard, batch, keys);
    }
    shard_maint_latency_[shard]->Record(
        static_cast<double>(WallNowNanos() - chunk_start));
    access_queue_.Done(shard);
    {
      std::lock_guard<std::mutex> lock(maint_mutex_);
      ++processed_chunks_;
    }
    maint_cv_.notify_all();
  }
}

PipelinedStore::CacheEntry* PipelinedStore::CreateCachedEntryLocked(
    size_t shard, EntryId key, uint64_t batch) {
  Shard& sh = shards_[shard];
  auto entry = std::make_unique<CacheEntry>();
  entry->key = key;
  entry->version = batch;
  entry->dirty = true;  // never flushed
  entry->data = std::make_unique<float[]>(layout_.values_per_entry());
  std::fill_n(entry->data.get(), layout_.values_per_entry(), 0.0f);
  config_.initializer.Fill(key, entry->data.get(), config_.dim);
  dram_stats_.AddWrite(layout_.data_bytes());
  CacheEntry* raw = entry.get();
  sh.index.Upsert(key, TaggedPtr::FromDram(raw));
  sh.cache_entries.emplace(key, std::move(entry));
  ++sh.fresh_entries;
  stats_.new_entries.fetch_add(1, std::memory_order_relaxed);
  return raw;
}

Status PipelinedStore::Pull(const EntryId* keys, size_t n, uint64_t batch,
                            float* out) {
  stats_.pull_keys.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) return Status::OK();
  const Nanos pull_start = WallNowNanos();
  obs::ScopedSpan span("store", "pull");
  const size_t weight_bytes = config_.dim * sizeof(float);

  std::vector<size_t> order;
  std::vector<size_t> begin;
  GroupByShard(keys, n, &order, &begin);

  // Positions of keys absent from their shard's index, grouped by shard
  // (construction order below preserves the shard grouping of `order`).
  std::vector<size_t> missing;
  std::vector<EntryId> present;
  // Per-shard scratch for the batched index probe (gathered outside the
  // shard lock; FindBatch pipelines the lookups under it).
  std::vector<EntryId> shard_keys;
  std::vector<cache::AtomicTaggedPtr*> shard_slots;

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (begin[s] == begin[s + 1]) continue;
    Shard& sh = shards_[s];
    present.clear();
    const size_t count = begin[s + 1] - begin[s];
    shard_keys.resize(count);
    shard_slots.resize(count);
    for (size_t k = 0; k < count; ++k) {
      shard_keys[k] = keys[order[begin[s] + k]];
    }
    ReadGuard guard(sh.lock);
    sh.index.FindBatch(shard_keys.data(), count, shard_slots.data());
    for (size_t j = begin[s]; j < begin[s + 1]; ++j) {
      const size_t i = order[j];
      cache::AtomicTaggedPtr* slot = shard_slots[j - begin[s]];
      if (slot == nullptr) {
        missing.push_back(i);
        continue;
      }
      // Copy under the key's push stripe: lookahead-prefetch fills pull
      // concurrently with pushes of *other* batches, and Push applies
      // gradients to the entry data in place (or COW-remaps the PMem
      // record) under this stripe. The stripe makes the copy atomic with
      // respect to one Apply — a reader sees pre- or post-push values,
      // never a torn mix; *which* of the two is resolved by the worker-
      // side invalidation protocol. Lock order (shard read lock -> push
      // stripe) matches Push exactly. The slot is loaded under the stripe
      // for the same reason Push loads it there: a concurrent COW may
      // have remapped the record.
      SpinLock& stripe = push_locks_[keys[i] % kPushShards];
      stripe.lock();
      const TaggedPtr ptr = slot->load();
      if (ptr.is_dram()) {
        const CacheEntry* entry = ptr.dram<CacheEntry>();
        std::memcpy(out + i * config_.dim, entry->data.get(), weight_bytes);
        stripe.unlock();
        dram_stats_.AddRead(weight_bytes);
        stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Copy the weights straight from the PMem record (Algorithm 1:
        // "copied from either DRAM or PMem to the network buffer").
        device_->Read(ptr.pmem_offset() + EntryLayout::kHeaderBytes,
                      out + i * config_.dim, weight_bytes);
        stripe.unlock();
        stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
      }
      present.push_back(keys[i]);
    }
    // Stage the accessed keys before the shard lock is released: a
    // concurrent FinishPullPhase swapping the stage buffer between the
    // accesses and the staging would attribute them to the wrong
    // maintenance chunk. Keys not yet in the index are staged by the
    // creation section below, in the critical section where their access
    // actually happens.
    if (config_.cache_enabled && !present.empty()) {
      std::lock_guard<std::mutex> lock(sh.stage_mutex);
      sh.staged.insert(sh.staged.end(), present.begin(), present.end());
    }
  }

  for (size_t m = 0; m < missing.size();) {
    const size_t s = ShardOf(keys[missing[m]]);
    size_t m_end = m + 1;
    while (m_end < missing.size() && ShardOf(keys[missing[m_end]]) == s) {
      ++m_end;
    }
    Shard& sh = shards_[s];
    WriteGuard guard(sh.lock);
    for (size_t j = m; j < m_end; ++j) {
      const size_t i = missing[j];
      const EntryId key = keys[i];
      cache::AtomicTaggedPtr* slot = sh.index.Find(key);
      if (slot == nullptr) {
        if (config_.cache_enabled) {
          CacheEntry* entry = CreateCachedEntryLocked(s, key, batch);
          std::memcpy(out + i * config_.dim, entry->data.get(), weight_bytes);
          dram_stats_.AddRead(weight_bytes);
        } else {
          OE_RETURN_IF_ERROR(
              PullPmemDirect(s, key, batch, out + i * config_.dim));
        }
        continue;
      }
      // Raced with another puller (or a duplicate earlier in this batch)
      // that created it; serve and count it like the read-locked pass
      // (including its stripe discipline against concurrent pushes).
      SpinLock& stripe = push_locks_[key % kPushShards];
      stripe.lock();
      const TaggedPtr ptr = slot->load();
      if (ptr.is_dram()) {
        std::memcpy(out + i * config_.dim, ptr.dram<CacheEntry>()->data.get(),
                    weight_bytes);
        stripe.unlock();
        dram_stats_.AddRead(weight_bytes);
        stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        device_->Read(ptr.pmem_offset() + EntryLayout::kHeaderBytes,
                      out + i * config_.dim, weight_bytes);
        stripe.unlock();
        stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (config_.cache_enabled) {
      std::lock_guard<std::mutex> lock(sh.stage_mutex);
      for (size_t j = m; j < m_end; ++j) sh.staged.push_back(keys[missing[j]]);
    }
    m = m_end;
  }
  pull_latency_->Record(static_cast<double>(WallNowNanos() - pull_start));
  return Status::OK();
}

Status PipelinedStore::PullPmemDirect(size_t shard, EntryId key,
                                      uint64_t batch, float* out) {
  // Cache-disabled mode: create the record directly in PMem.
  std::vector<uint8_t> record(layout_.record_bytes(), 0);
  EntryLayout::SetRecordHeader(record.data(), key, batch);
  config_.initializer.Fill(key, EntryLayout::RecordData(record.data()),
                           config_.dim);
  pmem::PersistSiteGuard site("direct-create");
  OE_ASSIGN_OR_RETURN(uint64_t offset,
                      AllocRecord(record.data(), record.size(), shard));
  shards_[shard].index.Upsert(key, TaggedPtr::FromPmem(offset));
  stats_.new_entries.fetch_add(1, std::memory_order_relaxed);
  std::memcpy(out, EntryLayout::RecordData(record.data()),
              config_.dim * sizeof(float));
  return Status::OK();
}

void PipelinedStore::FinishPullPhase(uint64_t batch) {
  obs::ScopedSpan span("store", "seal");
  if (!config_.cache_enabled) {
    std::lock_guard<std::mutex> lock(maint_mutex_);
    sealed_batch_ = std::max(sealed_batch_, batch);
    maint_cv_.notify_all();
    return;
  }
  // Seal: swap out every shard's staging buffer. Pulls of this batch have
  // completed (training protocol), so each buffer holds exactly the batch's
  // accesses for that shard.
  std::vector<std::vector<EntryId>> chunks(shards_.size());
  size_t nonempty = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].stage_mutex);
    chunks[s].swap(shards_[s].staged);
    if (!chunks[s].empty()) ++nonempty;
  }
  if (config_.pipeline_enabled) {
    {
      std::lock_guard<std::mutex> lock(maint_mutex_);
      appended_chunks_ += nonempty;
      sealed_batch_ = std::max(sealed_batch_, batch);
    }
    access_queue_.Append(batch, std::move(chunks));
    if (nonempty == 0) maint_cv_.notify_all();
  } else {
    // Ablation mode (Fig. 9): maintenance on the critical path.
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (chunks[s].empty()) continue;
      const Nanos chunk_start = WallNowNanos();
      {
        WriteGuard guard(shards_[s].lock);
        ProcessChunkLocked(s, batch, chunks[s]);
      }
      shard_maint_latency_[s]->Record(
          static_cast<double>(WallNowNanos() - chunk_start));
    }
    std::lock_guard<std::mutex> lock(maint_mutex_);
    sealed_batch_ = std::max(sealed_batch_, batch);
    maint_cv_.notify_all();
  }
}

void PipelinedStore::WaitMaintenance(uint64_t batch) {
  // Drain semantics: wait until every chunk sealed so far is processed.
  // Callers that need batch-complete guarantees (Push, the simulator) seal
  // the batch before waiting, so its chunks are in the appended count. The
  // batch id deliberately does not gate the wait — a wait on a never-
  // sealed batch (stray RPC) must not block a server thread forever.
  (void)batch;
  std::unique_lock<std::mutex> lock(maint_mutex_);
  maint_cv_.wait(lock,
                 [&] { return processed_chunks_ == appended_chunks_; });
}

bool PipelinedStore::PendingHead(uint64_t* cp) const {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  if (pending_ckpts_.empty()) return false;
  *cp = pending_ckpts_.front();
  return true;
}

bool PipelinedStore::ShardDurableForLocked(const Shard& shard,
                                           uint64_t cp) const {
  // Algorithm 2 lines 23-28, per shard: LRU order equals version order, so
  // the tail carries the minimum version in this shard's cache; once it
  // exceeds the checkpoint's batch id every state the checkpoint needs from
  // this shard is durable in PMem. First-touch entries not yet linked into
  // the LRU are invisible to the tail test and block the ack outright —
  // their batch's maintenance chunk links (and, if gated, flushes) them.
  if (shard.fresh_entries > 0) return false;
  const CacheEntry* tail = shard.lru.Tail();
  return tail == nullptr || tail->version > cp;
}

std::vector<uint64_t> PipelinedStore::PublishReadyLocked() {
  std::vector<uint64_t> to_free;
  while (!pending_ckpts_.empty()) {
    const uint64_t cp = pending_ckpts_.front();
    bool all_acked = true;
    for (uint64_t acked : shard_acked_) {
      if (acked < cp) {
        all_acked = false;
        break;
      }
    }
    if (!all_acked) break;
    // One failure-atomic 8-byte PMem store publishes the checkpoint
    // (Algorithm 2: PMem.atomicUpdateCheckpointId).
    {
      obs::ScopedSpan span("store", "ckpt_publish");
      pmem::PersistSiteGuard site("ckpt-publish");
      pool_->RootSet(kRootCheckpointId, cp);
    }
    published_ckpt_.store(cp, std::memory_order_release);
    pending_ckpts_.pop_front();
    // Records superseded by versions <= cp are now unreachable by any
    // current or future checkpoint: recycle their space — unless a snapshot
    // reader is pinned to an older published checkpoint, in which case the
    // GC (and the snapshot_index_ prune) parks in limbo_ until the last
    // reader releases. Publication itself is never delayed by readers.
    auto end = deferred_free_.upper_bound(cp);
    for (auto it = deferred_free_.begin(); it != end; ++it) {
      for (const DeferredRecord& record : it->second) {
        if (snapshot_pins_ > 0) {
          limbo_.push_back(record);
        } else {
          PruneSnapshotIndexLocked(record);
          to_free.push_back(record.offset);
        }
      }
    }
    deferred_free_.erase(deferred_free_.begin(), end);
    stats_.checkpoints_published.fetch_add(1, std::memory_order_relaxed);
  }
  return to_free;
}

uint64_t PipelinedStore::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  ++snapshot_pins_;
  return published_ckpt_.load(std::memory_order_acquire);
}

void PipelinedStore::ReleaseSnapshot() {
  std::vector<uint64_t> to_free;
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    OE_CHECK(snapshot_pins_ > 0);
    if (--snapshot_pins_ == 0 && !limbo_.empty()) {
      for (const DeferredRecord& record : limbo_) {
        PruneSnapshotIndexLocked(record);
        to_free.push_back(record.offset);
      }
      limbo_.clear();
    }
  }
  if (to_free.empty()) return;
  pmem::PersistSiteGuard site("ckpt-gc");
  for (uint64_t offset : to_free) OE_CHECK_OK(FreeRecord(offset));
}

void PipelinedStore::PruneSnapshotIndexLocked(const DeferredRecord& record) {
  auto it = snapshot_index_.find(record.key);
  if (it == snapshot_index_.end()) return;
  auto& records = it->second;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].offset == record.offset) {
      records[i] = records.back();
      records.pop_back();
      break;
    }
  }
  if (records.empty()) snapshot_index_.erase(it);
}

void PipelinedStore::DeferRecordLocked(const DeferredRecord& record,
                                       uint64_t gc_after) {
  snapshot_index_[record.key].push_back(
      SnapshotRecord{record.offset, record.version});
  if (gc_after <= published_ckpt_.load(std::memory_order_acquire)) {
    // Already superseded for every current and future checkpoint; only the
    // currently-pinned readers can still reach it.
    limbo_.push_back(record);
  } else {
    deferred_free_[gc_after].push_back(record);
  }
}

uint64_t PipelinedStore::SnapshotRecordAtLocked(EntryId key,
                                               uint64_t cp) const {
  auto it = snapshot_index_.find(key);
  if (it == snapshot_index_.end()) return kNullOffset;
  uint64_t offset = kNullOffset;
  uint64_t best_version = 0;
  for (const SnapshotRecord& record : it->second) {
    if (record.version <= cp &&
        (offset == kNullOffset || record.version > best_version)) {
      offset = record.offset;
      best_version = record.version;
    }
  }
  return offset;
}

size_t PipelinedStore::SnapshotIndexRecords() const {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  size_t total = 0;
  for (const auto& [key, records] : snapshot_index_) total += records.size();
  return total;
}

void PipelinedStore::AckCheckpointsLocked(size_t shard) {
  const Shard& sh = shards_[shard];
  std::vector<uint64_t> to_free;
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    if (pending_ckpts_.empty()) return;
    uint64_t acked = shard_acked_[shard];
    for (const uint64_t cp : pending_ckpts_) {
      if (cp <= acked) continue;
      if (!ShardDurableForLocked(sh, cp)) break;
      acked = cp;
    }
    shard_acked_[shard] = acked;
    to_free = PublishReadyLocked();
  }
  pmem::PersistSiteGuard site("ckpt-gc");
  for (uint64_t offset : to_free) OE_CHECK_OK(FreeRecord(offset));
}

void PipelinedStore::ProcessChunkLocked(size_t shard, uint64_t batch,
                                        std::vector<EntryId>& keys) {
  Shard& sh = shards_[shard];
  // Under Zipf skew a hot key appears many times per batch; one flush +
  // LRU touch covers all its occurrences. Sorting off the hot path is
  // cheaper than hashing per occurrence, and order inside the chunk is
  // irrelevant: every key gets version = batch, so the LRU-order ==
  // version-order invariant holds regardless.
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  // Flush gate: an entry must be written back if any published-or-pending
  // checkpoint may still need its current (pre-reaccess) state.
  uint64_t flush_gate = 0;
  bool has_gate = false;
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    if (!pending_ckpts_.empty()) {
      flush_gate = pending_ckpts_.back();
      has_gate = true;
    }
  }

  // Frequency bookkeeping (kFreqAware): one sketch increment per key per
  // batch — the chunk is deduplicated above, so an estimate approximates
  // "batches this key was touched in within the decay window".
  const bool by_freq = sh.freq != nullptr;
  static const std::vector<CacheEntry*> kNoSkip;

  for (const EntryId key : keys) {
    cache::AtomicTaggedPtr* slot = sh.index.Find(key);
    if (slot == nullptr) continue;  // evaporated (should not happen)
    const uint32_t f = by_freq ? sh.freq->Record(key) : 0;
    const TaggedPtr ptr = slot->load();
    if (ptr.is_dram()) {
      CacheEntry* entry = ptr.dram<CacheEntry>();
      if (has_gate && entry->version <= flush_gate && entry->dirty) {
        Status s = FlushEntryLocked(shard, entry);
        // Flush failures are expected while a simulated crash fault is
        // suppressing device writes; only real ones are worth logging.
        if (!s.ok() && !device_->crashed()) {
          OE_LOG_ERROR << "flush failed: " << s.ToString();
        }
      }
      const bool inserted = !sh.lru.Contains(entry);
      entry->version = batch;
      sh.lru.Touch(entry);
      if (by_freq) UpdatePinLocked(sh, entry, f);
      if (inserted) {
        // First maintenance touch of a first-touch entry: it is now
        // LRU-linked and visible to the durability test.
        OE_CHECK(sh.fresh_entries > 0);
        --sh.fresh_entries;
        EvictIfNeededLocked(shard);
      }
    } else {
      // Admission filter (kFreqAware): when loading would force an
      // eviction, admit only if this key's observed frequency beats the
      // would-be victim's — otherwise the cache would trade a hotter entry
      // for a colder one.
      if (by_freq && sh.lru.size() >= sh.capacity) {
        CacheEntry* victim = PickVictimLocked(shard, kNoSkip);
        if (victim != nullptr && f <= sh.freq->Estimate(victim->key)) {
          stats_.admission_rejects.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      CacheEntry* loaded = LoadToDramLocked(shard, key, ptr.pmem_offset(),
                                            batch);
      if (by_freq) UpdatePinLocked(sh, loaded, f);
      EvictIfNeededLocked(shard);
    }
  }
  if (by_freq && ++sh.maint_batches % kFreqDecayBatches == 0) {
    sh.freq->Decay();
  }
  // Cache health gauges (DESIGN.md §9); cheap atomic reads, refreshed once
  // per chunk rather than per key.
  const uint64_t hits = stats_.cache_hits.load(std::memory_order_relaxed);
  const uint64_t misses = stats_.cache_misses.load(std::memory_order_relaxed);
  if (hits + misses > 0) {
    hit_rate_gauge_->Set(
        static_cast<int64_t>(hits * 10000 / (hits + misses)));
  }
  // This chunk may have flushed or aged out every pre-checkpoint state the
  // shard held; tell the cross-shard barrier.
  AckCheckpointsLocked(shard);
}

PipelinedStore::CacheEntry* PipelinedStore::LoadToDramLocked(
    size_t shard, EntryId key, uint64_t record_offset, uint64_t batch) {
  Shard& sh = shards_[shard];
  auto entry = std::make_unique<CacheEntry>();
  entry->key = key;
  entry->version = batch;
  entry->pmem_offset = record_offset;
  entry->data = std::make_unique<float[]>(layout_.values_per_entry());

  std::vector<uint8_t> record(layout_.record_bytes());
  device_->Read(record_offset, record.data(), record.size());
  entry->pmem_version = EntryLayout::RecordVersion(record.data());
  std::memcpy(entry->data.get(), EntryLayout::RecordData(record.data()),
              layout_.data_bytes());
  dram_stats_.AddWrite(layout_.data_bytes());
  entry->dirty = false;

  CacheEntry* raw = entry.get();
  sh.cache_entries[key] = std::move(entry);
  sh.index.Upsert(key, TaggedPtr::FromDram(raw));
  sh.lru.PushFront(raw);
  return raw;
}

Status PipelinedStore::FlushEntryLocked(size_t shard, CacheEntry* entry) {
  obs::ScopedSpan span("store", "flush");
  // Copy-on-write: never overwrite a record a checkpoint may still need.
  std::vector<uint8_t> record(layout_.record_bytes());
  EntryLayout::SetRecordHeader(record.data(), entry->key, entry->version);
  std::memcpy(EntryLayout::RecordData(record.data()), entry->data.get(),
              layout_.data_bytes());
  dram_stats_.AddRead(layout_.data_bytes());
  pmem::PersistSiteGuard site("write-back");
  OE_ASSIGN_OR_RETURN(uint64_t offset,
                      AllocRecord(record.data(), record.size(), shard));

  const uint64_t old_offset = entry->pmem_offset;
  if (old_offset != kNullOffset) {
    const DeferredRecord old_record{entry->key, old_offset,
                                    entry->pmem_version};
    bool free_now = false;
    {
      std::lock_guard<std::mutex> lock(ckpt_mutex_);
      if (snapshot_pins_ == 0 &&
          published_ckpt_.load(std::memory_order_acquire) >= entry->version) {
        // The new record already supersedes the old one for every current
        // and future checkpoint, and no snapshot reader is in flight (any
        // future one pins a checkpoint >= the current published one, whose
        // newest-record-per-key set excludes the old record): recycle
        // immediately.
        free_now = true;
      } else {
        DeferRecordLocked(old_record, entry->version);
      }
    }
    if (free_now) OE_CHECK_OK(FreeRecord(old_offset));
  }
  entry->pmem_offset = offset;
  entry->pmem_version = entry->version;
  entry->dirty = false;
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

size_t PipelinedStore::PinCapacity(const Shard& sh) const {
  if (sh.capacity == 0) return 0;
  const auto cap =
      static_cast<size_t>(kHotPinFraction * static_cast<double>(sh.capacity));
  // Always leave at least one unpinned slot so eviction can make progress.
  return std::min(cap, sh.capacity - 1);
}

void PipelinedStore::UpdatePinLocked(Shard& sh, CacheEntry* entry,
                                     uint32_t freq) {
  if (entry->pinned) {
    if (freq * 2 < config_.hot_pin_min_freq) {
      entry->pinned = false;
      --sh.pinned_entries;
      pinned_gauge_->Add(-1);
    }
    return;
  }
  if (config_.hot_pin_min_freq > 0 && freq >= config_.hot_pin_min_freq &&
      sh.pinned_entries < PinCapacity(sh)) {
    entry->pinned = true;
    ++sh.pinned_entries;
    pinned_gauge_->Add(1);
  }
}

PipelinedStore::CacheEntry* PipelinedStore::PickVictimLocked(
    size_t shard, const std::vector<CacheEntry*>& skip) {
  Shard& sh = shards_[shard];
  const bool by_freq = sh.freq != nullptr;
  CacheEntry* best = nullptr;
  uint32_t best_freq = 0;
  uint32_t examined = 0;
  for (CacheEntry* e = sh.lru.Tail(); e != nullptr && examined < kEvictWindow;
       e = sh.lru.MoreRecent(e), ++examined) {
    if (e->pinned) {
      // Lazy unpin: a pinned entry that drifted into the victim window has
      // not been touched in a while — if its frequency has decayed below
      // the hot threshold it stops being protected right here.
      const uint32_t f = by_freq ? sh.freq->Estimate(e->key) : 0;
      if (f * 2 >= config_.hot_pin_min_freq) continue;
      e->pinned = false;
      --sh.pinned_entries;
      pinned_gauge_->Add(-1);
    }
    if (std::find(skip.begin(), skip.end(), e) != skip.end()) continue;
    if (!by_freq) return e;  // plain LRU: least recent eligible entry
    const uint32_t f = sh.freq->Estimate(e->key);
    if (best == nullptr || f < best_freq) {  // ties keep the least recent
      best = e;
      best_freq = f;
    }
  }
  return best;
}

void PipelinedStore::EvictIfNeededLocked(size_t shard) {
  Shard& sh = shards_[shard];
  if (sh.lru.size() <= sh.capacity) return;
  obs::ScopedSpan span("store", "evict");
  // A victim whose version exceeds the pending checkpoint's batch means
  // this shard holds no pre-checkpoint state anymore — acknowledge once up
  // front so the flushes below defer superseded records against the right
  // checkpoint (ProcessChunkLocked acks again at chunk end, so mid-loop
  // re-acks would only repeat the scan).
  AckCheckpointsLocked(shard);
  std::vector<CacheEntry*> failed;  // flush-failed during this invocation
  while (sh.lru.size() > sh.capacity) {
    CacheEntry* victim = PickVictimLocked(shard, failed);
    if (victim == nullptr) {
      // Every tail-window candidate is pinned or failed its flush this
      // round: keep the excess cached rather than losing data. The next
      // maintenance chunk retries with fresh candidates.
      return;
    }
    if (victim->dirty) {
      Status s = FlushEntryLocked(shard, victim);
      if (!s.ok()) {
        // Bounded retry: pass over this victim and try the next tail-window
        // candidate instead of giving up on eviction outright. Log a stuck
        // victim once, not once per eviction attempt; crash-fault flushes
        // are expected and stay silent.
        if (!device_->crashed() && sh.logged_victim != victim->key) {
          sh.logged_victim = victim->key;
          OE_LOG_ERROR << "eviction flush failed for key " << victim->key
                       << " (kept cached): " << s.ToString();
        }
        failed.push_back(victim);
        continue;
      }
    }
    if (sh.logged_victim == victim->key) sh.logged_victim = kNoVictim;
    sh.index.Upsert(victim->key, TaggedPtr::FromPmem(victim->pmem_offset));
    sh.lru.Remove(victim);
    sh.cache_entries.erase(victim->key);
    stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

Status PipelinedStore::Push(const EntryId* keys, size_t n, const float* grads,
                            uint64_t batch) {
  stats_.push_keys.fetch_add(n, std::memory_order_relaxed);
  const Nanos push_start = WallNowNanos();
  obs::ScopedSpan span("store", "push");
  // A push implies the pull phase of `batch` is over; seal it if the caller
  // skipped FinishPullPhase (single-threaded store usage).
  bool needs_seal = false;
  {
    std::lock_guard<std::mutex> lock(maint_mutex_);
    needs_seal = sealed_batch_ < batch;
  }
  if (needs_seal) FinishPullPhase(batch);
  WaitMaintenance(batch);
  if (n == 0) return Status::OK();

  std::vector<size_t> order;
  std::vector<size_t> begin;
  GroupByShard(keys, n, &order, &begin);

  std::vector<EntryId> shard_keys;
  std::vector<cache::AtomicTaggedPtr*> shard_slots;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (begin[s] == begin[s + 1]) continue;
    Shard& sh = shards_[s];
    const size_t count = begin[s + 1] - begin[s];
    shard_keys.resize(count);
    shard_slots.resize(count);
    for (size_t k = 0; k < count; ++k) {
      shard_keys[k] = keys[order[begin[s] + k]];
    }
    ReadGuard guard(sh.lock);
    sh.index.FindBatch(shard_keys.data(), count, shard_slots.data());
    for (size_t j = begin[s]; j < begin[s + 1]; ++j) {
      const size_t i = order[j];
      const EntryId key = keys[i];
      cache::AtomicTaggedPtr* slot = shard_slots[j - begin[s]];
      if (slot == nullptr) {
        return Status::NotFound(
            "push to unknown key (pull must precede push)");
      }
      SpinLock& stripe = push_locks_[key % kPushShards];
      stripe.lock();
      // Load the slot only after taking the stripe lock: a concurrent
      // pusher of the same key may have COW-remapped the record, and
      // applying this gradient to the superseded offset would silently
      // lose its update.
      const TaggedPtr ptr = slot->load();
      if (ptr.is_dram()) {
        CacheEntry* entry = ptr.dram<CacheEntry>();
        config_.optimizer.Apply(entry->data.get(),
                                entry->data.get() + config_.dim,
                                grads + i * config_.dim, config_.dim, batch);
        entry->version = batch;
        entry->dirty = true;
        dram_stats_.AddWrite(layout_.data_bytes());
        stripe.unlock();
      } else {
        Status status = PushPmemRecord(s, slot, ptr.pmem_offset(),
                                       grads + i * config_.dim, batch);
        stripe.unlock();
        OE_RETURN_IF_ERROR(status);
      }
    }
  }
  push_latency_->Record(static_cast<double>(WallNowNanos() - push_start));
  return Status::OK();
}

Status PipelinedStore::PushPmemRecord(size_t shard,
                                      cache::AtomicTaggedPtr* slot,
                                      uint64_t record_offset,
                                      const float* grad,
                                      uint64_t batch) {
  std::vector<uint8_t> record(layout_.record_bytes());
  device_->Read(record_offset, record.data(), record.size());
  const uint64_t record_version = EntryLayout::RecordVersion(record.data());
  float* data = EntryLayout::RecordData(record.data());
  config_.optimizer.Apply(data, data + config_.dim, grad, config_.dim, batch);
  EntryLayout::SetRecordVersion(record.data(), batch);

  // COW when any published-or-pending checkpoint may need the old record.
  uint64_t newest_cp = published_ckpt_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    if (!pending_ckpts_.empty()) {
      newest_cp = std::max(newest_cp, pending_ckpts_.back());
    }
  }
  if (record_version <= newest_cp) {
    pmem::PersistSiteGuard site("push-cow");
    OE_ASSIGN_OR_RETURN(uint64_t offset,
                        AllocRecord(record.data(), record.size(), shard));
    {
      std::lock_guard<std::mutex> lock(ckpt_mutex_);
      DeferRecordLocked(DeferredRecord{EntryLayout::RecordKey(record.data()),
                                       record_offset, record_version},
                        batch);
    }
    // One atomic 8-byte store: concurrent Pull readers holding the shared
    // lock observe either the old or the new record, never a torn slot.
    slot->store(TaggedPtr::FromPmem(offset));
  } else {
    // In-place update of a record no checkpoint needs (version > newest_cp
    // >= every published checkpoint, so no snapshot reader may touch its
    // data either — MultiGet checks the version first). The version field
    // is the synchronization point: plain-write the payload, then
    // release-store the new version so a concurrent snapshot reader's
    // acquire-load either sees the old version or the new one, both > its
    // pinned checkpoint, and never reads the payload bytes.
    pmem::PersistSiteGuard site("push-inplace");
    device_->Write(record_offset + EntryLayout::kHeaderBytes,
                   record.data() + EntryLayout::kHeaderBytes,
                   record.size() - EntryLayout::kHeaderBytes);
    device_->AtomicStore64(record_offset + 8, batch);
    device_->Persist(record_offset, record.size());
  }
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status PipelinedStore::RequestCheckpoint(uint64_t batch) {
  {
    // A checkpoint captures "state as of the end of `batch`". Once a later
    // batch has started training (its pull phase sealed), that state may
    // already be overwritten in place — accepting the request would publish
    // an inconsistent snapshot, so it is rejected.
    std::lock_guard<std::mutex> maint_lock(maint_mutex_);
    if (batch < sealed_batch_) {
      return Status::FailedPrecondition(
          "checkpoint batch already surpassed by training");
    }
  }
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    if (batch <= published_ckpt_.load(std::memory_order_acquire)) {
      return Status::InvalidArgument("checkpoint batch not increasing");
    }
    if (!pending_ckpts_.empty() && batch <= pending_ckpts_.back()) {
      return Status::InvalidArgument("checkpoint batch not increasing");
    }
    pending_ckpts_.push_back(batch);
  }
  if (!config_.cache_enabled) {
    // Without a cache every update is already durable in PMem; each shard
    // acknowledges immediately and the last one publishes.
    for (size_t s = 0; s < shards_.size(); ++s) {
      WriteGuard guard(shards_[s].lock);
      AckCheckpointsLocked(s);
    }
    return Status::OK();
  }
  // Ack sweep: shards that are already durable for `batch` — empty, or
  // caching only newer state — acknowledge right away, so shards the
  // workload never touches again cannot stall the publish barrier. The
  // sweep moves no data (acks are pure metadata); busy shards are skipped
  // and acknowledge at the end of their next maintenance chunk.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].lock.TryAcquireWrite()) {
      AckCheckpointsLocked(s);
      shards_[s].lock.ReleaseWrite();
    }
  }
  return Status::OK();
}

Status PipelinedStore::DrainCheckpoints() {
  {
    std::unique_lock<std::mutex> lock(maint_mutex_);
    maint_cv_.wait(lock,
                   [&] { return processed_chunks_ == appended_chunks_; });
  }
  AllShardsWriteLock all(shards_);
  uint64_t cp = 0;
  while (PendingHead(&cp)) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      for (auto& [key, entry] : shards_[s].cache_entries) {
        if (entry->version <= cp && entry->dirty) {
          OE_RETURN_IF_ERROR(FlushEntryLocked(s, entry.get()));
        }
      }
    }
    std::vector<uint64_t> to_free;
    {
      std::lock_guard<std::mutex> lock(ckpt_mutex_);
      for (auto& acked : shard_acked_) acked = std::max(acked, cp);
      to_free = PublishReadyLocked();
    }
    pmem::PersistSiteGuard site("ckpt-gc");
    for (uint64_t offset : to_free) OE_CHECK_OK(FreeRecord(offset));
  }
  return Status::OK();
}

uint64_t PipelinedStore::PublishedCheckpoint() const {
  return published_ckpt_.load(std::memory_order_acquire);
}

Status PipelinedStore::RecoverFromCrash() {
  obs::ScopedSpan span("store", "recover");
  // Quiesce maintenance state.
  {
    std::unique_lock<std::mutex> lock(maint_mutex_);
    maint_cv_.wait(lock,
                   [&] { return processed_chunks_ == appended_chunks_; });
  }
  uint64_t cp = 0;
  {
    AllShardsWriteLock all(shards_);
    OE_ASSIGN_OR_RETURN(cp, RecoverLocked());
  }
  {
    // Training progress is now exactly the recovered checkpoint; without
    // this rewind a rollback deeper than one checkpoint interval would
    // spuriously reject the first replayed RequestCheckpoint as "already
    // surpassed".
    std::lock_guard<std::mutex> lock(maint_mutex_);
    sealed_batch_ = cp;
  }
  return Status::OK();
}

Result<uint64_t> PipelinedStore::RecoverLocked() {
  OE_ASSIGN_OR_RETURN(pool_, pmem::PmemPool::Open(device_));
  const uint64_t cp = pool_->RootGet(kRootCheckpointId);
  published_ckpt_.store(cp, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    pending_ckpts_.clear();
    deferred_free_.clear();
    snapshot_index_.clear();
    limbo_.clear();
    std::fill(shard_acked_.begin(), shard_acked_.end(), cp);
  }
  // Routing-root hygiene: the root references at most one committed
  // ownership blob; any other kRouteTag extent is an orphan left by a
  // crash inside SetOwnedSlots (between the blob write and the root store,
  // or between the new root store and the old blob's free).
  {
    const uint64_t route_root = pool_->RootGet(kRootRouting);
    std::vector<uint64_t> orphans;
    pool_->ForEachAllocated(kRouteTag, [&](uint64_t offset, uint64_t size) {
      (void)size;
      if (offset != route_root) orphans.push_back(offset);
    });
    pmem::PersistSiteGuard site("recover-gc");
    for (uint64_t offset : orphans) OE_CHECK_OK(pool_->Free(offset));
  }
  // Committed slot ownership (see SetOwnedSlots): when a routing root
  // exists, the scan below discards every record whose key falls outside
  // it — a half-imported migration range vanishes (the import only commits
  // with the ownership root), and a handed-off range is collected even if
  // the post-migration purge never ran.
  OE_ASSIGN_OR_RETURN(const OwnedSlots route, ReadOwnedSlots());
  // The indexes are rebuilt from scratch: the slab allocator re-attaches to
  // the reopened pool and each shard gets a fresh index. The record scan
  // below is the authoritative state.
  {
    pmem::SlabAllocatorOptions slab_options;
    slab_options.lanes = static_cast<uint32_t>(shards_.size());
    OE_ASSIGN_OR_RETURN(slab_,
                        pmem::SlabAllocator::Attach(pool_.get(), slab_options));
  }
  for (auto& shard : shards_) {
    shard.index = FlatIndex{};
    // Unlink LRU nodes before the entries that embed them are freed.
    shard.lru.Clear();
    shard.cache_entries.clear();
    shard.fresh_entries = 0;
    shard.pinned_entries = 0;
    shard.maint_batches = 0;
    shard.logged_victim = kNoVictim;
    if (shard.freq != nullptr) {
      // Frequency observations describe pre-crash traffic; recovery replays
      // from the checkpoint, so start the sketch cold like the cache.
      shard.freq = std::make_unique<cache::FreqEstimator>(kFreqCounters);
    }
    std::lock_guard<std::mutex> lock(shard.stage_mutex);
    shard.staged.clear();
  }
  pinned_gauge_->Set(0);

  // Recovery per Section V-C: scan every entry record in PMem, discard
  // those newer than the Checkpointed Batch ID, keep the newest survivor
  // per key, and rebuild the DRAM hash indexes.
  std::vector<uint64_t> discard;
  const auto survivors = ClassifyRecordsLocked(cp, route, &discard);
  {
    pmem::PersistSiteGuard site("recover-gc");
    for (uint64_t offset : discard) OE_CHECK_OK(FreeRecord(offset));
  }
  std::vector<std::vector<std::pair<EntryId, uint64_t>>> per_shard(
      shards_.size());
  for (const auto& [key, record] : survivors) {
    per_shard[ShardOf(key)].emplace_back(key, record.offset);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    FlatIndex& index = shards_[s].index;
    index.Reserve(per_shard[s].size());
    for (const auto& [key, offset] : per_shard[s]) {
      index.Upsert(key, TaggedPtr::FromPmem(offset));
      dram_stats_.AddWrite(sizeof(EntryId) + sizeof(TaggedPtr));
    }
  }
  return cp;
}

std::unordered_map<EntryId, PipelinedStore::SnapshotRecord>
PipelinedStore::ClassifyRecordsLocked(uint64_t cp, const OwnedSlots& route,
                                      std::vector<uint64_t>* discard) const {
  std::unordered_map<EntryId, SnapshotRecord> best;
  auto drop = [discard](uint64_t offset) {
    if (discard != nullptr) discard->push_back(offset);
  };
  ForEachEntryRecord([&](uint64_t offset, uint64_t size) {
    if (size != layout_.record_bytes()) {
      drop(offset);
      return;
    }
    const uint8_t* record = pool_->Translate(offset);
    device_->ChargeRead(EntryLayout::kHeaderBytes);
    const EntryId key = EntryLayout::RecordKey(record);
    const uint64_t version = EntryLayout::RecordVersion(record);
    const bool owned = !route.present || route.owned[SlotOfKey(key)] ||
                       route.extras.count(key) != 0;
    if (!owned || version > cp) {
      drop(offset);
      return;
    }
    auto [it, inserted] = best.try_emplace(key, SnapshotRecord{offset, version});
    if (inserted) return;
    if (version > it->second.version) {
      drop(it->second.offset);
      it->second = SnapshotRecord{offset, version};
    } else {
      drop(offset);
    }
  });
  return best;
}

Status PipelinedStore::ExportCheckpoint(ckpt::CheckpointLog* log) {
  if (log == nullptr) return Status::InvalidArgument("null backup log");
  AllShardsWriteLock all(shards_);
  const uint64_t cp = published_ckpt_.load(std::memory_order_acquire);
  if (cp == 0) {
    return Status::FailedPrecondition("no published checkpoint to export");
  }
  // The backup is exactly the record set recovery would restore: per key
  // the committed routing ownership covers, the newest record <= cp.
  OE_ASSIGN_OR_RETURN(const OwnedSlots route, ReadOwnedSlots());
  RecordChunkWriter writer(log, cp, layout_.record_bytes());
  for (const auto& [key, record] :
       ClassifyRecordsLocked(cp, route, /*discard=*/nullptr)) {
    if (!writer.ok()) break;
    device_->Read(record.offset, writer.Next(), layout_.record_bytes());
  }
  return writer.Finish();
}

Status PipelinedStore::ImportCheckpoint(const ckpt::CheckpointLog& log) {
  AllShardsWriteLock all(shards_);
  for (const auto& shard : shards_) {
    if (shard.index.Size() != 0) {
      return Status::FailedPrecondition(
          "import requires a freshly created (empty) store");
    }
  }
  const uint64_t cp = log.LatestBatch();
  if (cp == 0) {
    return Status::FailedPrecondition("backup holds no checkpoint");
  }

  std::vector<uint8_t> record(layout_.record_bytes());
  Status status = Status::OK();
  Status replay = log.Replay(
      cp, [&](EntryId key, uint64_t version, const float* data) {
        if (!status.ok()) return;
        EntryLayout::SetRecordHeader(record.data(), key, version);
        std::memcpy(EntryLayout::RecordData(record.data()), data,
                    layout_.data_bytes());
        const size_t s = ShardOf(key);
        pmem::PersistSiteGuard site("import-entry");
        auto r = AllocRecord(record.data(), record.size(), s);
        if (!r.ok()) {
          status = r.status();
          return;
        }
        const uint64_t offset = std::move(r).ValueOrDie();
        FlatIndex& index = shards_[s].index;
        cache::AtomicTaggedPtr* slot = index.Find(key);
        if (slot != nullptr) {
          // Later chunks override earlier ones.
          OE_CHECK_OK(FreeRecord(slot->load().pmem_offset()));
          slot->store(TaggedPtr::FromPmem(offset));
        } else {
          index.Upsert(key, TaggedPtr::FromPmem(offset));
        }
      });
  if (status.ok()) status = replay;
  if (status.ok()) {
    pmem::PersistSiteGuard site("import-publish");
    pool_->RootSet(kRootCheckpointId, cp);
    published_ckpt_.store(cp, std::memory_order_release);
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    std::fill(shard_acked_.begin(), shard_acked_.end(), cp);
  }
  return status;
}

Status PipelinedStore::SetOwnedSlots(uint64_t epoch,
                                     const std::vector<bool>& owned,
                                     const std::vector<EntryId>& extra_keys) {
  if (owned.size() != kNumRoutingSlots) {
    return Status::InvalidArgument(
        "owned bitmap must cover every routing slot");
  }
  // Blob: [epoch u64][num_slots u64][bitmap][extra_count u64][extras...].
  constexpr size_t kBitmapBytes = kNumRoutingSlots / 8;
  std::vector<uint8_t> blob(8 + 8 + kBitmapBytes + 8 + extra_keys.size() * 8);
  uint8_t* p = blob.data();
  auto put64 = [&p](uint64_t v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  };
  put64(epoch);
  put64(kNumRoutingSlots);
  std::memset(p, 0, kBitmapBytes);
  for (uint32_t s = 0; s < kNumRoutingSlots; ++s) {
    if (owned[s]) p[s / 8] |= static_cast<uint8_t>(1u << (s % 8));
  }
  p += kBitmapBytes;
  put64(extra_keys.size());
  for (const EntryId key : extra_keys) put64(key);

  const uint64_t old_blob = pool_->RootGet(kRootRouting);
  uint64_t offset = 0;
  {
    pmem::PersistSiteGuard site("route-blob");
    OE_ASSIGN_OR_RETURN(
        offset, pool_->AllocWrite(blob.data(), blob.size(), kRouteTag));
  }
  {
    // Commit point: one failure-atomic root store switches recovery to the
    // new ownership. A crash before it leaves the previous ownership in
    // force (the new blob becomes an orphan extent recovery sweeps).
    pmem::PersistSiteGuard site("route-root");
    pool_->RootSet(kRootRouting, offset);
  }
  // A crash before this free leaves the old blob as an orphan kRouteTag
  // extent; RecoverFromCrash frees extents the root does not reference.
  if (old_blob != 0) OE_CHECK_OK(pool_->Free(old_blob));
  return Status::OK();
}

Result<PipelinedStore::OwnedSlots> PipelinedStore::ReadOwnedSlots() const {
  OwnedSlots result;
  const uint64_t offset = pool_->RootGet(kRootRouting);
  if (offset == 0) return result;
  const uint8_t* p = pool_->Translate(offset);
  auto get64 = [&p] {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    return v;
  };
  result.epoch = get64();
  if (get64() != kNumRoutingSlots) {
    return Status::Corruption("routing root slot-count mismatch");
  }
  constexpr size_t kBitmapBytes = kNumRoutingSlots / 8;
  result.owned.assign(kNumRoutingSlots, false);
  for (uint32_t s = 0; s < kNumRoutingSlots; ++s) {
    if ((p[s / 8] >> (s % 8)) & 1u) result.owned[s] = true;
  }
  p += kBitmapBytes;
  const uint64_t extras = get64();
  for (uint64_t i = 0; i < extras; ++i) result.extras.insert(get64());
  device_->ChargeRead(8 + 8 + kBitmapBytes + 8 + extras * 8);
  result.present = true;
  return result;
}

Status PipelinedStore::ExportRange(const std::vector<bool>& slots,
                                   const std::unordered_set<EntryId>& exclude,
                                   ckpt::CheckpointLog* log) {
  if (log == nullptr) return Status::InvalidArgument("null migration log");
  if (slots.size() != kNumRoutingSlots) {
    return Status::InvalidArgument(
        "slot bitmap must cover every routing slot");
  }
  AllShardsWriteLock all(shards_);
  const uint64_t cp = published_ckpt_.load(std::memory_order_acquire);

  // Collect the migrating keys with their flushed-record coordinates. The
  // caller sealed the range, so nothing mutates these between the export
  // and the routing publish that retires this node as owner.
  struct Item {
    EntryId key;
    const CacheEntry* entry;  // non-null when DRAM-cached
    uint64_t flushed_offset;
    uint64_t flushed_version;
  };
  std::vector<Item> items;
  for (auto& shard : shards_) {
    shard.index.ForEach([&](EntryId key, TaggedPtr ptr) {
      if (!slots[SlotOfKey(key)] || exclude.count(key) != 0) return;
      Item item{key, nullptr, kNullOffset, 0};
      if (ptr.is_dram()) {
        item.entry = ptr.dram<CacheEntry>();
        item.flushed_offset = item.entry->pmem_offset;
        item.flushed_version = item.entry->pmem_version;
      } else {
        item.flushed_offset = ptr.pmem_offset();
        item.flushed_version =
            EntryLayout::RecordVersion(pool_->Translate(item.flushed_offset));
        device_->ChargeRead(EntryLayout::kHeaderBytes);
      }
      items.push_back(item);
    });
  }
  if (items.empty()) return Status::OK();
  if (cp == 0) {
    return Status::FailedPrecondition(
        "no published checkpoint to migrate from");
  }

  // Snapshot record per key: the newest record at or below cp — what the
  // target must serve to MultiGet. Usually the flushed record itself; when
  // that is newer than cp the superseded one is in snapshot_index_.
  std::vector<uint64_t> snap_offsets(items.size());
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    for (size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      snap_offsets[i] =
          item.flushed_offset != kNullOffset && item.flushed_version <= cp
              ? item.flushed_offset
              : SnapshotRecordAtLocked(item.key, cp);
    }
  }

  const size_t record_bytes = layout_.record_bytes();
  RecordChunkWriter writer(log, cp, record_bytes);
  for (size_t i = 0; i < items.size() && writer.ok(); ++i) {
    const Item& item = items[i];
    if (snap_offsets[i] != kNullOffset) {
      device_->Read(snap_offsets[i], writer.Next(), record_bytes);
    }
    // Live head, when newer than the snapshot record, so the target resumes
    // training from exactly this node's state: dirty DRAM serialized as a
    // record (a dirty entry always carries a version > cp — publication of
    // cp required every <= cp state durable), else a newer flushed record.
    if (item.entry != nullptr && item.entry->dirty) {
      uint8_t* record = writer.Next();
      EntryLayout::SetRecordHeader(record, item.key, item.entry->version);
      std::memcpy(EntryLayout::RecordData(record), item.entry->data.get(),
                  layout_.data_bytes());
      dram_stats_.AddRead(layout_.data_bytes());
    } else if (item.flushed_offset != kNullOffset &&
               item.flushed_offset != snap_offsets[i]) {
      device_->Read(item.flushed_offset, writer.Next(), record_bytes);
    }
  }
  return writer.Finish();
}

Status PipelinedStore::ImportRange(const ckpt::CheckpointLog& log,
                                   std::vector<EntryId>* imported) {
  if (imported == nullptr) {
    return Status::InvalidArgument("null imported-key list");
  }
  AllShardsWriteLock all(shards_);
  const uint64_t image_cp = log.LatestBatch();

  // Land every image record in PMem first (site "migrate-entry" per
  // record), grouped per key — a key arrives as its <= cp snapshot record
  // plus, when the source had trained past the checkpoint, a newer head.
  struct Incoming {
    uint64_t offset;
    uint64_t version;
  };
  std::unordered_map<EntryId, std::vector<Incoming>> incoming;
  std::vector<uint8_t> record(layout_.record_bytes());
  Status status = Status::OK();
  Status replay = log.Replay(
      image_cp, [&](EntryId key, uint64_t version, const float* data) {
        if (!status.ok()) return;
        const size_t s = ShardOf(key);
        if (incoming.find(key) == incoming.end() &&
            shards_[s].index.Find(key) != nullptr) {
          // The key already lives here (a hot-replica copy, or an image
          // re-delivered after a partial import): the local copy wins.
          return;
        }
        EntryLayout::SetRecordHeader(record.data(), key, version);
        std::memcpy(EntryLayout::RecordData(record.data()), data,
                    layout_.data_bytes());
        pmem::PersistSiteGuard site("migrate-entry");
        auto r = AllocRecord(record.data(), record.size(), s);
        if (!r.ok()) {
          status = r.status();
          return;
        }
        incoming[key].push_back(
            Incoming{std::move(r).ValueOrDie(), version});
      });
  if (status.ok()) status = replay;

  if (status.ok()) {
    for (auto& [key, records] : incoming) {
      // The newest record becomes the live head; an older one (the <= cp
      // snapshot when the head is newer) is registered for snapshot readers
      // and queued for GC once a checkpoint at the head's version publishes.
      size_t newest = 0;
      for (size_t i = 1; i < records.size(); ++i) {
        if (records[i].version > records[newest].version) newest = i;
      }
      shards_[ShardOf(key)].index.Upsert(
          key, TaggedPtr::FromPmem(records[newest].offset));
      {
        std::lock_guard<std::mutex> lock(ckpt_mutex_);
        for (size_t i = 0; i < records.size(); ++i) {
          if (i == newest) continue;
          DeferRecordLocked(
              DeferredRecord{key, records[i].offset, records[i].version},
              records[newest].version);
        }
      }
      imported->push_back(key);
    }
  } else {
    // The import failed before any record reached the index: free them all.
    pmem::PersistSiteGuard site("migrate-gc");
    for (const auto& [key, records] : incoming) {
      for (const Incoming& r : records) {
        Status freed = FreeRecord(r.offset);
        // A record allocated after a simulated crash fault fired never got
        // its bitmap bit published (device writes are suppressed); recovery
        // rebuilds the allocator state, so the failed free is moot.
        if (!freed.ok() && !device_->crashed()) OE_CHECK_OK(freed);
      }
    }
  }
  if (status.ok() &&
      image_cp > published_ckpt_.load(std::memory_order_acquire)) {
    // A fresh scale-out target must agree with the cluster's serving
    // version immediately, or cross-node MultiGet version agreement breaks
    // until the next cluster-wide checkpoint. One failure-atomic root
    // store; note the imported records only *survive* recovery once the
    // routing root also commits (see SetOwnedSlots).
    pmem::PersistSiteGuard site("migrate-publish");
    pool_->RootSet(kRootCheckpointId, image_cp);
    published_ckpt_.store(image_cp, std::memory_order_release);
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    for (uint64_t& acked : shard_acked_) acked = std::max(acked, image_cp);
  }
  return status;
}

void PipelinedStore::DropKeysLocked(
    const std::unordered_set<EntryId>& victims,
    std::vector<uint64_t>* to_free) {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  const bool pinned = snapshot_pins_ > 0;
  const uint64_t published = published_ckpt_.load(std::memory_order_acquire);
  for (const EntryId key : victims) {
    Shard& sh = shards_[ShardOf(key)];
    cache::AtomicTaggedPtr* slot = sh.index.Find(key);
    if (slot == nullptr) continue;
    const TaggedPtr ptr = slot->load();
    uint64_t record_offset = kNullOffset;
    uint64_t record_version = 0;
    if (ptr.is_dram()) {
      CacheEntry* entry = ptr.dram<CacheEntry>();
      record_offset = entry->pmem_offset;
      record_version = entry->pmem_version;
      if (sh.lru.Contains(entry)) {
        sh.lru.Remove(entry);
      } else {
        // First-touch entry no maintenance chunk ever linked.
        OE_CHECK(sh.fresh_entries > 0);
        --sh.fresh_entries;
      }
      if (entry->pinned) {
        --sh.pinned_entries;
        pinned_gauge_->Add(-1);
      }
      // Dirty DRAM state is dropped outright: the key's live head was
      // either exported to the new owner (purge) or never client-visible
      // here (abort).
      sh.cache_entries.erase(key);
    } else {
      record_offset = ptr.pmem_offset();
      record_version =
          EntryLayout::RecordVersion(pool_->Translate(record_offset));
      device_->ChargeRead(EntryLayout::kHeaderBytes);
    }
    OE_CHECK(sh.index.Erase(key));
    if (record_offset == kNullOffset) continue;
    if (record_version <= published && pinned) {
      // Still the newest <=checkpoint record and a snapshot reader is in
      // flight: it may yet resolve this key through snapshot_index_, so
      // park the record for limbo GC (drained by the last ReleaseSnapshot).
      DeferRecordLocked(DeferredRecord{key, record_offset, record_version},
                        record_version);
    } else {
      // Either newer than every published checkpoint (no snapshot reader
      // can need it) or no reader is pinned. Recycling immediately instead
      // of deferring matters in the unpinned case: limbo_ only drains when
      // a pin releases, which may never happen again on a drained node.
      to_free->push_back(record_offset);
    }
  }
  // Detach the victims' superseded records from the GC queue: parked for
  // the current pinned readers, or freed (and pruned from the snapshot
  // side-index) right away. Without this, the publication that would have
  // freed them later would double-free what we free here.
  for (auto it = deferred_free_.begin(); it != deferred_free_.end();) {
    auto& records = it->second;
    for (size_t i = 0; i < records.size();) {
      if (victims.count(records[i].key) != 0) {
        if (pinned) {
          limbo_.push_back(records[i]);
        } else {
          PruneSnapshotIndexLocked(records[i]);
          to_free->push_back(records[i].offset);
        }
        records[i] = records.back();
        records.pop_back();
      } else {
        ++i;
      }
    }
    if (records.empty()) {
      it = deferred_free_.erase(it);
    } else {
      ++it;
    }
  }
}

Status PipelinedStore::RemoveKeys(const std::vector<EntryId>& keys) {
  AllShardsWriteLock all(shards_);
  const std::unordered_set<EntryId> victims(keys.begin(), keys.end());
  std::vector<uint64_t> to_free;
  DropKeysLocked(victims, &to_free);
  {
    pmem::PersistSiteGuard site("migrate-gc");
    for (uint64_t offset : to_free) OE_CHECK_OK(FreeRecord(offset));
  }
  return Status::OK();
}

Status PipelinedStore::PurgeSlots(const std::vector<bool>& slots,
                                  const std::unordered_set<EntryId>& keep) {
  if (slots.size() != kNumRoutingSlots) {
    return Status::InvalidArgument(
        "slot bitmap must cover every routing slot");
  }
  AllShardsWriteLock all(shards_);
  std::unordered_set<EntryId> victims;
  for (auto& shard : shards_) {
    shard.index.ForEach([&](EntryId key, TaggedPtr ptr) {
      (void)ptr;
      if (slots[SlotOfKey(key)] && keep.count(key) == 0) victims.insert(key);
    });
  }
  std::vector<uint64_t> to_free;
  DropKeysLocked(victims, &to_free);
  {
    pmem::PersistSiteGuard site("migrate-gc");
    for (uint64_t offset : to_free) OE_CHECK_OK(FreeRecord(offset));
  }
  return Status::OK();
}

size_t PipelinedStore::EntryCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReadGuard guard(shard.lock);
    total += shard.index.Size();
  }
  return total;
}

size_t PipelinedStore::CachedEntries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReadGuard guard(shard.lock);
    total += shard.cache_entries.size();
  }
  return total;
}

size_t PipelinedStore::PinnedEntries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    ReadGuard guard(shard.lock);
    total += shard.pinned_entries;
  }
  return total;
}

bool PipelinedStore::IsDramCached(EntryId key) const {
  const Shard& sh = shards_[ShardOf(key)];
  ReadGuard guard(sh.lock);
  const cache::AtomicTaggedPtr* slot = sh.index.Find(key);
  return slot != nullptr && slot->load().is_dram();
}

Status PipelinedStore::MultiGet(const EntryId* keys, size_t n, float* out,
                                uint8_t* found, uint64_t* snapshot_version) {
  const Nanos start = WallNowNanos();
  obs::ScopedSpan span("store", "multi_get");
  // Pin the published checkpoint: from here until ReleaseSnapshot no PMem
  // record is freed (publish-time GC and flush-time frees both park in
  // limbo_ while snapshot_pins_ > 0), so every record offset resolved below
  // stays readable without holding the push critical section.
  const uint64_t cp = AcquireSnapshot();
  if (snapshot_version != nullptr) *snapshot_version = cp;
  const size_t weight_bytes = config_.dim * sizeof(float);

  std::vector<size_t> order;
  std::vector<size_t> begin;
  GroupByShard(keys, n, &order, &begin);
  std::vector<EntryId> shard_keys;
  std::vector<cache::AtomicTaggedPtr*> shard_slots;
  // Positions whose slot-reachable record is newer than the pinned
  // checkpoint; the superseded record they need is in snapshot_index_.
  std::vector<size_t> fallback;
  std::vector<uint64_t> fallback_offsets;

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (begin[s] == begin[s + 1]) continue;
    Shard& sh = shards_[s];
    const size_t count = begin[s + 1] - begin[s];
    shard_keys.resize(count);
    shard_slots.resize(count);
    for (size_t k = 0; k < count; ++k) {
      shard_keys[k] = keys[order[begin[s] + k]];
    }
    fallback.clear();
    ReadGuard guard(sh.lock);
    sh.index.FindBatch(shard_keys.data(), count, shard_slots.data());
    for (size_t j = begin[s]; j < begin[s + 1]; ++j) {
      const size_t i = order[j];
      cache::AtomicTaggedPtr* slot = shard_slots[j - begin[s]];
      if (slot == nullptr) {
        // No live slot. The key may still be readable at this snapshot: a
        // purge after slot migration erases the index entry but parks the
        // <= cp record for pinned readers, findable only through
        // snapshot_index_. The fallback zero-fills when the key truly
        // never existed at cp.
        fallback.push_back(i);
        continue;
      }
      const TaggedPtr ptr = slot->load();
      uint64_t record_offset = kNullOffset;
      uint64_t record_version = ~0ULL;
      if (ptr.is_dram()) {
        // Only the entry's flushed-record fields are touched: they mutate
        // under the shard write lock, so the read lock makes the pair
        // consistent. entry->data/version race with pushers (read lock +
        // key stripe) and are never needed here — every cached entry's
        // live version is newer than any published checkpoint.
        const CacheEntry* entry = ptr.dram<CacheEntry>();
        record_offset = entry->pmem_offset;
        record_version = entry->pmem_version;
      } else {
        record_offset = ptr.pmem_offset();
        // Acquire-load pairs with the release version store of an in-place
        // push; data bytes are only dereferenced when the version shows
        // the record is frozen (<= a published checkpoint).
        record_version = device_->AtomicLoad64(record_offset + 8);
      }
      if (record_offset != kNullOffset && record_version <= cp) {
        device_->Read(record_offset + EntryLayout::kHeaderBytes,
                      out + i * config_.dim, weight_bytes);
        found[i] = 1;
      } else {
        fallback.push_back(i);
      }
    }
    if (!fallback.empty()) {
      // Newest superseded record with version <= cp; it exists whenever the
      // key had durable state at cp (immediate frees require the
      // superseding version to be published, which would make *it* the
      // newest <= cp record — contradiction). Offsets resolve under
      // ckpt_mutex_; the copies happen after dropping it, still under the
      // shard read lock and the snapshot pin.
      fallback_offsets.resize(fallback.size());
      {
        std::lock_guard<std::mutex> lock(ckpt_mutex_);
        for (size_t f = 0; f < fallback.size(); ++f) {
          fallback_offsets[f] = SnapshotRecordAtLocked(keys[fallback[f]], cp);
        }
      }
      for (size_t f = 0; f < fallback.size(); ++f) {
        const size_t i = fallback[f];
        if (fallback_offsets[f] == kNullOffset) {
          std::fill(out + i * config_.dim, out + (i + 1) * config_.dim, 0.0f);
          found[i] = 0;
        } else {
          device_->Read(fallback_offsets[f] + EntryLayout::kHeaderBytes,
                        out + i * config_.dim, weight_bytes);
          found[i] = 1;
        }
      }
    }
  }
  ReleaseSnapshot();
  multiget_latency_->Record(static_cast<double>(WallNowNanos() - start));
  return Status::OK();
}

Result<std::vector<float>> PipelinedStore::Peek(EntryId key) const {
  const Shard& sh = shards_[ShardOf(key)];
  ReadGuard guard(sh.lock);
  const cache::AtomicTaggedPtr* slot = sh.index.Find(key);
  if (slot == nullptr) return Status::NotFound("no such key");
  std::vector<float> out(config_.dim);
  const TaggedPtr ptr = slot->load();
  if (ptr.is_dram()) {
    const CacheEntry* entry = ptr.dram<CacheEntry>();
    std::copy_n(entry->data.get(), config_.dim, out.begin());
  } else {
    const uint8_t* record = pool_->Translate(ptr.pmem_offset());
    std::copy_n(EntryLayout::RecordData(record), config_.dim, out.begin());
  }
  return out;
}

}  // namespace oe::storage
