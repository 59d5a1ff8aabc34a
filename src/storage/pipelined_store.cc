#include "storage/pipelined_store.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "common/logging.h"

namespace oe::storage {

using cache::TaggedPtr;

namespace {

// Victim search window: eviction passes over flush-failed entries among
// this many LRU-tail candidates (DESIGN.md §5c).
constexpr uint32_t kEvictWindow = 8;

}  // namespace

class PipelinedStore::CallCounters {
 public:
  explicit CallCounters(PipelinedStore* store) : store_(store) {}
  ~CallCounters() {
    if (hits_ != 0) {
      store_->stats_.cache_hits.fetch_add(hits_, std::memory_order_relaxed);
    }
    if (misses_ != 0) {
      store_->stats_.cache_misses.fetch_add(misses_,
                                            std::memory_order_relaxed);
    }
    store_->dram_stats_.AddReadBatch(reads_, read_bytes_);
    store_->dram_stats_.AddWriteBatch(writes_, write_bytes_);
  }
  CallCounters(const CallCounters&) = delete;
  CallCounters& operator=(const CallCounters&) = delete;

  /// One CopyWeights: a hit read `bytes` from a DRAM cache entry.
  void Copied(bool hit, uint64_t bytes) {
    if (hit) {
      ++hits_;
      DramRead(bytes);
    } else {
      ++misses_;
    }
  }
  void DramRead(uint64_t bytes) {
    ++reads_;
    read_bytes_ += bytes;
  }
  void DramWrite(uint64_t bytes) {
    ++writes_;
    write_bytes_ += bytes;
  }

 private:
  PipelinedStore* store_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t reads_ = 0;
  uint64_t read_bytes_ = 0;
  uint64_t writes_ = 0;
  uint64_t write_bytes_ = 0;
};

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
  shard_maint_latency_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    obs::Labels shard_labels = labels;
    shard_labels["shard"] = std::to_string(s);
    shard_maint_latency_.push_back(registry.GetDistribution(
        "store.maintenance_chunk_ns", shard_labels));
  }
}

Result<std::unique_ptr<PipelinedStore>> PipelinedStore::Make(
    const StoreConfig& config, pmem::PmemDevice* device) {
  if (config.dim == 0) return Status::InvalidArgument("dim must be > 0");
  if (device == nullptr) return Status::InvalidArgument("null device");
  if (config.maintainer_threads <= 0) {
    return Status::InvalidArgument("need at least one maintainer thread");
  }
  return std::unique_ptr<PipelinedStore>(new PipelinedStore(config, device));
}

Result<std::unique_ptr<PipelinedStore>> PipelinedStore::Create(
    const StoreConfig& config, pmem::PmemDevice* device) {
  OE_ASSIGN_OR_RETURN(auto store, Make(config, device));
  OE_ASSIGN_OR_RETURN(store->pool_, pmem::PmemPool::Create(device));
  OE_RETURN_IF_ERROR(store->Init());
  return store;
}

Status PipelinedStore::Init() {
  cache_capacity_ =
      config_.cache_enabled
          ? std::max<size_t>(1, config_.cache_bytes / layout_.record_bytes())
          : 0;
  // Split the budget so per-shard capacities sum to exactly
  // cache_capacity_. A zero-capacity shard is legal: entries pass through
  // its cache and are evicted by the first maintenance touch.
  const size_t shards = shards_.size();
  for (size_t s = 0; s < shards; ++s) {
    shards_[s].capacity =
        cache_capacity_ / shards + (s < cache_capacity_ % shards ? 1 : 0);
  }
  OE_RETURN_IF_ERROR(ResetLocked().status());
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

void PipelinedStore::MaintainerLoop() {
  if (obs::TraceRecorder::Default().enabled()) {
    obs::TraceRecorder::Default().SetThreadName("maintainer");
  }
  size_t shard = 0;
  uint64_t batch = 0;
  std::vector<EntryId> keys;
  while (access_queue_.Pop(&shard, &batch, &keys)) {
    const uint64_t owed = RunChunk(shard, batch, keys);
    access_queue_.Done(shard);
    WriteBackWork pass;
    {
      std::lock_guard<std::mutex> lock(maint_mutex_);
      ++processed_chunks_;
      writeback_.owed[shard] = std::max(writeback_.owed[shard], owed);
      // Claim the write-back work only once no chunk is outstanding: Push
      // waits for exactly that moment, so the pass runs beside the compute
      // window instead of delaying the push.
      if (processed_chunks_ == appended_chunks_ && !writeback_.empty()) {
        pass = TakeWriteBackLocked();
        ++writebacks_running_;
      }
    }
    maint_cv_.notify_all();
    if (pass.empty()) continue;
    Status status = WriteBack(&pass, /*background=*/true);
    // Flush failures are expected while a simulated crash fault is
    // suppressing device writes; the shard then stays unacknowledged.
    if (!status.ok() && !device_->crashed()) {
      OE_LOG_ERROR << "checkpoint write-back failed: " << status.ToString();
    }
    {
      // What the pass left goes back; the next completion that leaves no
      // chunk outstanding claims it again.
      std::lock_guard<std::mutex> lock(maint_mutex_);
      ReturnWriteBackLocked(&pass);
      --writebacks_running_;
    }
    maint_cv_.notify_all();
  }
}

uint64_t PipelinedStore::RunChunk(size_t shard, uint64_t batch,
                                  std::vector<EntryId>& keys) {
  const Nanos chunk_start = WallNowNanos();
  {
    obs::ScopedSpan span("store", "maintenance_chunk");
    std::unique_lock guard(shards_[shard].lock);
    ProcessChunkLocked(shard, batch, keys);
  }
  shard_maint_latency_[shard]->Record(
      static_cast<double>(WallNowNanos() - chunk_start));
  // Sealing `batch` followed every push of an older batch, so this shard
  // may write back any checkpoint pending from before it.
  return NewestPending(batch);
}

template <typename Fn>
Status PipelinedStore::ForEachShardRead(const EntryId* keys, size_t n,
                                        Fn&& fn) {
  // Counting sort by shard (stable): order[begin[s]..begin[s + 1]) holds
  // shard s's key positions.
  const size_t shards = shards_.size();
  std::vector<size_t> begin(shards + 1, 0);
  std::vector<size_t> order(n);
  if (shards == 1) {
    for (size_t i = 0; i < n; ++i) order[i] = i;
    begin[1] = n;
  } else {
    std::vector<size_t> shard_of(n);
    for (size_t i = 0; i < n; ++i) {
      shard_of[i] = ShardOf(keys[i]);
      ++begin[shard_of[i] + 1];
    }
    for (size_t s = 0; s < shards; ++s) begin[s + 1] += begin[s];
    std::vector<size_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t i = 0; i < n; ++i) order[cursor[shard_of[i]]++] = i;
  }
  // Per-shard scratch for the batched index probe (gathered outside the
  // shard lock; FindBatch pipelines the lookups under it).
  std::vector<EntryId> shard_keys;
  std::vector<cache::AtomicTaggedPtr*> shard_slots;
  for (size_t s = 0; s < shards; ++s) {
    const size_t count = begin[s + 1] - begin[s];
    if (count == 0) continue;
    const size_t* pos = order.data() + begin[s];
    shard_keys.resize(count);
    shard_slots.resize(count);
    for (size_t k = 0; k < count; ++k) shard_keys[k] = keys[pos[k]];
    std::shared_lock guard(shards_[s].lock);
    shards_[s].index.FindBatch(shard_keys.data(), count, shard_slots.data());
    OE_RETURN_IF_ERROR(fn(s, pos, shard_slots.data(), count));
  }
  return Status::OK();
}

bool PipelinedStore::CopyWeights(const cache::AtomicTaggedPtr& slot,
                                 float* out) {
  // The batch protocol (DESIGN.md §8a "Phases") never runs a pull of a key
  // beside a push of it, so the entry data and the slot are stable without
  // the key's push stripe. The shard read lock excludes eviction and every
  // other structural change.
  const size_t weight_bytes = config_.dim * sizeof(float);
  const TaggedPtr ptr = slot.load();
  const bool hit = ptr.is_dram();
  if (hit) {
    std::memcpy(out, ptr.dram<CacheEntry>()->data(), weight_bytes);
  } else {
    // Copy the weights straight from the PMem record (Algorithm 1: "copied
    // from either DRAM or PMem to the network buffer").
    device_->Read(ptr.pmem_offset() + EntryLayout::kHeaderBytes, out,
                  weight_bytes);
  }
  return hit;
}

void PipelinedStore::CacheEntryDeleter::operator()(CacheEntry* entry) const {
  entry->~CacheEntry();
  ::operator delete(entry);
}

PipelinedStore::CacheEntry* PipelinedStore::CacheEntryLocked(
    size_t shard, EntryId key, uint64_t batch, uint64_t record_offset) {
  Shard& sh = shards_[shard];
  static_assert(alignof(CacheEntry) >= alignof(float));
  CacheEntryPtr entry(new (::operator new(sizeof(CacheEntry) +
                                          layout_.data_bytes())) CacheEntry);
  entry->key = key;
  entry->version = batch;
  if (record_offset == kNullOffset) {
    // First touch: dirty (never flushed) and not LRU-linked until its
    // batch's maintenance chunk.
    std::fill_n(entry->data(), layout_.values_per_entry(), 0.0f);
    config_.initializer.Fill(key, entry->data(), config_.dim);
    MarkDirty(sh, entry.get());
    ++sh.fresh_entries;
    stats_.new_entries.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::vector<uint8_t> record(layout_.record_bytes());
    device_->Read(record_offset, record.data(), record.size());
    entry->pmem_offset = record_offset;
    entry->pmem_version = EntryLayout::RecordVersion(record.data());
    std::memcpy(entry->data(), EntryLayout::RecordData(record.data()),
                layout_.data_bytes());
  }
  CacheEntry* raw = entry.get();
  sh.index.Upsert(key, TaggedPtr::FromDram(raw));
  sh.cache_entries[key] = std::move(entry);
  if (record_offset != kNullOffset) sh.lru.PushFront(raw);
  return raw;
}

Status PipelinedStore::Pull(const EntryId* keys, size_t n, uint64_t batch,
                            float* out) {
  stats_.pull_keys.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) return Status::OK();
  const Nanos pull_start = WallNowNanos();
  obs::ScopedSpan span("store", "pull");
  const size_t dim = config_.dim;
  const size_t weight_bytes = dim * sizeof(float);
  CallCounters counters(this);
  // Positions of keys absent from their shard's index, grouped by shard
  // (the probe visits shards in order).
  std::vector<size_t> missing;
  std::vector<EntryId> present;
  OE_RETURN_IF_ERROR(ForEachShardRead(
      keys, n,
      [&](size_t s, const size_t* pos, cache::AtomicTaggedPtr* const* slots,
          size_t count) {
        present.clear();
        for (size_t k = 0; k < count; ++k) {
          const size_t i = pos[k];
          if (slots[k] == nullptr) {
            missing.push_back(i);
            continue;
          }
          counters.Copied(CopyWeights(*slots[k], out + i * dim),
                          weight_bytes);
          present.push_back(keys[i]);
        }
        // Stage the accessed keys before the shard lock is released: a
        // concurrent FinishPullPhase swapping the stage buffer between the
        // accesses and the staging would attribute them to the wrong
        // maintenance chunk. Keys not yet in the index are staged by the
        // creation section below, in the critical section where their
        // access actually happens.
        if (config_.cache_enabled && !present.empty()) {
          Shard& sh = shards_[s];
          std::lock_guard<std::mutex> lock(sh.stage_mutex);
          sh.staged.insert(sh.staged.end(), present.begin(), present.end());
        }
        return Status::OK();
      }));

  for (size_t m = 0; m < missing.size();) {
    const size_t s = ShardOf(keys[missing[m]]);
    size_t m_end = m + 1;
    while (m_end < missing.size() && ShardOf(keys[missing[m_end]]) == s) {
      ++m_end;
    }
    Shard& sh = shards_[s];
    std::unique_lock guard(sh.lock);
    for (size_t j = m; j < m_end; ++j) {
      const size_t i = missing[j];
      const EntryId key = keys[i];
      const cache::AtomicTaggedPtr* slot = sh.index.Find(key);
      if (slot != nullptr) {
        // Raced with another puller (or a duplicate earlier in this batch)
        // that created it; serve and count it like the read-locked pass.
        counters.Copied(CopyWeights(*slot, out + i * dim), weight_bytes);
      } else if (config_.cache_enabled) {
        CacheEntry* entry = CacheEntryLocked(s, key, batch, kNullOffset);
        counters.DramWrite(layout_.data_bytes());
        std::memcpy(out + i * dim, entry->data(), weight_bytes);
        counters.DramRead(weight_bytes);
      } else {
        // Cache-disabled mode: create the record directly in PMem.
        std::vector<float> data(layout_.values_per_entry(), 0.0f);
        config_.initializer.Fill(key, data.data(), dim);
        OE_ASSIGN_OR_RETURN(
            uint64_t offset,
            LandRecord(key, batch, data.data(), "direct-create"));
        sh.index.Upsert(key, TaggedPtr::FromPmem(offset));
        stats_.new_entries.fetch_add(1, std::memory_order_relaxed);
        std::memcpy(out + i * dim, data.data(), dim * sizeof(float));
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

void PipelinedStore::FinishPullPhase(uint64_t batch) {
  obs::ScopedSpan span("store", "seal");
  // Seal: swap out every shard's staging buffer. Pulls of this batch have
  // completed (training protocol), so each buffer holds exactly the batch's
  // accesses for that shard (none without a cache).
  std::vector<std::vector<EntryId>> chunks(shards_.size());
  size_t nonempty = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].stage_mutex);
    chunks[s].swap(shards_[s].staged);
    if (!chunks[s].empty()) ++nonempty;
  }
  if (config_.cache_enabled && config_.pipeline_enabled) {
    {
      std::lock_guard<std::mutex> lock(maint_mutex_);
      appended_chunks_ += nonempty;
      sealed_batch_ = std::max(sealed_batch_, batch);
    }
    access_queue_.Append(batch, std::move(chunks));
    if (nonempty == 0) maint_cv_.notify_all();
    return;
  }
  // Ablation mode (Fig. 9): maintenance, write-back included, on the
  // critical path.
  WriteBackWork work;
  work.owed.assign(shards_.size(), 0);
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!chunks[s].empty()) work.owed[s] = RunChunk(s, batch, chunks[s]);
  }
  Status status = WriteBack(&work, /*background=*/false);
  if (!status.ok() && !device_->crashed()) {
    OE_LOG_ERROR << "checkpoint write-back failed: " << status.ToString();
  }
  std::lock_guard<std::mutex> lock(maint_mutex_);
  sealed_batch_ = std::max(sealed_batch_, batch);
  maint_cv_.notify_all();
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

uint64_t PipelinedStore::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  const uint64_t cp = published_ckpt_.load(std::memory_order_acquire);
  gc_.Pin(cp);
  return cp;
}

void PipelinedStore::ReleaseSnapshot(uint64_t cp) {
  std::vector<uint64_t> to_free;
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    gc_.Unpin(cp, &to_free);
  }
  FreeRecords(to_free, "ckpt-gc");
}

void PipelinedStore::ResolveSnapshot(
    uint64_t cp, std::vector<RecordGc::Record>* refs) const {
  auto flushed_qualifies = [cp](const RecordGc::Record& ref) {
    return ref.offset != kNullOffset && ref.version <= cp;
  };
  if (std::all_of(refs->begin(), refs->end(), flushed_qualifies)) return;
  // The newest superseded record with version <= cp exists whenever the
  // key had durable state at cp: a record is freed only once no pinned or
  // future checkpoint can reach it.
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  for (RecordGc::Record& ref : *refs) {
    if (!flushed_qualifies(ref)) ref.offset = gc_.RecordAt(ref.key, cp);
  }
}

size_t PipelinedStore::SnapshotIndexRecords() const {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  return gc_.Records();
}

Result<uint64_t> PipelinedStore::LandRecord(EntryId key, uint64_t version,
                                            const float* data,
                                            const char* site) {
  std::vector<uint8_t> record(layout_.record_bytes(), 0);
  EntryLayout::SetRecordHeader(record.data(), key, version);
  std::memcpy(EntryLayout::RecordData(record.data()), data,
              layout_.data_bytes());
  pmem::PersistSiteGuard guard(site);
  return slab_->AllocWrite(record.data(), record.size(),
                           static_cast<uint32_t>(ShardOf(key)));
}

void PipelinedStore::FreeRecords(const std::vector<uint64_t>& offsets,
                                 const char* site) {
  if (offsets.empty()) return;
  pmem::PersistSiteGuard guard(site);
  for (uint64_t offset : offsets) {
    Status freed = slab_->Free(offset);
    if (!freed.ok() && !device_->crashed()) OE_CHECK_OK(freed);
  }
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
  const uint64_t flush_gate = NewestPending();

  for (const EntryId key : keys) {
    cache::AtomicTaggedPtr* slot = sh.index.Find(key);
    if (slot == nullptr) continue;  // evaporated (should not happen)
    const TaggedPtr ptr = slot->load();
    if (ptr.is_dram()) {
      CacheEntry* entry = ptr.dram<CacheEntry>();
      if (flush_gate != 0 && entry->version <= flush_gate && entry->dirty) {
        Status s = FlushEntryLocked(sh, entry);
        // Flush failures are expected while a simulated crash fault is
        // suppressing device writes; only real ones are worth logging.
        if (!s.ok() && !device_->crashed()) {
          OE_LOG_ERROR << "flush failed: " << s.ToString();
        }
      }
      const bool inserted = !sh.lru.Contains(entry);
      entry->version = batch;
      sh.lru.Touch(entry);
      if (inserted) {
        // First maintenance touch of a first-touch entry: it is now
        // LRU-linked and visible to the durability test.
        OE_CHECK(sh.fresh_entries > 0);
        --sh.fresh_entries;
        EvictIfNeededLocked(shard);
      }
    } else {
      CacheEntryLocked(shard, key, batch, ptr.pmem_offset());
      dram_stats_.AddWrite(layout_.data_bytes());
      EvictIfNeededLocked(shard);
    }
  }
  // Cache hit-rate gauge (DESIGN.md §9); cheap atomic reads, refreshed once
  // per chunk rather than per key.
  const uint64_t hits = stats_.cache_hits.load(std::memory_order_relaxed);
  const uint64_t misses = stats_.cache_misses.load(std::memory_order_relaxed);
  if (hits + misses > 0) {
    hit_rate_gauge_->Set(
        static_cast<int64_t>(hits * 10000 / (hits + misses)));
  }
}

Status PipelinedStore::FlushEntryLocked(Shard& sh, CacheEntry* entry) {
  obs::ScopedSpan span("store", "flush");
  // Copy-on-write: never overwrite a record a checkpoint may still need.
  dram_stats_.AddRead(layout_.data_bytes());
  OE_ASSIGN_OR_RETURN(const uint64_t offset,
                      LandRecord(entry->key, entry->version,
                                 entry->data(), "write-back"));
  if (entry->pmem_offset != kNullOffset) {
    // The old record is superseded at entry->version.
    std::vector<uint64_t> to_free;
    {
      std::lock_guard<std::mutex> lock(ckpt_mutex_);
      gc_.Retire({entry->key, entry->pmem_offset, entry->pmem_version},
                 entry->version,
                 published_ckpt_.load(std::memory_order_acquire), &to_free);
    }
    FreeRecords(to_free, "write-back");
  }
  entry->pmem_offset = offset;
  entry->pmem_version = entry->version;
  entry->dirty = false;
  sh.dirty.Remove(entry);
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

PipelinedStore::CacheEntry* PipelinedStore::PickVictimLocked(
    size_t shard, const std::vector<CacheEntry*>& skip) {
  Shard& sh = shards_[shard];
  uint32_t examined = 0;
  for (CacheEntry* e = sh.lru.Tail(); e != nullptr && examined < kEvictWindow;
       e = sh.lru.MoreRecent(e), ++examined) {
    if (std::find(skip.begin(), skip.end(), e) == skip.end()) return e;
  }
  return nullptr;
}

void PipelinedStore::EvictIfNeededLocked(size_t shard) {
  Shard& sh = shards_[shard];
  if (sh.lru.size() <= sh.capacity) return;
  obs::ScopedSpan span("store", "evict");
  // A victim whose version exceeds the pending checkpoint's batch means
  // this shard holds no pre-checkpoint state anymore — acknowledge once up
  // front so the flushes below defer superseded records against the right
  // checkpoint (the chunk's write-back pass acks what the evictions leave
  // behind, so mid-loop re-acks would only repeat the scan).
  AckCheckpointsLocked(shard);
  std::vector<CacheEntry*> failed;  // flush-failed during this invocation
  while (sh.lru.size() > sh.capacity) {
    CacheEntry* victim = PickVictimLocked(shard, failed);
    if (victim == nullptr) {
      // Every tail-window candidate failed its flush this round: keep the
      // excess cached rather than losing data. The next
      // maintenance chunk retries with fresh candidates.
      return;
    }
    if (victim->dirty) {
      Status s = FlushEntryLocked(sh, victim);
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

  const size_t dim = config_.dim;
  CallCounters counters(this);
  OE_RETURN_IF_ERROR(ForEachShardRead(
      keys, n,
      [&](size_t s, const size_t* pos, cache::AtomicTaggedPtr* const* slots,
          size_t count) {
        for (size_t k = 0; k < count; ++k) {
          const size_t i = pos[k];
          if (slots[k] == nullptr) {
            return Status::NotFound(
                "push to unknown key (pull must precede push)");
          }
          SpinLock& stripe = push_locks_[keys[i] % kPushShards];
          stripe.lock();
          // Load the slot only after taking the stripe lock: a concurrent
          // pusher of the same key may have COW-remapped the record, and
          // applying this gradient to the superseded offset would silently
          // lose its update.
          const TaggedPtr ptr = slots[k]->load();
          if (ptr.is_dram()) {
            CacheEntry* entry = ptr.dram<CacheEntry>();
            config_.optimizer.Apply(entry->data(), entry->data() + dim,
                                    grads + i * dim, dim, batch);
            entry->version = batch;
            MarkDirty(shards_[s], entry);
            stripe.unlock();
            counters.DramWrite(layout_.data_bytes());
          } else {
            Status status = PushPmemRecord(s, slots[k], ptr.pmem_offset(),
                                           grads + i * dim, batch);
            stripe.unlock();
            OE_RETURN_IF_ERROR(status);
          }
        }
        return Status::OK();
      }));
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
  const uint64_t newest_cp = NewestCheckpoint();
  if (record_version <= newest_cp) {
    uint64_t offset = kNullOffset;
    {
      pmem::PersistSiteGuard site("push-cow");
      OE_ASSIGN_OR_RETURN(
          offset, slab_->AllocWrite(record.data(), record.size(),
                                    static_cast<uint32_t>(shard)));
    }
    std::vector<uint64_t> to_free;
    {
      std::lock_guard<std::mutex> lock(ckpt_mutex_);
      gc_.Retire({EntryLayout::RecordKey(record.data()), record_offset,
                  record_version},
                 batch, published_ckpt_.load(std::memory_order_acquire),
                 &to_free);
    }
    // One atomic 8-byte store: concurrent Pull readers holding the shared
    // lock observe either the old or the new record, never a torn slot.
    slot->store(TaggedPtr::FromPmem(offset));
    FreeRecords(to_free, "push-cow");
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

Status PipelinedStore::RecoverFromCrash() {
  obs::ScopedSpan span("store", "recover");
  WaitIdle();  // quiesce every chunk and write-back pass
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

template <typename Fn>
size_t PipelinedStore::SumOverShards(Fn&& fn) const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock guard(shard.lock);
    total += fn(shard);
  }
  return total;
}

size_t PipelinedStore::EntryCount() const {
  return SumOverShards([](const Shard& sh) { return sh.index.Size(); });
}

size_t PipelinedStore::CachedEntries() const {
  return SumOverShards([](const Shard& sh) { return sh.cache_entries.size(); });
}

bool PipelinedStore::IsDramCached(EntryId key) const {
  const Shard& sh = shards_[ShardOf(key)];
  std::shared_lock guard(sh.lock);
  const cache::AtomicTaggedPtr* slot = sh.index.Find(key);
  return slot != nullptr && slot->load().is_dram();
}

Status PipelinedStore::MultiGet(const EntryId* keys, size_t n, float* out,
                                uint8_t* found, uint64_t* snapshot_version) {
  const Nanos start = WallNowNanos();
  obs::ScopedSpan span("store", "multi_get");
  // Pin the published checkpoint: until ReleaseSnapshot no PMem record this
  // checkpoint can reach is freed, so every record offset resolved below
  // stays readable without holding the push critical section.
  const uint64_t cp = AcquireSnapshot();
  if (snapshot_version != nullptr) *snapshot_version = cp;
  const size_t dim = config_.dim;
  std::vector<RecordGc::Record> refs;
  Status status = ForEachShardRead(
      keys, n,
      [&](size_t, const size_t* pos, cache::AtomicTaggedPtr* const* slots,
          size_t count) {
        // Only keys with a live slot get a ref. A key without one never
        // existed here: nothing but recovery erases index entries, and
        // recovery clears the GC too, so it has no record at any
        // checkpoint and ResolveSnapshot need not probe the GC for it.
        refs.clear();
        for (size_t k = 0; k < count; ++k) {
          if (slots[k] == nullptr) continue;
          RecordGc::Record& ref =
              refs.emplace_back(RecordGc::Record{keys[pos[k]], 0, 0});
          const TaggedPtr ptr = slots[k]->load();
          if (ptr.is_dram()) {
            // Only the entry's flushed-record fields are touched: they
            // mutate under the shard write lock, so the read lock makes the
            // pair consistent. entry->data()/version race with pushers (read
            // lock + key stripe) and are never needed here — every cached
            // entry's live version is newer than any published checkpoint.
            const CacheEntry* entry = ptr.dram<CacheEntry>();
            ref.offset = entry->pmem_offset;
            ref.version = entry->pmem_version;
          } else {
            // Acquire-load pairs with the release version store of an
            // in-place push; data bytes are only dereferenced when the
            // version shows the record is frozen (<= a published
            // checkpoint).
            ref.offset = ptr.pmem_offset();
            ref.version = device_->AtomicLoad64(ref.offset + 8);
          }
        }
        // Copies happen under the shard read lock and the snapshot pin.
        ResolveSnapshot(cp, &refs);
        const RecordGc::Record* ref = refs.data();
        for (size_t k = 0; k < count; ++k) {
          const size_t i = pos[k];
          const uint64_t offset =
              slots[k] != nullptr ? (ref++)->offset : kNullOffset;
          found[i] = offset != kNullOffset;
          if (found[i]) {
            device_->Read(offset + EntryLayout::kHeaderBytes, out + i * dim,
                          dim * sizeof(float));
          } else {
            std::fill(out + i * dim, out + (i + 1) * dim, 0.0f);
          }
        }
        return Status::OK();
      });
  ReleaseSnapshot(cp);
  multiget_latency_->Record(static_cast<double>(WallNowNanos() - start));
  return status;
}

Result<std::vector<float>> PipelinedStore::Peek(EntryId key) const {
  const Shard& sh = shards_[ShardOf(key)];
  std::shared_lock guard(sh.lock);
  const cache::AtomicTaggedPtr* slot = sh.index.Find(key);
  if (slot == nullptr) return Status::NotFound("no such key");
  std::vector<float> out(config_.dim);
  const TaggedPtr ptr = slot->load();
  if (ptr.is_dram()) {
    const CacheEntry* entry = ptr.dram<CacheEntry>();
    std::copy_n(entry->data(), config_.dim, out.begin());
  } else {
    const uint8_t* record = pool_->Translate(ptr.pmem_offset());
    std::copy_n(EntryLayout::RecordData(record), config_.dim, out.begin());
  }
  return out;
}

}  // namespace oe::storage
