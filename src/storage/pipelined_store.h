#ifndef OE_STORAGE_PIPELINED_STORE_H_
#define OE_STORAGE_PIPELINED_STORE_H_

#include <array>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/access_queue.h"
#include "cache/lru_list.h"
#include "cache/tagged_ptr.h"
#include "ckpt/checkpoint_log.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pmem/pool.h"
#include "pmem/slab_allocator.h"
#include "storage/embedding_store.h"
#include "storage/flat_index.h"
#include "storage/record_gc.h"

namespace oe::storage {

/// "PMem-OE": the paper's OpenEmbedding engine — DRAM cache over PMem with
/// pipelined cache maintenance (Algorithm 1 + Algorithm 2) and co-designed
/// batch-aware checkpointing.
///
/// The store is lock-striped into config.store_shards shards keyed by a
/// hash of the entry id. Each shard owns its RW lock, hash index, cache
/// map, LRU list, pull-phase staging buffer, and a slice of the DRAM cache
/// budget; maintainer threads drain chunks for *different* shards
/// concurrently (per-shard chunks stay FIFO), so maintenance throughput
/// scales with maintainer_threads and a pull-miss write-locks one shard
/// instead of the whole engine.
///
/// Pull path (Algorithm 1): under a shard's read lock, weights are copied
/// from the DRAM cache (hit) or directly from the PMem record (miss).
/// First-touch keys are initialized in DRAM under a brief per-shard write
/// lock. Accessed keys are staged per shard and become per-shard cache-
/// maintenance chunks when FinishPullPhase() seals the batch — maintenance
/// then runs on dedicated threads, overlapping the GPU compute phase.
///
/// Maintenance (Algorithm 2): under the shard's write lock, per accessed
/// entry:
///   - cached & version <= pending-checkpoint batch: write back to PMem so
///     the checkpoint state is durable, then stamp the current batch and
///     move to the shard's LRU head;
///   - not cached: load into DRAM; if the shard is over capacity, evict its
///     LRU tail.
///
/// Checkpoint write-back: each shard keeps an intrusive list of its dirty
/// cached entries. Once a shard has run a chunk of a batch later than a
/// pending checkpoint cp (so every push of a batch <= cp has landed), the
/// maintainer flushes that shard's dirty entries with version <= cp and
/// acknowledges cp. The pass runs after the seal's last chunk is marked
/// done, so Push never waits for it; DrainCheckpoints runs the same
/// routine over every shard.
///
/// Checkpoint publication is a cross-shard barrier: a shard acknowledges a
/// pending checkpoint once every pre-checkpoint state it caches is durable
/// (its write-back pass flushed them, or — metadata only — its LRU tail's
/// version exceeds the checkpoint batch and it holds no never-maintained
/// first-touch entries), and the Checkpointed Batch ID is published with
/// one failure-atomic PMem root store only when *all* shards have
/// acknowledged.
///
/// Write-backs copy-on-write: a record still needed by a published or
/// pending checkpoint is never overwritten; superseded records are freed
/// when a newer checkpoint publishes ("the space manager will recycle the
/// space of these entries once the new checkpoint is done").
///
/// Serving reads (MultiGet) run against the last *published* checkpoint
/// without taking the push critical section: per key, the newest PMem
/// record with version <= checkpoint is immutable by the COW invariant
/// (in-place pushes require version > every published/pending checkpoint),
/// so a snapshot reader only ever touches frozen bytes. Records superseded
/// since the checkpoint are found through the RecordGc, and a pin keeps
/// every record the reader's checkpoint can reach alive while the read is
/// in flight — checkpoint publication is never blocked, only the GC of
/// those records is parked until their last reader releases.
///
/// Checkpoint requests, the write-back passes and publication live in
/// pipelined_store_ckpt.cc; backup and recovery images (Export/Import of
/// checkpoints, the recovery scan) in pipelined_store_image.cc.
class PipelinedStore final : public EmbeddingStore {
 public:
  /// Pool root slot holding the Checkpointed Batch ID.
  static constexpr int kRootCheckpointId = 0;
  /// Pool type tags that older stores wrote and this one cannot read:
  /// per-record pool allocations of entry records, PMem bucket-index
  /// extents, and slot-ownership blobs of live migration (named by root
  /// slot 1, which stays unused). Entry records live in slab extents only,
  /// and a store that kept an ownership blob may hold records of a range it
  /// handed off, so Open rejects an image holding any of these tags instead
  /// of recovering a wrong model from it.
  static constexpr uint64_t kRetiredRecordTag = 0xE5;
  static constexpr uint64_t kRetiredIndexTag = 0xE6;
  static constexpr uint64_t kRetiredRouteTag = 0xE8;

  /// Formats `device` with a fresh pool and starts the maintainer threads.
  static Result<std::unique_ptr<PipelinedStore>> Create(
      const StoreConfig& config, pmem::PmemDevice* device);

  /// Attaches to a device that already holds a pool (e.g. a file-backed
  /// PMem image after a process restart) and recovers the model to its
  /// latest published checkpoint instead of formatting. FailedPrecondition
  /// if the pool holds extents under a retired tag.
  static Result<std::unique_ptr<PipelinedStore>> Open(
      const StoreConfig& config, pmem::PmemDevice* device);

  ~PipelinedStore() override;

  Status Pull(const EntryId* keys, size_t n, uint64_t batch,
              float* out) override;
  void FinishPullPhase(uint64_t batch) override;
  Status Push(const EntryId* keys, size_t n, const float* grads,
              uint64_t batch) override;
  Status RequestCheckpoint(uint64_t batch) override;
  Status DrainCheckpoints() override;
  uint64_t PublishedCheckpoint() const override;
  Status RecoverFromCrash() override;

  /// Remote-backup tier (Section I: "perform checkpointing on the local
  /// storage in short periods, and then perform checkpointing on the
  /// remote storage in large periods"): copies the newest *published*
  /// checkpoint's records into `log` (typically on a slower remote/SSD
  /// device) as one chunk tagged with the checkpoint's batch id.
  Status ExportCheckpoint(ckpt::CheckpointLog* log);

  /// Restores the model from a remote backup after total local-PMem loss.
  /// The store must be freshly created (empty pool); the backup's batch id
  /// becomes the published checkpoint.
  Status ImportCheckpoint(const ckpt::CheckpointLog& log);

  size_t EntryCount() const override;
  Result<std::vector<float>> Peek(EntryId key) const override;

  /// Read-only batched lookup served from the last published checkpoint
  /// (see the class comment): every returned value reflects exactly the
  /// state checkpoint `*snapshot_version` captured, even while training
  /// pushes, maintenance flushes and seals proceed concurrently. Keys that
  /// did not exist at that checkpoint come back with found[i] == 0 and
  /// zeroed weights. With no published checkpoint yet, *snapshot_version
  /// is 0 and nothing is found.
  Status MultiGet(const EntryId* keys, size_t n, float* out, uint8_t* found,
                  uint64_t* snapshot_version) override;

  /// Superseded records currently tracked for snapshot readers (tests:
  /// bounded-growth / GC assertions). Takes ckpt_mutex_.
  size_t SnapshotIndexRecords() const;

  const StoreStats& stats() const override { return stats_; }
  const StoreConfig& config() const override { return config_; }
  const pmem::DeviceStats& dram_stats() const override { return dram_stats_; }

  /// Blocks until all maintenance chunks sealed up to and including `batch`
  /// have been processed. Push() calls this internally, so it does not
  /// wait for a checkpoint write-back pass.
  void WaitMaintenance(uint64_t batch);

  /// Blocks until every sealed chunk has been processed and no checkpoint
  /// write-back pass is running: nothing touches the device behind the
  /// caller's back (crash harnesses, tests asserting on publication, and
  /// PsService's wait_maintenance, which the simulation driver times as
  /// the maintenance phase).
  void WaitIdle();

  /// Entries currently resident in the DRAM cache (summed over shards).
  size_t CachedEntries() const;

  /// True if `key` is resident in the DRAM cache right now (tests/benches;
  /// takes the shard's read lock).
  bool IsDramCached(EntryId key) const;

  /// DRAM cache capacity in entries (config.cache_bytes / entry footprint).
  /// Per-shard capacities always sum to exactly this.
  size_t CacheCapacityEntries() const { return cache_capacity_; }

  /// Number of lock stripes (config.store_shards clamped to >= 1).
  size_t NumShards() const { return shards_.size(); }

  /// The shard stripe `key` hashes to; exposed for tests and benches that
  /// need to construct shard-local or cross-shard key sets.
  size_t ShardOfKey(EntryId key) const { return ShardOf(key); }

  pmem::PmemPool* pool() { return pool_.get(); }

  /// Invokes `fn(offset, size)` for every committed entry record via the
  /// slab bitmaps, independent of the DRAM index. Crash harnesses rescan
  /// through this.
  template <typename Fn>
  void ForEachEntryRecord(Fn&& fn) const {
    slab_->ForEachAllocated(std::forward<Fn>(fn));
  }

 private:
  struct CacheEntry {
    EntryId key = 0;
    uint64_t version = 0;       // batch of last access/update (Algorithm 2)
    uint64_t pmem_offset = kNullOffset;  // latest PMem record, if any
    uint64_t pmem_version = ~0ULL;       // version held by that record
    bool dirty = false;          // weights differ from the PMem record
    cache::LruNode lru;
    cache::LruNode dirty_node;   // linked into Shard::dirty iff dirty

    /// Weights + optimizer state, stored right behind the entry in the
    /// same allocation (see CacheEntryLocked): one allocation per cached
    /// key, no separate array and pointer.
    float* data() { return reinterpret_cast<float*>(this + 1); }
    const float* data() const {
      return reinterpret_cast<const float*>(this + 1);
    }
  };
  struct CacheEntryDeleter {
    void operator()(CacheEntry* entry) const;
  };
  using CacheEntryPtr = std::unique_ptr<CacheEntry, CacheEntryDeleter>;

  /// One lock stripe. All mutable shard state is guarded by `lock` except
  /// `staged`, which has its own leaf mutex so pullers staging accesses
  /// under the shard read lock do not race FinishPullPhase's seal.
  struct Shard {
    mutable std::shared_mutex lock;
    /// Key -> TaggedPtr index (see flat_index.h for the lock contract);
    /// replaced by a fresh one on recovery.
    FlatIndex index;
    std::unordered_map<EntryId, CacheEntryPtr> cache_entries;
    cache::LruList<CacheEntry, &CacheEntry::lru> lru;
    // Every dirty cached entry, most recently dirtied first: linked where
    // an entry turns dirty (first touch, Push) and unlinked by every flush
    // and erase. Mutated under the write lock, or under the read lock plus
    // `dirty_lock` (Push, which holds the key's stripe).
    cache::LruList<CacheEntry, &CacheEntry::dirty_node> dirty;
    SpinLock dirty_lock;
    size_t capacity = 0;  // this shard's slice of the cache budget

    // First-touch entries created by Pull that no maintenance chunk has
    // linked into the LRU yet. While > 0 the LRU-tail test cannot
    // acknowledge a pending checkpoint: such an entry is dirty, invisible to
    // the tail, and may carry a version the checkpoint still needs.
    size_t fresh_entries = 0;

    // Last victim whose flush failure was logged; resets on success so each
    // stuck victim is reported once, not once per eviction attempt.
    EntryId logged_victim = kNoVictim;

    std::mutex stage_mutex;
    std::vector<EntryId> staged;
  };

  /// Holds every shard's write lock for a scope: acquired in ascending
  /// shard order (the multi-shard lock protocol), released in reverse.
  class AllShardsWriteLock {
   public:
    explicit AllShardsWriteLock(std::vector<Shard>& shards) : shards_(shards) {
      for (Shard& shard : shards_) shard.lock.lock();
    }
    ~AllShardsWriteLock() {
      for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
        it->lock.unlock();
      }
    }
    AllShardsWriteLock(const AllShardsWriteLock&) = delete;
    AllShardsWriteLock& operator=(const AllShardsWriteLock&) = delete;

   private:
    std::vector<Shard>& shards_;
  };

  static constexpr EntryId kNoVictim = ~0ULL;

  PipelinedStore(const StoreConfig& config, pmem::PmemDevice* device);

  /// Create/Open's shared argument checks.
  static Result<std::unique_ptr<PipelinedStore>> Make(
      const StoreConfig& config, pmem::PmemDevice* device);
  static size_t ShardCount(const StoreConfig& config);
  size_t ShardOf(EntryId key) const {
    // Multiplicative hash: entry ids are often dense integers, and modulo
    // alone would stripe consecutive ids onto consecutive shards batch after
    // batch in lockstep.
    uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h % shards_.size());
  }

  /// The batched probe of Pull, Push and MultiGet: per shard holding some
  /// of `keys`, resolves their index slots with one FindBatch and calls
  /// `fn(shard, pos, slots, count)` under the shard's read lock; pos[k] is
  /// the position in `keys` of slots[k] (nullptr: absent). Stops at fn's
  /// first error.
  template <typename Fn>
  Status ForEachShardRead(const EntryId* keys, size_t n, Fn&& fn);

  /// The per-key counters of one Pull or Push call, tallied in locals and
  /// added to stats_ and dram_stats_ once, when the call returns on any
  /// path.
  class CallCounters;

  /// Copies the weights of the record `slot` points at into `out` and
  /// returns true for a DRAM cache hit. Requires the shard's (read) lock.
  bool CopyWeights(const cache::AtomicTaggedPtr& slot, float* out);

  /// Sums fn(shard) over the shards, each under its read lock.
  template <typename Fn>
  size_t SumOverShards(Fn&& fn) const;

  Status Init();
  void MaintainerLoop();

  /// Runs one maintenance chunk under the shard's write lock and records
  /// its latency. Returns the newest pending checkpoint older than `batch`
  /// (0: none), which the shard now owes a write-back pass.
  uint64_t RunChunk(size_t shard, uint64_t batch, std::vector<EntryId>& keys);

  /// Checkpoint write-back still to do: owed[s] is the checkpoint shard s
  /// owes a pass (0: none); `frees` are records a publication released.
  struct WriteBackWork {
    std::vector<uint64_t> owed;
    std::vector<uint64_t> frees;
    bool empty() const;
  };

  /// Moves the store's write-back work out / merges leftover work back.
  /// Both require maint_mutex_.
  WriteBackWork TakeWriteBackLocked();
  void ReturnWriteBackLocked(WriteBackWork* work);

  /// The checkpoint write-back of maintenance and DrainCheckpoints: per
  /// shard s with owed[s] above the published checkpoint, flushes every
  /// dirty entry with version <= owed[s] under the shard's write lock,
  /// acknowledges owed[s] and publishes what every shard has acknowledged;
  /// then frees the released records. Finished work is removed from
  /// *work. The caller guarantees every push of a batch <= owed[s] has
  /// landed. Stops at the first failed flush. In the `background` (a
  /// maintainer's pass) it works in bounded slices, stops before a slice
  /// once a sealed chunk is waiting (chunks go first), and stops after a
  /// bounded number of flushes and frees.
  Status WriteBack(WriteBackWork* work, bool background);

  /// True once a sealed chunk is waiting for a maintainer.
  bool ChunkWaiting() const;

  /// Writes the record (key, version, data) durably in the key's slab lane
  /// (2 persist events) under persist site `site`.
  Result<uint64_t> LandRecord(EntryId key, uint64_t version,
                              const float* data, const char* site);
  /// Releases entry records under persist site `site`. A free that fails
  /// after a simulated crash fault is moot (recovery rebuilds the
  /// allocator state from the bitmaps); any other failure is fatal.
  void FreeRecords(const std::vector<uint64_t>& offsets, const char* site);

  // --- All *Locked methods require the write lock of shards_[shard]. ---
  /// Caches `key` at version `batch`: loaded from the record at
  /// `record_offset` and LRU-linked, or (kNullOffset) a first-touch entry.
  /// The caller counts the entry's DRAM write.
  CacheEntry* CacheEntryLocked(size_t shard, EntryId key, uint64_t batch,
                               uint64_t record_offset);
  void ProcessChunkLocked(size_t shard, uint64_t batch,
                          std::vector<EntryId>& keys);
  Status FlushEntryLocked(Shard& sh, CacheEntry* entry);
  void EvictIfNeededLocked(size_t shard);

  /// Links a clean `entry` into its shard's dirty list and marks it dirty.
  /// Requires the shard write lock, or the read lock plus the key's stripe.
  void MarkDirty(Shard& sh, CacheEntry* entry);

  /// Selects this shard's eviction victim: the least recent entry within
  /// the kEvictWindow LRU-tail candidates that is not in `skip`
  /// (flush-failed this round). Returns nullptr if the window holds only
  /// skipped entries.
  CacheEntry* PickVictimLocked(size_t shard,
                               const std::vector<CacheEntry*>& skip);

  /// Algorithm 2's metadata-only ack (eviction, RequestCheckpoint's sweep):
  /// advances this shard's acknowledgements through every pending
  /// checkpoint its LRU tail has outgrown and publishes any checkpoint all
  /// shards have acked. Requires the shard's write lock; takes ckpt_mutex_
  /// internally.
  void AckCheckpointsLocked(size_t shard);

  /// If a checkpoint is pending: under ckpt_mutex_, runs `ack` (which
  /// raises shard_acked_) and publishes every pending checkpoint all shards
  /// have acknowledged; appends the records publication released to
  /// `to_free`.
  template <typename Fn>
  void AckAndPublish(Fn&& ack, std::vector<uint64_t>* to_free);

  /// Publishes `cp` with one root store under persist site `site` and
  /// raises every shard's acknowledgement to it. Requires ckpt_mutex_.
  void AdoptCheckpointLocked(uint64_t cp, const char* site);

  /// Applies one gradient to a PMem-resident record. Runs under the shard's
  /// shared (read) lock plus the key's push_locks_ stripe; a COW remap
  /// publishes the new record through the atomic index slot so concurrent
  /// readers never observe a torn pointer.
  Status PushPmemRecord(size_t shard, cache::AtomicTaggedPtr* slot,
                        uint64_t record_offset, const float* grad,
                        uint64_t batch);

  /// Newest pending checkpoint batch below `bound`, or 0 if none.
  uint64_t NewestPending(uint64_t bound = ~0ULL) const;

  /// Newest published-or-pending checkpoint, read in one ckpt_mutex_
  /// critical section: a publication pops the pending id and raises the
  /// published one together, so the result never misses a checkpoint
  /// that is published concurrently.
  uint64_t NewestCheckpoint() const;

  /// Pins the current published checkpoint for a read: every record a
  /// reader at the returned version can reach stays allocated until the
  /// matching ReleaseSnapshot.
  uint64_t AcquireSnapshot();
  void ReleaseSnapshot(uint64_t cp);

  /// Per ref (key, flushed record): the newest record with version <= cp —
  /// the flushed one when it qualifies, else the GC's superseded one —
  /// written back into ref.offset (kNullOffset when the key had no state
  /// at cp). Takes ckpt_mutex_ only if some ref needs the GC.
  void ResolveSnapshot(uint64_t cp, std::vector<RecordGc::Record>* refs) const;

  // --- Images and recovery (pipelined_store_image.cc). These require
  // every shard write lock (Init: a store no other thread sees yet). ---

  /// Resets every volatile structure to an empty cache over the current
  /// pool: slab attach, fresh indexes and caches, and the
  /// checkpoint state reloaded from the root. Returns that checkpoint.
  Result<uint64_t> ResetLocked();

  /// RecoverFromCrash's body: reopens the pool, resets, frees every record
  /// recovery discards and rebuilds the indexes. Returns the recovered
  /// checkpoint.
  Result<uint64_t> RecoverLocked();

  /// Recovery's record classification (Section V-C), also the backup's
  /// record set: one scan of every committed entry record indexes, per
  /// key, the newest record with version <= cp into index[ShardOf(key)]; a
  /// key met again re-reads the kept record's version from its header.
  /// Every other record's offset is appended to `discard` when non-null.
  std::vector<FlatIndex> ClassifyRecordsLocked(
      uint64_t cp, std::vector<uint64_t>* discard) const;

  /// Classifies at `cp`, frees the discarded records and adopts the
  /// classification's indexes. The indexes must be empty.
  void RebuildIndexLocked(uint64_t cp);

  StoreConfig config_;
  EntryLayout layout_;
  pmem::PmemDevice* device_;
  std::unique_ptr<pmem::PmemPool> pool_;
  // Declared after pool_ so the slab is destroyed before the pool.
  std::unique_ptr<pmem::SlabAllocator> slab_;
  size_t cache_capacity_ = 0;

  // Locking protocol (see DESIGN.md §8): shards_[s].lock (shared for
  // Pull/Push, exclusive for maintenance/insertions; multi-shard operations
  // acquire shard locks in ascending index order) -> push_locks_ stripe
  // (serializes writers of one key; the batch protocol keeps pulls of a
  // key out of its push phase) -> ckpt_mutex_ / stage_mutex / maint leaf locks, never held while
  // acquiring the others. Index slots are atomic so Pull may read them
  // under the shared lock while a pusher swaps a slot.
  std::vector<Shard> shards_;

  cache::ShardedAccessQueue<EntryId> access_queue_;
  std::vector<std::thread> maintainers_;

  // Maintenance progress (Push ordering + phase measurement) and the
  // write-back work. The maintainer that completes the last outstanding
  // chunk claims the work in the same critical section.
  mutable std::mutex maint_mutex_;
  std::condition_variable maint_cv_;
  uint64_t sealed_batch_ = 0;
  uint64_t appended_chunks_ = 0;
  uint64_t processed_chunks_ = 0;
  WriteBackWork writeback_;
  size_t writebacks_running_ = 0;

  // Checkpoint queue, per-shard acknowledgements and copy-on-write record
  // lifetimes (guarded by ckpt_mutex_). shard_acked_[s] is the highest
  // pending checkpoint batch shard s has reported durable; a pending
  // checkpoint publishes only when min(shard_acked_) reaches it.
  mutable std::mutex ckpt_mutex_;
  std::deque<uint64_t> pending_ckpts_;
  std::vector<uint64_t> shard_acked_;
  RecordGc gc_;
  std::atomic<uint64_t> published_ckpt_{0};

  static constexpr size_t kPushShards = 256;
  std::array<SpinLock, kPushShards> push_locks_;

  StoreStats stats_;
  mutable pmem::DeviceStats dram_stats_;

  // Observability (DESIGN.md §9): latency distributions on the default
  // MetricsRegistry, labeled {"engine","store"} (plus {"shard"} for
  // maintenance chunks) so concurrent store instances stay distinct.
  // Registered once in the constructor; recording is lock-free.
  obs::Distribution* pull_latency_;
  obs::Distribution* push_latency_;
  obs::Distribution* multiget_latency_;
  std::vector<obs::Distribution*> shard_maint_latency_;
  // Cache health gauge, refreshed after each maintenance chunk:
  // store.cache_hit_rate_bp (hit rate in basis points, 0..10000).
  obs::Gauge* hit_rate_gauge_;
};

}  // namespace oe::storage

#endif  // OE_STORAGE_PIPELINED_STORE_H_
