// PipelinedStore's images of its PMem state: crash recovery (Section V-C),
// the remote backup tier, live-migration ranges and the durable routing
// root. Every function here runs under all shard write locks.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "storage/pipelined_store.h"

namespace oe::storage {

using cache::TaggedPtr;

namespace {
// Routing blob: [epoch u64][num_slots u64][bitmap].
constexpr size_t kBitmapBytes = kNumRoutingSlots / 8;
constexpr size_t kRouteBytes = 8 + 8 + kBitmapBytes;
}  // namespace

Result<std::unique_ptr<PipelinedStore>> PipelinedStore::Open(
    const StoreConfig& config, pmem::PmemDevice* device) {
  OE_ASSIGN_OR_RETURN(auto store, Make(config, device));
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

Result<uint64_t> PipelinedStore::ResetLocked() {
  pmem::SlabAllocatorOptions slab_options;
  slab_options.lanes = static_cast<uint32_t>(shards_.size());
  OE_ASSIGN_OR_RETURN(slab_,
                      pmem::SlabAllocator::Attach(pool_.get(), slab_options));
  for (auto& shard : shards_) {
    shard.index = FlatIndex{};
    // Unlink list nodes before the entries that embed them are freed.
    shard.lru.Clear();
    shard.dirty.Clear();
    shard.cache_entries.clear();
    shard.fresh_entries = 0;
    shard.logged_victim = kNoVictim;
    std::lock_guard<std::mutex> lock(shard.stage_mutex);
    shard.staged.clear();
  }
  {
    // The pool is rescanned: pending write-back and frees are moot.
    std::lock_guard<std::mutex> lock(maint_mutex_);
    writeback_.owed.assign(shards_.size(), 0);
    writeback_.frees.clear();
  }
  const uint64_t cp = pool_->RootGet(kRootCheckpointId);
  published_ckpt_.store(cp, std::memory_order_release);
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  pending_ckpts_.clear();
  gc_.Clear();
  std::fill(shard_acked_.begin(), shard_acked_.end(), cp);
  return cp;
}

Result<uint64_t> PipelinedStore::RecoverLocked() {
  OE_ASSIGN_OR_RETURN(pool_, pmem::PmemPool::Open(device_));
  // Routing-root hygiene: the root references at most one committed
  // ownership blob; any other kRouteTag extent is an orphan left by a
  // crash inside SetOwnedSlots (between the blob write and the root store,
  // or between the new root store and the old blob's free).
  // The root's own extent size is what ReadOwnedSlots validates against.
  const uint64_t route_root = pool_->RootGet(kRootRouting);
  std::vector<uint64_t> orphans;
  route_bytes_.store(0);
  pool_->ForEachAllocated(kRouteTag, [&](uint64_t offset, uint64_t size) {
    if (offset == route_root) {
      route_bytes_.store(size);
    } else {
      orphans.push_back(offset);
    }
  });
  {
    pmem::PersistSiteGuard site("recover-gc");
    for (uint64_t offset : orphans) OE_CHECK_OK(pool_->Free(offset));
  }
  // The indexes are rebuilt from scratch over the reopened pool: the record
  // scan below is the authoritative state.
  OE_ASSIGN_OR_RETURN(const uint64_t cp, ResetLocked());
  // Committed slot ownership (see SetOwnedSlots): when a routing root
  // exists, the scan discards every record whose key falls outside it — a
  // half-imported migration range vanishes (the import only commits with
  // the ownership root), and a handed-off range is collected even if the
  // post-migration purge never ran.
  OE_ASSIGN_OR_RETURN(const OwnedSlots route, ReadOwnedSlots());
  RebuildIndexLocked(cp, route);
  return cp;
}

std::unordered_map<EntryId, RecordGc::Record>
PipelinedStore::ClassifyRecordsLocked(uint64_t cp, const OwnedSlots& route,
                                      std::vector<uint64_t>* discard) const {
  std::unordered_map<EntryId, RecordGc::Record> best;
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
    const bool owned = !route.present || route.owned[SlotOfKey(key)];
    if (!owned || version > cp) {
      drop(offset);
      return;
    }
    const RecordGc::Record found{key, offset, version};
    auto [it, inserted] = best.try_emplace(key, found);
    if (inserted) return;
    if (version > it->second.version) {
      drop(it->second.offset);
      it->second = found;
    } else {
      drop(offset);
    }
  });
  return best;
}

void PipelinedStore::RebuildIndexLocked(uint64_t cp, const OwnedSlots& route) {
  // Recovery per Section V-C: scan every entry record in PMem, discard
  // those newer than the Checkpointed Batch ID, keep the newest survivor
  // per key, and rebuild the DRAM hash indexes.
  std::vector<uint64_t> discard;
  const auto survivors = ClassifyRecordsLocked(cp, route, &discard);
  FreeRecords(discard, "recover-gc");
  // Fill one shard's index at a time: its table stays cache-resident.
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
  ckpt::CheckpointLog::ChunkWriter writer(log, cp);
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
  // Land every record of every chunk, publish cp, then let recovery's
  // classification pick the newest record <= cp per key: a key exported
  // twice into one log keeps its later copy, and the earlier one is freed
  // like any record recovery discards.
  Status status = Status::OK();
  Status replay = log.Replay(
      cp, [&](EntryId key, uint64_t version, const float* data) {
        if (status.ok()) {
          status = LandRecord(key, version, data, "import-entry").status();
        }
      });
  if (status.ok()) status = replay;
  if (!status.ok()) return status;
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    AdoptCheckpointLocked(cp, "import-publish");
  }
  OE_ASSIGN_OR_RETURN(const OwnedSlots route, ReadOwnedSlots());
  RebuildIndexLocked(cp, route);
  return Status::OK();
}

Status PipelinedStore::SetOwnedSlots(uint64_t epoch,
                                     const std::vector<bool>& owned) {
  if (owned.size() != kNumRoutingSlots) {
    return Status::InvalidArgument(
        "owned bitmap must cover every routing slot");
  }
  std::vector<uint8_t> blob(kRouteBytes);
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
  route_bytes_.store(blob.size());
  // A crash before this free leaves the old blob as an orphan kRouteTag
  // extent; RecoverFromCrash frees extents the root does not reference.
  if (old_blob != 0) OE_CHECK_OK(pool_->Free(old_blob));
  return Status::OK();
}

Result<PipelinedStore::OwnedSlots> PipelinedStore::ReadOwnedSlots() const {
  OwnedSlots result;
  const uint64_t offset = pool_->RootGet(kRootRouting);
  if (offset == 0) return result;
  const uint64_t bytes = route_bytes_.load();
  // The committed extent must hold exactly one blob before any of it is
  // read.
  if (bytes != kRouteBytes) {
    return Status::Corruption(bytes == 0
                                  ? "routing root names no committed blob"
                                  : "routing blob has the wrong length");
  }
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
  result.owned.assign(kNumRoutingSlots, false);
  for (uint32_t s = 0; s < kNumRoutingSlots; ++s) {
    if ((p[s / 8] >> (s % 8)) & 1u) result.owned[s] = true;
  }
  device_->ChargeRead(bytes);
  result.present = true;
  return result;
}

Status PipelinedStore::ExportRange(const std::vector<bool>& slots,
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
  std::vector<const CacheEntry*> entries;  // non-null when DRAM-cached
  std::vector<RecordGc::Record> flushed;
  for (auto& shard : shards_) {
    shard.index.ForEach([&](EntryId key, TaggedPtr ptr) {
      if (!slots[SlotOfKey(key)]) return;
      if (ptr.is_dram()) {
        const CacheEntry* entry = ptr.dram<CacheEntry>();
        entries.push_back(entry);
        flushed.push_back({key, entry->pmem_offset, entry->pmem_version});
      } else {
        entries.push_back(nullptr);
        flushed.push_back(
            {key, ptr.pmem_offset(),
             EntryLayout::RecordVersion(pool_->Translate(ptr.pmem_offset()))});
        device_->ChargeRead(EntryLayout::kHeaderBytes);
      }
    });
  }
  if (flushed.empty()) return Status::OK();
  if (cp == 0) {
    return Status::FailedPrecondition(
        "no published checkpoint to migrate from");
  }

  // Snapshot record per key: the newest record at or below cp — what the
  // target must serve to MultiGet.
  std::vector<RecordGc::Record> snapshot = flushed;
  ResolveSnapshot(cp, &snapshot);

  const size_t record_bytes = layout_.record_bytes();
  ckpt::CheckpointLog::ChunkWriter writer(log, cp);
  for (size_t i = 0; i < flushed.size() && writer.ok(); ++i) {
    const uint64_t snap_offset = snapshot[i].offset;
    if (snap_offset != kNullOffset) {
      device_->Read(snap_offset, writer.Next(), record_bytes);
    }
    // Live head, when newer than the snapshot record, so the target resumes
    // training from exactly this node's state: dirty DRAM serialized as a
    // record (a dirty entry always carries a version > cp — publication of
    // cp required every <= cp state durable), else a newer flushed record.
    const CacheEntry* entry = entries[i];
    if (entry != nullptr && entry->dirty) {
      uint8_t* record = writer.Next();
      EntryLayout::SetRecordHeader(record, entry->key, entry->version);
      std::memcpy(EntryLayout::RecordData(record), entry->data(),
                  layout_.data_bytes());
      dram_stats_.AddRead(layout_.data_bytes());
    } else if (flushed[i].offset != kNullOffset &&
               flushed[i].offset != snap_offset) {
      device_->Read(flushed[i].offset, writer.Next(), record_bytes);
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
  std::unordered_map<EntryId, std::vector<RecordGc::Record>> incoming;
  Status status = Status::OK();
  Status replay = log.Replay(
      image_cp, [&](EntryId key, uint64_t version, const float* data) {
        if (!status.ok()) return;
        if (incoming.find(key) == incoming.end() &&
            shards_[ShardOf(key)].index.Find(key) != nullptr) {
          // The key already lives here (an image re-delivered after a
          // partial import): the local copy wins.
          return;
        }
        auto landed = LandRecord(key, version, data, "migrate-entry");
        if (landed.ok()) {
          incoming[key].push_back(
              {key, std::move(landed).ValueOrDie(), version});
        } else {
          status = landed.status();
        }
      });
  if (status.ok()) status = replay;
  if (!status.ok()) {
    // The import failed before any record reached the index: free them all.
    std::vector<uint64_t> landed;
    for (const auto& [key, records] : incoming) {
      for (const RecordGc::Record& r : records) landed.push_back(r.offset);
    }
    FreeRecords(landed, "migrate-gc");
    return status;
  }

  // The newest record of a key becomes its live head; an older one (the
  // <= cp snapshot when the head is newer) is retired as superseded by it,
  // so snapshot readers find it until a checkpoint at the head's version
  // publishes.
  std::vector<uint64_t> to_free;
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    const uint64_t published = published_ckpt_.load(std::memory_order_acquire);
    for (const auto& [key, records] : incoming) {
      const RecordGc::Record* newest = &records[0];
      for (const RecordGc::Record& r : records) {
        if (r.version > newest->version) newest = &r;
      }
      shards_[ShardOf(key)].index.Upsert(key,
                                         TaggedPtr::FromPmem(newest->offset));
      for (const RecordGc::Record& r : records) {
        if (&r != newest) gc_.Retire(r, newest->version, published, &to_free);
      }
      imported->push_back(key);
    }
  }
  FreeRecords(to_free, "migrate-gc");
  if (image_cp > published_ckpt_.load(std::memory_order_acquire)) {
    // A fresh scale-out target must agree with the cluster's serving
    // version immediately, or cross-node MultiGet version agreement breaks
    // until the next cluster-wide checkpoint. Note the imported records
    // only *survive* recovery once the routing root also commits (see
    // SetOwnedSlots).
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    AdoptCheckpointLocked(image_cp, "migrate-publish");
  }
  return Status::OK();
}

void PipelinedStore::DropKeysLocked(
    const std::unordered_set<EntryId>& victims) {
  std::vector<RecordGc::Record> heads;
  for (const EntryId key : victims) {
    Shard& sh = shards_[ShardOf(key)];
    cache::AtomicTaggedPtr* slot = sh.index.Find(key);
    if (slot == nullptr) continue;
    const TaggedPtr ptr = slot->load();
    RecordGc::Record head{key, kNullOffset, 0};
    if (ptr.is_dram()) {
      CacheEntry* entry = ptr.dram<CacheEntry>();
      head.offset = entry->pmem_offset;
      head.version = entry->pmem_version;
      if (sh.lru.Contains(entry)) {
        sh.lru.Remove(entry);
      } else {
        // First-touch entry no maintenance chunk ever linked.
        OE_CHECK(sh.fresh_entries > 0);
        --sh.fresh_entries;
      }
      // Dirty DRAM state is dropped outright: the key's live head was
      // either exported to the new owner (purge) or never client-visible
      // here (abort).
      if (entry->dirty) sh.dirty.Remove(entry);
      sh.cache_entries.erase(key);
    } else {
      head.offset = ptr.pmem_offset();
      head.version = EntryLayout::RecordVersion(pool_->Translate(head.offset));
      device_->ChargeRead(EntryLayout::kHeaderBytes);
    }
    OE_CHECK(sh.index.Erase(key));
    if (head.offset != kNullOffset) heads.push_back(head);
  }
  std::vector<uint64_t> to_free;
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    gc_.Drop(victims, heads, &to_free);
  }
  FreeRecords(to_free, "migrate-gc");
}

Status PipelinedStore::RemoveKeys(const std::vector<EntryId>& keys) {
  AllShardsWriteLock all(shards_);
  DropKeysLocked(std::unordered_set<EntryId>(keys.begin(), keys.end()));
  return Status::OK();
}

Status PipelinedStore::PurgeSlots(const std::vector<bool>& slots) {
  if (slots.size() != kNumRoutingSlots) {
    return Status::InvalidArgument(
        "slot bitmap must cover every routing slot");
  }
  AllShardsWriteLock all(shards_);
  std::unordered_set<EntryId> victims;
  for (auto& shard : shards_) {
    shard.index.ForEach([&](EntryId key, TaggedPtr) {
      if (slots[SlotOfKey(key)]) victims.insert(key);
    });
  }
  DropKeysLocked(victims);
  return Status::OK();
}

}  // namespace oe::storage
