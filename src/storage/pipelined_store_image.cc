// PipelinedStore's images of its PMem state: crash recovery (Section V-C)
// and the remote backup tier. Every function here runs under all shard
// write locks.

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "storage/pipelined_store.h"

namespace oe::storage {

using cache::TaggedPtr;

Result<std::unique_ptr<PipelinedStore>> PipelinedStore::Open(
    const StoreConfig& config, pmem::PmemDevice* device) {
  OE_ASSIGN_OR_RETURN(auto store, Make(config, device));
  // Validate the pool before starting threads, then let the standard
  // recovery path (scan + discard-newer-than-checkpoint + index rebuild)
  // adopt the existing contents.
  OE_ASSIGN_OR_RETURN(store->pool_, pmem::PmemPool::Open(device));
  // The slab scan never sees records under a retired tag, and cannot tell
  // a range a store handed off from one it owns: refuse the image
  // (untouched) rather than recover a wrong model from it.
  for (uint64_t tag :
       {kRetiredRecordTag, kRetiredIndexTag, kRetiredRouteTag}) {
    uint64_t extents = 0;
    store->pool_->ForEachAllocated(tag, [&](uint64_t, uint64_t) { ++extents; });
    if (extents != 0) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "0x%llX",
                    static_cast<unsigned long long>(tag));
      return Status::FailedPrecondition(
          "pool holds " + std::to_string(extents) + " extent(s) under retired "
          "tag " + hex + " (per-record pool allocation, PMem bucket index "
          "or live-migration slot ownership); this store reads "
          "slab-allocated records with one fixed owner");
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
  // The indexes are rebuilt from scratch over the reopened pool: the record
  // scan below is the authoritative state.
  OE_ASSIGN_OR_RETURN(const uint64_t cp, ResetLocked());
  RebuildIndexLocked(cp);
  return cp;
}

std::unordered_map<EntryId, RecordGc::Record>
PipelinedStore::ClassifyRecordsLocked(uint64_t cp,
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
    if (version > cp) {
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

void PipelinedStore::RebuildIndexLocked(uint64_t cp) {
  // Recovery per Section V-C: scan every entry record in PMem, discard
  // those newer than the Checkpointed Batch ID, keep the newest survivor
  // per key, and rebuild the DRAM hash indexes.
  std::vector<uint64_t> discard;
  const auto survivors = ClassifyRecordsLocked(cp, &discard);
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
  // The backup is exactly the record set recovery would restore: per key,
  // the newest record <= cp.
  ckpt::CheckpointLog::ChunkWriter writer(log, cp);
  for (const auto& [key, record] :
       ClassifyRecordsLocked(cp, /*discard=*/nullptr)) {
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
  RebuildIndexLocked(cp);
  return Status::OK();
}

}  // namespace oe::storage
