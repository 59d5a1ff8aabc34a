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

std::vector<FlatIndex> PipelinedStore::ClassifyRecordsLocked(
    uint64_t cp, std::vector<uint64_t>* discard) const {
  // Each index is reserved for its shard's share of the committed records.
  std::vector<FlatIndex> index(shards_.size());
  const uint64_t records = slab_->AllocatedBytes() / layout_.record_bytes();
  for (FlatIndex& shard : index) shard.Reserve(records / index.size());
  uint64_t header_reads = 0;
  auto drop = [discard](uint64_t offset) {
    if (discard != nullptr) discard->push_back(offset);
  };
  ForEachEntryRecord([&](uint64_t offset, uint64_t size) {
    if (size != layout_.record_bytes()) {
      drop(offset);
      return;
    }
    const uint8_t* record = pool_->Translate(offset);
    ++header_reads;
    const EntryId key = EntryLayout::RecordKey(record);
    const uint64_t version = EntryLayout::RecordVersion(record);
    if (version > cp) {
      drop(offset);
      return;
    }
    auto [slot, inserted] =
        index[ShardOf(key)].Insert(key, TaggedPtr::FromPmem(offset));
    if (inserted) return;
    // A second record <= cp of one key: re-read the kept one's version.
    const uint64_t kept = slot->load().pmem_offset();
    ++header_reads;
    if (version > EntryLayout::RecordVersion(pool_->Translate(kept))) {
      drop(kept);
      slot->store(TaggedPtr::FromPmem(offset));
    } else {
      drop(offset);
    }
  });
  device_->stats().AddReadBatch(header_reads,
                                header_reads * EntryLayout::kHeaderBytes);
  return index;
}

void PipelinedStore::RebuildIndexLocked(uint64_t cp) {
  // Recovery per Section V-C: scan every entry record in PMem, discard
  // those newer than the Checkpointed Batch ID, keep the newest survivor
  // per key, and adopt the classification's indexes as the DRAM indexes.
  std::vector<uint64_t> discard;
  std::vector<FlatIndex> index = ClassifyRecordsLocked(cp, &discard);
  FreeRecords(discard, "recover-gc");
  uint64_t survivors = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    survivors += index[s].Size();
    shards_[s].index = std::move(index[s]);
  }
  dram_stats_.AddWriteBatch(survivors,
                            survivors * (sizeof(EntryId) + sizeof(TaggedPtr)));
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
  for (const FlatIndex& index :
       ClassifyRecordsLocked(cp, /*discard=*/nullptr)) {
    index.ForEach([&](EntryId, TaggedPtr record) {
      if (!writer.ok()) return;
      device_->Read(record.pmem_offset(), writer.Next(),
                    layout_.record_bytes());
    });
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
