#ifndef OE_STORAGE_DRAM_STORE_H_
#define OE_STORAGE_DRAM_STORE_H_

#include <array>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ckpt/checkpoint_log.h"
#include "common/sync.h"
#include "storage/embedding_store.h"

namespace oe::storage {

/// "DRAM-PS": the classic pure-DRAM parameter server baseline (Table III).
/// All entries live in a DRAM hash map; durability comes only from
/// incremental checkpoints copied into a CheckpointLog on a persistent
/// device (SSD or PMem — Fig. 14 compares both). Checkpointing is
/// synchronous: the copy happens inside RequestCheckpoint() while training
/// is paused between batches.
class DramStore final : public EmbeddingStore {
 public:
  /// `log` may be null (training without checkpoints, Fig. 7 mode).
  static Result<std::unique_ptr<DramStore>> Create(const StoreConfig& config,
                                                   ckpt::CheckpointLog* log);

  Status Pull(const EntryId* keys, size_t n, uint64_t batch,
              float* out) override;
  Status Push(const EntryId* keys, size_t n, const float* grads,
              uint64_t batch) override;
  Status RequestCheckpoint(uint64_t batch) override;
  uint64_t PublishedCheckpoint() const override;
  Status RecoverFromCrash() override;
  size_t EntryCount() const override;
  Result<std::vector<float>> Peek(EntryId key) const override;

  const StoreStats& stats() const override { return stats_; }
  const StoreConfig& config() const override { return config_; }
  const pmem::DeviceStats& dram_stats() const override { return dram_stats_; }

 private:
  struct DramEntry {
    uint64_t version = 0;
    std::vector<float> data;  // weights + optimizer state
  };

  DramStore(const StoreConfig& config, ckpt::CheckpointLog* log);

  DramEntry* FindOrCreate(EntryId key, uint64_t batch);

  StoreConfig config_;
  EntryLayout layout_;
  ckpt::CheckpointLog* log_;  // not owned; may be null

  mutable std::shared_mutex lock_;
  std::unordered_map<EntryId, std::unique_ptr<DramEntry>> entries_;
  std::unordered_set<EntryId> dirty_;  // modified since last checkpoint

  static constexpr size_t kPushShards = 256;
  std::array<SpinLock, kPushShards> push_locks_;

  StoreStats stats_;
  mutable pmem::DeviceStats dram_stats_;
};

}  // namespace oe::storage

#endif  // OE_STORAGE_DRAM_STORE_H_
