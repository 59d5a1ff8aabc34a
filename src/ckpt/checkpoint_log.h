#ifndef OE_CKPT_CHECKPOINT_LOG_H_
#define OE_CKPT_CHECKPOINT_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "pmem/device.h"
#include "storage/entry_layout.h"

namespace oe::ckpt {

/// Append-only checkpoint log on a persistent device (SSD or PMem).
///
/// This implements the *traditional* checkpoint backup model the paper
/// compares against: the training state lives in volatile DRAM and dirty
/// entries are copied out into this log at every checkpoint (incremental
/// checkpointing in the style of CheckFreq [11]). The log is the unit the
/// DRAM-PS and Ori-Cache baselines recover from — and the source of the
/// extra device writes that interfere with training (Fig. 12/13).
///
/// Layout:
///   [ magic : u64 | record_bytes : u64 | tail : u64 (failure-atomic) ]
///   [ chunk | chunk | ... ]                       (starting at kDataStart)
/// Chunk:
///   [ magic : u64 | batch : u64 | count : u64 | crc : u64 | records... ]
///
/// Commit protocol: records and chunk header are persisted first, then the
/// header `tail` advances with a failure-atomic 8-byte store — a torn
/// checkpoint is never observed by Replay().
class CheckpointLog {
 public:
  /// Formats a fresh log for records of `layout` size.
  static Result<std::unique_ptr<CheckpointLog>> Create(
      pmem::PmemDevice* device, const storage::EntryLayout& layout);

  /// Opens an existing log (after crash/restart), validating the header.
  static Result<std::unique_ptr<CheckpointLog>> Open(
      pmem::PmemDevice* device, const storage::EntryLayout& layout);

  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// Appends one checkpoint chunk for `batch`. `records` must hold
  /// `count * layout.record_bytes()` bytes of consecutive entry records.
  Status AppendChunk(uint64_t batch, const uint8_t* records, uint64_t count);

  /// Batch id of the newest committed chunk (0 if none).
  uint64_t LatestBatch() const;

  /// Invokes `fn(key, version, data)` for every record in every committed
  /// chunk with chunk batch <= max_batch, in append order (later chunks
  /// override earlier ones at the caller). `data` points at the weights +
  /// optimizer payload of the record.
  Status Replay(
      uint64_t max_batch,
      const std::function<void(storage::EntryId key, uint64_t version,
                               const float* data)>& fn) const;

  /// Bytes consumed by committed chunks.
  uint64_t UsedBytes() const;

  pmem::PmemDevice* device() { return device_; }

  /// Buffers consecutive entry records and appends them to a log in chunks
  /// of kChunkRecords, every chunk tagged with one batch id (backups).
  class ChunkWriter {
   public:
    static constexpr size_t kChunkRecords = 4096;

    ChunkWriter(CheckpointLog* log, uint64_t batch);

    /// Space for the next record (record_bytes, filled by the caller); a
    /// full buffer is appended to the log first.
    uint8_t* Next();

    /// False once an append failed; nothing is appended after that.
    bool ok() const { return status_.ok(); }

    /// Appends the buffered tail; returns the first append error, if any.
    Status Finish();

   private:
    void Flush();

    CheckpointLog* log_;
    const uint64_t batch_;
    const size_t record_bytes_;
    std::vector<uint8_t> buffer_;
    size_t buffered_ = 0;
    Status status_ = Status::OK();
  };

 private:
  static constexpr uint64_t kLogMagic = 0x4f45436b70744c67ULL;   // OECkptLg
  static constexpr uint64_t kChunkMagic = 0x4f45436b70744348ULL; // OECkptCH
  static constexpr uint64_t kTailOffset = 16;
  static constexpr uint64_t kDataStart = 64;
  static constexpr uint64_t kChunkHeaderBytes = 32;

  CheckpointLog(pmem::PmemDevice* device, const storage::EntryLayout& layout)
      : device_(device), layout_(layout) {}

  pmem::PmemDevice* device_;
  storage::EntryLayout layout_;
  mutable std::mutex mutex_;
};

}  // namespace oe::ckpt

#endif  // OE_CKPT_CHECKPOINT_LOG_H_
