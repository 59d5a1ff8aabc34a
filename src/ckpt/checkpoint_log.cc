#include "ckpt/checkpoint_log.h"

#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "common/logging.h"

namespace oe::ckpt {

using storage::EntryLayout;

Result<std::unique_ptr<CheckpointLog>> CheckpointLog::Create(
    pmem::PmemDevice* device, const EntryLayout& layout) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  if (device->size() < kDataStart + layout.record_bytes()) {
    return Status::InvalidArgument("device too small for checkpoint log");
  }
  auto log = std::unique_ptr<CheckpointLog>(new CheckpointLog(device, layout));
  uint64_t header[2] = {kLogMagic, layout.record_bytes()};
  device->Write(0, header, sizeof(header));
  device->Persist(0, sizeof(header));
  device->AtomicStore64(kTailOffset, kDataStart);
  return log;
}

Result<std::unique_ptr<CheckpointLog>> CheckpointLog::Open(
    pmem::PmemDevice* device, const EntryLayout& layout) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  uint64_t header[2];
  device->Read(0, header, sizeof(header));
  if (header[0] != kLogMagic) {
    return Status::Corruption("checkpoint log magic mismatch");
  }
  if (header[1] != layout.record_bytes()) {
    return Status::Corruption("checkpoint log record size mismatch");
  }
  return std::unique_ptr<CheckpointLog>(new CheckpointLog(device, layout));
}

Status CheckpointLog::AppendChunk(uint64_t batch, const uint8_t* records,
                                  uint64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t payload_bytes = count * layout_.record_bytes();
  const uint64_t tail = device_->AtomicLoad64(kTailOffset);
  const uint64_t need = kChunkHeaderBytes + payload_bytes;
  if (tail + need > device_->size()) {
    return Status::OutOfSpace("checkpoint log full");
  }
  const uint64_t crc = MaskCrc(Crc32c(records, payload_bytes));
  uint64_t chunk_header[4] = {kChunkMagic, batch, count, crc};
  device_->Write(tail, chunk_header, sizeof(chunk_header));
  if (payload_bytes > 0) {
    device_->Write(tail + kChunkHeaderBytes, records, payload_bytes);
  }
  device_->Persist(tail, need);
  // Publish: failure-atomic tail advance.
  device_->AtomicStore64(kTailOffset, tail + need);
  return Status::OK();
}

uint64_t CheckpointLog::LatestBatch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t tail = device_->AtomicLoad64(kTailOffset);
  uint64_t pos = kDataStart;
  uint64_t latest = 0;
  while (pos + kChunkHeaderBytes <= tail) {
    uint64_t chunk_header[4];
    device_->Read(pos, chunk_header, sizeof(chunk_header));
    if (chunk_header[0] != kChunkMagic) break;
    latest = chunk_header[1];
    pos += kChunkHeaderBytes + chunk_header[2] * layout_.record_bytes();
  }
  return latest;
}

Status CheckpointLog::Replay(
    uint64_t max_batch,
    const std::function<void(storage::EntryId, uint64_t, const float*)>& fn)
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t tail = device_->AtomicLoad64(kTailOffset);
  const uint64_t record_bytes = layout_.record_bytes();
  std::vector<uint8_t> buffer(record_bytes);
  uint64_t pos = kDataStart;
  while (pos + kChunkHeaderBytes <= tail) {
    uint64_t chunk_header[4];
    device_->Read(pos, chunk_header, sizeof(chunk_header));
    if (chunk_header[0] != kChunkMagic) {
      return Status::Corruption("bad chunk magic during replay");
    }
    const uint64_t batch = chunk_header[1];
    const uint64_t count = chunk_header[2];
    const uint64_t payload_bytes = count * record_bytes;
    if (pos + kChunkHeaderBytes + payload_bytes > tail) {
      return Status::Corruption("chunk extends past committed tail");
    }
    if (batch <= max_batch) {
      const uint32_t crc = Crc32c(
          device_->base() + pos + kChunkHeaderBytes, payload_bytes);
      device_->ChargeRead(payload_bytes);
      if (MaskCrc(crc) != chunk_header[3]) {
        return Status::Corruption("chunk crc mismatch during replay");
      }
      for (uint64_t i = 0; i < count; ++i) {
        device_->Read(pos + kChunkHeaderBytes + i * record_bytes,
                      buffer.data(), record_bytes);
        fn(EntryLayout::RecordKey(buffer.data()),
           EntryLayout::RecordVersion(buffer.data()),
           EntryLayout::RecordData(buffer.data()));
      }
    }
    pos += kChunkHeaderBytes + payload_bytes;
  }
  return Status::OK();
}

uint64_t CheckpointLog::UsedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return device_->AtomicLoad64(kTailOffset) - kDataStart;
}

CheckpointLog::ChunkWriter::ChunkWriter(CheckpointLog* log, uint64_t batch)
    : log_(log),
      batch_(batch),
      record_bytes_(log->layout_.record_bytes()),
      buffer_(kChunkRecords * record_bytes_) {}

uint8_t* CheckpointLog::ChunkWriter::Next() {
  if (buffered_ == kChunkRecords) Flush();
  return buffer_.data() + buffered_++ * record_bytes_;
}

Status CheckpointLog::ChunkWriter::Finish() {
  Flush();
  return status_;
}

void CheckpointLog::ChunkWriter::Flush() {
  if (buffered_ > 0 && status_.ok()) {
    status_ = log_->AppendChunk(batch_, buffer_.data(), buffered_);
  }
  buffered_ = 0;
}

}  // namespace oe::ckpt
