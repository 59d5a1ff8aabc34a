#ifndef OE_STORAGE_ENTRY_LAYOUT_H_
#define OE_STORAGE_ENTRY_LAYOUT_H_

#include <cstdint>
#include <cstring>

namespace oe::storage {

/// Embedding entry identifier (the paper's `id`). Sharding and index
/// placement hash this value.
using EntryId = uint64_t;

inline constexpr uint64_t kNullOffset = ~0ULL;

/// Persistent embedding record layout, shared by every storage engine:
///
///   [ key : u64 | version : u64 | weights : f32[dim] | opt : f32[dim*slots] ]
///
/// `version` is the id of the training batch whose update the weights
/// reflect (Algorithms 1 & 2). Optimizer state (AdaGrad accumulators, Adam
/// moments) is checkpointed with the weights so recovery resumes training
/// exactly.
class EntryLayout {
 public:
  EntryLayout() = default;
  EntryLayout(uint32_t dim, uint32_t optimizer_slots)
      : dim_(dim), slots_(optimizer_slots) {}

  uint32_t dim() const { return dim_; }
  uint32_t optimizer_slots() const { return slots_; }

  /// Floats per entry (weights + optimizer state).
  uint32_t values_per_entry() const { return dim_ * (1 + slots_); }

  /// Bytes of the weights + optimizer state payload.
  uint64_t data_bytes() const {
    return static_cast<uint64_t>(values_per_entry()) * sizeof(float);
  }

  /// Bytes of a full persistent record (header + data).
  uint64_t record_bytes() const { return kHeaderBytes + data_bytes(); }

  static constexpr uint64_t kHeaderBytes = 16;

  // --- Accessors over a raw record pointer ---
  static EntryId RecordKey(const uint8_t* record) {
    EntryId k;
    std::memcpy(&k, record, sizeof(k));
    return k;
  }
  static uint64_t RecordVersion(const uint8_t* record) {
    uint64_t v;
    std::memcpy(&v, record + 8, sizeof(v));
    return v;
  }
  static void SetRecordHeader(uint8_t* record, EntryId key, uint64_t version) {
    std::memcpy(record, &key, sizeof(key));
    std::memcpy(record + 8, &version, sizeof(version));
  }
  static void SetRecordVersion(uint8_t* record, uint64_t version) {
    std::memcpy(record + 8, &version, sizeof(version));
  }
  static float* RecordData(uint8_t* record) {
    return reinterpret_cast<float*>(record + kHeaderBytes);
  }
  static const float* RecordData(const uint8_t* record) {
    return reinterpret_cast<const float*>(record + kHeaderBytes);
  }

 private:
  uint32_t dim_ = 0;
  uint32_t slots_ = 0;
};

}  // namespace oe::storage

#endif  // OE_STORAGE_ENTRY_LAYOUT_H_
