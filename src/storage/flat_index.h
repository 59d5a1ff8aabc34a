#ifndef OE_STORAGE_FLAT_INDEX_H_
#define OE_STORAGE_FLAT_INDEX_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cache/tagged_ptr.h"
#include "storage/embedding_store.h"

namespace oe::storage {

/// Per-shard key -> TaggedPtr index of the pipelined store: an F14-style
/// open-addressing flat table in DRAM (DESIGN.md §5d). Never persisted:
/// recovery rebuilds it from the slab record scan.
///
/// Lock contract (enforced by the caller, PipelinedStore, which guards each
/// index with its shard RW lock):
///   - Find / FindBatch / Size / ForEach require at least the shard *read*
///     lock.
///   - Upsert / Insert / Erase / Clear / Reserve need the shard *write* lock.
/// Returned slot pointers stay valid until the next mutation of the same
/// index — mutations need the write lock, which excludes every
/// reader still holding a slot pointer. The slots themselves are atomics:
/// the push path stores through a slot while concurrent readers (shared
/// lock only) load it, and that 8-byte exchange must be tear-free.
///
/// Layout: the table is an array of 16-slot *chunks*. A parallel tag array
/// keeps one byte per slot — 0 = empty, 1 = tombstone, 0x80 | fp7 for an
/// occupied slot, where fp7 is 7 hash bits not used for chunk selection.
/// A probe SWAR-scans a chunk's 16 tag bytes (two u64 words) for the
/// fingerprint and only touches the 16-byte Slot {key, value} on a tag
/// match, so misses cost two word compares instead of a bucket walk, and
/// hits average ~1 key compare. Probing is linear over chunks and stops at
/// the first chunk containing an empty tag (tombstones keep probes going).
///
/// Growth: doubles when occupied + tombstones reach 7/8 of capacity
/// (rehash drops tombstones). Growth invalidates slot pointers, which is
/// why the contract ties slot lifetime to the caller's write lock.
class FlatIndex {
 public:
  FlatIndex();

  /// Slot holding `key`, or nullptr if absent.
  cache::AtomicTaggedPtr* Find(EntryId key);
  const cache::AtomicTaggedPtr* Find(EntryId key) const;

  /// Batched Find: out[i] = Find(keys[i]) for i < n. The store's pull/push
  /// loops are batched per shard, so the probe is software-pipelined: hash
  /// and prefetch a stride of home lines ahead of the tag scans, which in
  /// turn run ahead of the key compares. The probe address is computable
  /// from the hash alone, before any memory is touched, so the dependent
  /// loads of successive keys overlap instead of serializing.
  void FindBatch(const EntryId* keys, size_t n, cache::AtomicTaggedPtr** out);

  /// Inserts or updates `key` and returns its slot (never null: the table
  /// grows instead of filling up).
  cache::AtomicTaggedPtr* Upsert(EntryId key, cache::TaggedPtr value) {
    auto [slot, inserted] = Insert(key, value);
    if (!inserted) slot->store(value);
    return slot;
  }

  /// Inserts `key` only if absent: returns its slot and whether it was
  /// inserted. A present key keeps its value.
  std::pair<cache::AtomicTaggedPtr*, bool> Insert(EntryId key,
                                                  cache::TaggedPtr value);

  /// Removes `key`; false if absent.
  bool Erase(EntryId key);

  /// Drops every entry (capacity is kept).
  void Clear();

  /// Grows so `n` entries fit without a rehash (recovery's bulk rebuild).
  void Reserve(size_t n);

  /// Live entry count.
  size_t Size() const { return size_; }

  /// Cold scan over every (key, value). No concurrent mutator allowed (the
  /// store only scans under all-shard locks).
  void ForEach(const std::function<void(EntryId, cache::TaggedPtr)>& fn) const;

 private:
  struct Slot {
    EntryId key = 0;
    cache::AtomicTaggedPtr value;
  };
  static constexpr size_t kChunkSlots = 16;
  static constexpr size_t kInitialSlots = 64;
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kTombstone = 1;

  /// Index of the slot `key` occupies, or SIZE_MAX.
  size_t FindSlot(EntryId key) const;
  /// Rehashes into `new_slots` capacity (power of two, >= kInitialSlots).
  void Rehash(size_t new_slots);

  std::vector<uint8_t> tags_;  // capacity_ bytes, chunk-contiguous
  std::vector<Slot> slots_;    // parallel to tags_
  size_t capacity_ = 0;        // slots; power of two, multiple of 16
  size_t size_ = 0;            // occupied
  size_t used_ = 0;            // occupied + tombstones (load-factor gate)
};

}  // namespace oe::storage

#endif  // OE_STORAGE_FLAT_INDEX_H_
