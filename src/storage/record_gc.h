#ifndef OE_STORAGE_RECORD_GC_H_
#define OE_STORAGE_RECORD_GC_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "storage/entry_layout.h"

namespace oe::storage {

/// Copy-on-write record lifetimes of the pipelined store (Algorithm 2: "the
/// space manager will recycle the space of these entries once the new
/// checkpoint is done"), plus the snapshot-read side index MultiGet needs.
///
/// A superseded PMem record is reachable by exactly the checkpoints in
/// [version, superseded_at): its own header version up to (excluding) the
/// version of the record that replaced it. Every retired record takes one
/// of three paths:
///   - deferred: some not-yet-published checkpoint may still need it
///     (superseded_at > published); it waits for the publish of
///     superseded_at;
///   - parked: only snapshot readers can still reach it, and a reader is
///     pinned at a checkpoint inside its range; it waits for those pins;
///   - freed: neither holds, so its offset goes straight to the caller.
/// Deferred and parked records are findable through RecordAt.
///
/// Parking bound: the records of one key form a chain whose ranges are
/// disjoint (each ends where its successor begins), so each pinned
/// checkpoint lies in at most one range per key. Hence at most one parked
/// record per key per distinct pinned checkpoint, however the readers'
/// pins overlap.
///
/// Not thread-safe: the owner serializes every call (PipelinedStore holds
/// its ckpt_mutex_), and frees the returned offsets after releasing it.
class RecordGc {
 public:
  struct Record {
    EntryId key;
    uint64_t offset;
    uint64_t version;  // the record's own header version
  };

  /// `record` was superseded by a record of version `superseded_at`.
  /// `published` is the current published checkpoint.
  /// Appends the offset to `to_free` when nothing can reach the record.
  void Retire(const Record& record, uint64_t superseded_at,
              uint64_t published, std::vector<uint64_t>* to_free);

  /// Checkpoint `cp` published: settles every record it superseded.
  void Publish(uint64_t cp, std::vector<uint64_t>* to_free);

  /// A snapshot reader pins checkpoint `cp` / releases it. The release
  /// frees every parked record no remaining pin can reach.
  void Pin(uint64_t cp);
  void Unpin(uint64_t cp, std::vector<uint64_t>* to_free);

  /// Offset of `key`'s newest deferred or parked record with version <=
  /// cp, or kNullOffset.
  uint64_t RecordAt(EntryId key, uint64_t cp) const;

  /// Deferred plus parked records (the snapshot side index's size).
  size_t Records() const;
  /// Parked records only.
  size_t Parked() const { return parked_.size(); }

  /// Forgets every record (recovery rebuilds the space from the record
  /// scan). Pins stay: in-flight readers still release them.
  void Clear();

 private:
  struct ParkedRecord {
    Record record;
    uint64_t superseded_at;
  };

  /// True if a pinned checkpoint lies in [version, superseded_at).
  bool Pinned(uint64_t version, uint64_t superseded_at) const;
  /// Parks an indexed record if a pin reaches it, else unindexes it and
  /// appends it to `to_free`.
  void Settle(const Record& record, uint64_t superseded_at,
              std::vector<uint64_t>* to_free);
  void Index(const Record& record);
  void Unindex(const Record& record);

  /// Per key, its deferred and parked records.
  std::unordered_map<EntryId, std::vector<Record>> index_;
  /// Deferred records keyed by superseded_at.
  std::map<uint64_t, std::vector<Record>> deferred_;
  std::vector<ParkedRecord> parked_;
  /// Readers per pinned checkpoint.
  std::map<uint64_t, size_t> pins_;
};

}  // namespace oe::storage

#endif  // OE_STORAGE_RECORD_GC_H_
