#include "storage/record_gc.h"

#include "common/logging.h"

namespace oe::storage {

void RecordGc::Retire(const Record& record, uint64_t superseded_at,
                      uint64_t published, std::vector<uint64_t>* to_free) {
  if (superseded_at <= published && !Pinned(record.version, superseded_at)) {
    // No current or future checkpoint needs it (any future reader pins a
    // checkpoint >= published >= superseded_at), and no pinned reader can
    // reach it.
    to_free->push_back(record.offset);
    return;
  }
  Index(record);
  if (superseded_at > published) {
    deferred_[superseded_at].push_back(record);
  } else {
    parked_.push_back(ParkedRecord{record, superseded_at});
  }
}

void RecordGc::Publish(uint64_t cp, std::vector<uint64_t>* to_free) {
  const auto end = deferred_.upper_bound(cp);
  for (auto it = deferred_.begin(); it != end; ++it) {
    for (const Record& record : it->second) {
      Settle(record, it->first, to_free);
    }
  }
  deferred_.erase(deferred_.begin(), end);
}

void RecordGc::Pin(uint64_t cp) { ++pins_[cp]; }

void RecordGc::Unpin(uint64_t cp, std::vector<uint64_t>* to_free) {
  auto it = pins_.find(cp);
  OE_CHECK(it != pins_.end());
  if (--it->second > 0) return;
  pins_.erase(it);
  size_t kept = 0;
  for (const ParkedRecord& p : parked_) {
    if (Pinned(p.record.version, p.superseded_at)) {
      parked_[kept++] = p;
    } else {
      Unindex(p.record);
      to_free->push_back(p.record.offset);
    }
  }
  parked_.resize(kept);
}

uint64_t RecordGc::RecordAt(EntryId key, uint64_t cp) const {
  auto it = index_.find(key);
  if (it == index_.end()) return kNullOffset;
  const Record* best = nullptr;
  for (const Record& r : it->second) {
    if (r.version <= cp && (best == nullptr || r.version > best->version)) {
      best = &r;
    }
  }
  return best == nullptr ? kNullOffset : best->offset;
}

size_t RecordGc::Records() const {
  size_t total = 0;
  for (const auto& [key, records] : index_) total += records.size();
  return total;
}

void RecordGc::Clear() {
  index_.clear();
  deferred_.clear();
  parked_.clear();
}

bool RecordGc::Pinned(uint64_t version, uint64_t superseded_at) const {
  auto it = pins_.lower_bound(version);
  return it != pins_.end() && it->first < superseded_at;
}

void RecordGc::Settle(const Record& record, uint64_t superseded_at,
                      std::vector<uint64_t>* to_free) {
  if (Pinned(record.version, superseded_at)) {
    parked_.push_back(ParkedRecord{record, superseded_at});
  } else {
    Unindex(record);
    to_free->push_back(record.offset);
  }
}

void RecordGc::Index(const Record& record) {
  index_[record.key].push_back(record);
}

void RecordGc::Unindex(const Record& record) {
  auto it = index_.find(record.key);
  if (it == index_.end()) return;
  auto& records = it->second;
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].offset == record.offset) {
      records[i] = records.back();
      records.pop_back();
      break;
    }
  }
  if (records.empty()) index_.erase(it);
}

}  // namespace oe::storage
