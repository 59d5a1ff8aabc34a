#ifndef OE_CACHE_TAGGED_PTR_H_
#define OE_CACHE_TAGGED_PTR_H_

#include <atomic>
#include <cstdint>

#include "common/logging.h"

namespace oe::cache {

/// Discriminated pointer stored in the DRAM hash index, as in the paper
/// (Section V-A): "uses the lowest bit to indicate whether the target
/// embedding entry is in DRAM or PMem".
///
/// - DRAM: holds a CacheEntry* (alignment guarantees bit 0 == 0).
/// - PMem: holds a device offset shifted left by one, with bit 0 == 1.
class TaggedPtr {
 public:
  TaggedPtr() : bits_(0) {}

  template <typename T>
  static TaggedPtr FromDram(T* entry) {
    const uint64_t bits = reinterpret_cast<uint64_t>(entry);
    OE_DCHECK((bits & 1) == 0);
    return TaggedPtr(bits);
  }

  static TaggedPtr FromPmem(uint64_t pmem_offset) {
    OE_DCHECK(pmem_offset < (1ULL << 62));
    return TaggedPtr((pmem_offset << 1) | 1);
  }

  bool is_null() const { return bits_ == 0; }
  bool is_dram() const { return !is_null() && (bits_ & 1) == 0; }
  bool is_pmem() const { return (bits_ & 1) == 1; }

  template <typename T>
  T* dram() const {
    OE_DCHECK(is_dram());
    return reinterpret_cast<T*>(bits_);
  }

  uint64_t pmem_offset() const {
    OE_DCHECK(is_pmem());
    return bits_ >> 1;
  }

  friend bool operator==(const TaggedPtr& a, const TaggedPtr& b) {
    return a.bits_ == b.bits_;
  }

  /// Raw representation.
  uint64_t bits() const { return bits_; }

 private:
  friend class AtomicTaggedPtr;

  explicit TaggedPtr(uint64_t bits) : bits_(bits) {}

  uint64_t bits_;
};

/// An index slot holding a TaggedPtr as one lock-free 64-bit atomic. The
/// push path updates a slot while readers holding only the shared lock load
/// it concurrently; the atomic makes that 8-byte exchange tear-free. Copy
/// construction/assignment exist solely for container bookkeeping (rehash,
/// node moves), which the stores only perform under their exclusive lock.
class AtomicTaggedPtr {
 public:
  AtomicTaggedPtr() = default;
  AtomicTaggedPtr(TaggedPtr ptr) : bits_(ptr.bits_) {}  // NOLINT(runtime/explicit)

  AtomicTaggedPtr(const AtomicTaggedPtr& other)
      : bits_(other.bits_.load(std::memory_order_relaxed)) {}
  AtomicTaggedPtr& operator=(const AtomicTaggedPtr& other) {
    bits_.store(other.bits_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  AtomicTaggedPtr& operator=(TaggedPtr ptr) {
    store(ptr);
    return *this;
  }

  TaggedPtr load() const {
    return TaggedPtr(bits_.load(std::memory_order_acquire));
  }

  void store(TaggedPtr ptr) {
    bits_.store(ptr.bits_, std::memory_order_release);
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

}  // namespace oe::cache

#endif  // OE_CACHE_TAGGED_PTR_H_
