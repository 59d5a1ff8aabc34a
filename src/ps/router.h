#ifndef OE_PS_ROUTER_H_
#define OE_PS_ROUTER_H_

#include <cstdint>

#include "net/transport.h"
#include "storage/entry_layout.h"

namespace oe::ps {

/// Number of routing slots a key hashes into (see SlotOfKey).
inline constexpr uint32_t kNumRoutingSlots = 4096;

/// Routing slot of a key: a 64-bit finalizer of the id, modulo
/// kNumRoutingSlots.
inline constexpr uint32_t SlotOfKey(storage::EntryId key) {
  uint64_t x = key;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x % kNumRoutingSlots);
}

/// Key -> PS node placement: "OpenEmbedding identifies the correct PS node
/// by hashing the entry's id" (Section IV). Slot s lives on node
/// s % num_nodes for the cluster's whole life, so every key has one fixed
/// owner and clients and services compute it without coordination.
class Router {
 public:
  explicit Router(uint32_t num_nodes) : num_nodes_(num_nodes) {}

  net::NodeId NodeFor(storage::EntryId key) const {
    return SlotOfKey(key) % num_nodes_;
  }
  uint32_t num_nodes() const { return num_nodes_; }

 private:
  uint32_t num_nodes_;
};

}  // namespace oe::ps

#endif  // OE_PS_ROUTER_H_
