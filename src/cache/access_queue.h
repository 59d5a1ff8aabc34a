#ifndef OE_CACHE_ACCESS_QUEUE_H_
#define OE_CACHE_ACCESS_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace oe::cache {

/// The paper's Access Queue (Fig. 5), shard-aware for the lock-striped
/// pipelined store: pull handlers stage the entries accessed in a batch,
/// the seal appends them as one chunk per shard, and cache maintainer
/// threads pop them later, overlapped with GPU compute.
///
/// Chunks are queued per shard, and Pop hands out the oldest chunk of any
/// shard that is not currently being processed. Maintainer threads drain
/// *different* shards concurrently while each shard's chunks stay strictly
/// FIFO (the per-shard in-order requirement of Algorithm 2 — batch b's
/// maintenance must observe batch b-1's LRU/flush state).
///
/// Consumers must call Done(shard) after finishing a chunk; until then that
/// shard is excluded from Pop so no two maintainers contend on one shard's
/// write lock.
template <typename Item>
class ShardedAccessQueue {
 public:
  explicit ShardedAccessQueue(size_t shards) : shards_(shards) {}

  /// Appends one sealed batch: `chunks[s]` holds shard s's accesses (one
  /// entry per shard; empty ones are skipped). Every chunk of the seal is
  /// queued under one lock and waiters are woken once, so a consumer never
  /// observes a partly queued seal — with a single maintainer the pop
  /// order is then a function of the seals alone.
  void Append(uint64_t batch, std::vector<std::vector<Item>> chunks) {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t appended = 0;
    for (size_t s = 0; s < chunks.size(); ++s) {
      if (chunks[s].empty()) continue;
      shards_[s].chunks.push_back(Chunk{batch, std::move(chunks[s])});
      ++appended;
    }
    if (appended == 0) return;
    queued_ += appended;
    cv_.notify_all();
  }

  /// Pops the oldest chunk of an idle shard, marking the shard busy; blocks
  /// until one is eligible or the queue is closed and fully drained. The
  /// round-robin cursor keeps one hot shard from starving the others.
  bool Pop(size_t* shard, uint64_t* batch, std::vector<Item>* items) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      for (size_t i = 0; i < shards_.size(); ++i) {
        const size_t s = (cursor_ + i) % shards_.size();
        PerShard& q = shards_[s];
        if (q.busy || q.chunks.empty()) continue;
        cursor_ = (s + 1) % shards_.size();
        q.busy = true;
        *shard = s;
        *batch = q.chunks.front().batch;
        *items = std::move(q.chunks.front().items);
        q.chunks.pop_front();
        --queued_;
        return true;
      }
      if (closed_ && queued_ == 0) return false;
      cv_.wait(lock);
    }
  }

  /// Releases the shard claimed by Pop, making its next chunk eligible.
  void Done(size_t shard) {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_[shard].busy = false;
    // Always wake waiters: even with no chunks left this may be the event a
    // closed-and-drained Pop is blocked on.
    cv_.notify_all();
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
  }

  /// Total queued chunks across shards (excluding ones being processed).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queued_;
  }

 private:
  struct Chunk {
    uint64_t batch;
    std::vector<Item> items;
  };
  struct PerShard {
    std::deque<Chunk> chunks;
    bool busy = false;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<PerShard> shards_;
  size_t cursor_ = 0;
  size_t queued_ = 0;
  bool closed_ = false;
};

}  // namespace oe::cache

#endif  // OE_CACHE_ACCESS_QUEUE_H_
