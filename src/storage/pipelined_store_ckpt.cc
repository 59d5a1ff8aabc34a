// PipelinedStore's checkpoints: requests, the dirty-list write-back that
// maintainers run after a later batch's chunks (and DrainCheckpoints runs
// on demand), the per-shard acknowledgements and the cross-shard publish.
// See DESIGN.md §8a "Cross-shard checkpoint-publish barrier".

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "storage/pipelined_store.h"

namespace oe::storage {

namespace {

// A maintainer's write-back pass holds a shard's write lock for at most
// kWriteBackSlice flushes at a time (frees take none), and gives way to a
// sealed chunk between slices. It does at most kWriteBackOps flushes and
// frees, plus a quarter of the frees carried over from earlier passes, so
// a checkpoint's write-back spreads over the compute windows of the next
// few batches instead of running into their Push, while the carried frees
// cannot pile up for the drain. DESIGN.md §8a has the measurements.
constexpr size_t kWriteBackSlice = 32;
constexpr size_t kWriteBackOps = 384;

}  // namespace

bool PipelinedStore::WriteBackWork::empty() const {
  return frees.empty() && std::all_of(owed.begin(), owed.end(),
                                      [](uint64_t cp) { return cp == 0; });
}

PipelinedStore::WriteBackWork PipelinedStore::TakeWriteBackLocked() {
  WriteBackWork work;
  work.owed.assign(shards_.size(), 0);
  std::swap(work, writeback_);
  return work;
}

void PipelinedStore::ReturnWriteBackLocked(WriteBackWork* work) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    writeback_.owed[s] = std::max(writeback_.owed[s], work->owed[s]);
  }
  writeback_.frees.insert(writeback_.frees.end(), work->frees.begin(),
                          work->frees.end());
}

Status PipelinedStore::WriteBack(WriteBackWork* work, bool background) {
  // In the background the work goes in budgeted slices, and the pass
  // stops before a slice once a sealed chunk waits; the next completion
  // that leaves no chunk outstanding claims what is left.
  const size_t slice =
      background ? kWriteBackSlice : std::numeric_limits<size_t>::max();
  size_t budget = background ? kWriteBackOps + work->frees.size() / 4
                             : std::numeric_limits<size_t>::max();
  auto may_run = [&] {
    return budget > 0 && (!background || !ChunkWaiting());
  };
  for (size_t s = 0; s < work->owed.size(); ++s) {
    const uint64_t cp = work->owed[s];
    if (cp == 0) continue;
    for (bool clean = false; !clean;) {
      if (cp <= published_ckpt_.load(std::memory_order_acquire)) break;
      if (!may_run()) return Status::OK();
      obs::ScopedSpan span("store", "writeback");
      Shard& sh = shards_[s];
      std::unique_lock guard(sh.lock);
      clean = true;
      size_t n = std::min(slice, budget);
      for (CacheEntry* entry = sh.dirty.Tail(); entry != nullptr;) {
        CacheEntry* next = sh.dirty.MoreRecent(entry);  // flushing unlinks
        if (entry->version <= cp) {
          if (n == 0) {
            clean = false;
            break;
          }
          OE_RETURN_IF_ERROR(FlushEntryLocked(sh, entry));
          --n;
          --budget;
        }
        entry = next;
      }
    }
    // The shard holds no dirty state <= cp, and no later push can create
    // one, so it acknowledges outside its lock; the records a publication
    // releases join the work's frees.
    AckAndPublish([&] { shard_acked_[s] = std::max(shard_acked_[s], cp); },
                  &work->frees);
    work->owed[s] = 0;
  }
  while (!work->frees.empty()) {
    if (!may_run()) return Status::OK();
    const size_t n = std::min({slice, budget, work->frees.size()});
    budget -= n;
    const std::vector<uint64_t> batch(work->frees.end() - n,
                                      work->frees.end());
    work->frees.resize(work->frees.size() - n);
    FreeRecords(batch, "ckpt-gc");
  }
  return Status::OK();
}

bool PipelinedStore::ChunkWaiting() const {
  std::lock_guard<std::mutex> lock(maint_mutex_);
  return processed_chunks_ != appended_chunks_;
}

void PipelinedStore::WaitIdle() {
  // A pass is claimed in the critical section that completes the last
  // chunk, so none can start unseen once this predicate holds.
  std::unique_lock<std::mutex> lock(maint_mutex_);
  maint_cv_.wait(lock, [&] {
    return processed_chunks_ == appended_chunks_ && writebacks_running_ == 0;
  });
}

uint64_t PipelinedStore::NewestCheckpoint() const {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  return pending_ckpts_.empty()
             ? published_ckpt_.load(std::memory_order_acquire)
             : pending_ckpts_.back();
}

uint64_t PipelinedStore::NewestPending(uint64_t bound) const {
  std::lock_guard<std::mutex> lock(ckpt_mutex_);
  for (auto it = pending_ckpts_.rbegin(); it != pending_ckpts_.rend(); ++it) {
    if (*it < bound) return *it;
  }
  return 0;
}

template <typename Fn>
void PipelinedStore::AckAndPublish(Fn&& ack, std::vector<uint64_t>* to_free) {
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    if (pending_ckpts_.empty()) return;
    ack();
    // Publish every pending checkpoint all shards have acknowledged, in
    // order, with one failure-atomic root store each.
    while (!pending_ckpts_.empty()) {
      const uint64_t cp = pending_ckpts_.front();
      if (*std::min_element(shard_acked_.begin(), shard_acked_.end()) < cp) {
        break;
      }
      AdoptCheckpointLocked(cp, "ckpt-publish");
      pending_ckpts_.pop_front();
      // Records superseded by versions <= cp are now unreachable by any
      // current or future checkpoint: recycle their space — unless a
      // snapshot reader is pinned to a checkpoint that still reaches them,
      // in which case the GC parks them until it releases. Publication
      // itself is never delayed by readers.
      gc_.Publish(cp, to_free);
      stats_.checkpoints_published.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void PipelinedStore::AdoptCheckpointLocked(uint64_t cp, const char* site) {
  // One failure-atomic 8-byte PMem store publishes the checkpoint
  // (Algorithm 2: PMem.atomicUpdateCheckpointId).
  {
    obs::ScopedSpan span("store", "ckpt_publish");
    pmem::PersistSiteGuard guard(site);
    pool_->RootSet(kRootCheckpointId, cp);
  }
  published_ckpt_.store(cp, std::memory_order_release);
  for (uint64_t& acked : shard_acked_) acked = std::max(acked, cp);
}

void PipelinedStore::AckCheckpointsLocked(size_t shard) {
  const Shard& sh = shards_[shard];
  std::vector<uint64_t> to_free;
  AckAndPublish([&] {
    // Algorithm 2 lines 23-28, per shard: LRU order equals version order,
    // so the tail carries the minimum version in this shard's cache; once
    // it exceeds a checkpoint's batch id every state that checkpoint needs
    // from this shard is durable in PMem. First-touch entries not yet
    // linked into the LRU are invisible to the tail test and block the ack
    // outright — their batch's maintenance chunk links (and, if gated,
    // flushes) them.
    const CacheEntry* tail = sh.lru.Tail();
    for (const uint64_t cp : pending_ckpts_) {
      if (cp <= shard_acked_[shard]) continue;
      if (sh.fresh_entries > 0 || (tail != nullptr && tail->version <= cp)) {
        break;
      }
      shard_acked_[shard] = cp;
    }
  }, &to_free);
  FreeRecords(to_free, "ckpt-gc");
}

void PipelinedStore::MarkDirty(Shard& sh, CacheEntry* entry) {
  if (entry->dirty) return;
  std::lock_guard<SpinLock> lock(sh.dirty_lock);
  sh.dirty.PushFront(entry);
  entry->dirty = true;
}

Status PipelinedStore::RequestCheckpoint(uint64_t batch) {
  {
    // A checkpoint captures "state as of the end of `batch`". Once a later
    // batch has started training (its pull phase sealed), that state may
    // already be overwritten in place — accepting the request would publish
    // an inconsistent snapshot, so it is rejected.
    std::lock_guard<std::mutex> maint_lock(maint_mutex_);
    if (batch < sealed_batch_) {
      return Status::FailedPrecondition(
          "checkpoint batch already surpassed by training");
    }
  }
  {
    std::lock_guard<std::mutex> lock(ckpt_mutex_);
    if (batch <= published_ckpt_.load(std::memory_order_acquire)) {
      return Status::InvalidArgument("checkpoint batch not increasing");
    }
    if (!pending_ckpts_.empty() && batch <= pending_ckpts_.back()) {
      return Status::InvalidArgument("checkpoint batch not increasing");
    }
    pending_ckpts_.push_back(batch);
  }
  // Ack sweep: shards that are already durable for `batch` — empty, or
  // caching only newer state — acknowledge right away, so shards the
  // workload never touches again cannot stall the publish barrier. The
  // sweep moves no data (acks are pure metadata); the other shards
  // acknowledge in the write-back pass after their next later batch's
  // chunk. Without a cache every update is already durable in PMem, so
  // each shard acknowledges now and the last one publishes.
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::unique_lock guard(shards_[s].lock, std::defer_lock);
    if (!config_.cache_enabled) {
      guard.lock();
    } else if (!guard.try_lock()) {
      continue;
    }
    AckCheckpointsLocked(s);
  }
  return Status::OK();
}

Status PipelinedStore::DrainCheckpoints() {
  WaitIdle();  // every chunk and write-back pass so far
  // Writing back the newest pending checkpoint covers the older ones; the
  // last shard's ack publishes them all, in order. The drain also finishes
  // what earlier passes left.
  const uint64_t cp = NewestPending();
  WriteBackWork work;
  {
    std::lock_guard<std::mutex> lock(maint_mutex_);
    work = TakeWriteBackLocked();
  }
  for (uint64_t& owed : work.owed) owed = std::max(owed, cp);
  Status status = WriteBack(&work, /*background=*/false);
  std::lock_guard<std::mutex> lock(maint_mutex_);
  ReturnWriteBackLocked(&work);
  return status;
}

uint64_t PipelinedStore::PublishedCheckpoint() const {
  return published_ckpt_.load(std::memory_order_acquire);
}

}  // namespace oe::storage
