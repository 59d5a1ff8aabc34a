#ifndef OE_COMMON_SYNC_H_
#define OE_COMMON_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <thread>

namespace oe {

/// Tiny test-and-test-and-set spinlock for very short critical sections
/// (hash-shard buckets). Yields after a bounded spin so a single-core host
/// does not livelock.
class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void lock() {
    int spins = 0;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      if (++spins > 64) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

  bool try_lock() { return !flag_.test_and_set(std::memory_order_acquire); }

  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// Reader-writer lock with instrumentation hooks: counts acquisitions so the
/// simulation cost model can charge contention (Section 2 of DESIGN.md).
/// Algorithms 1 & 2 of the paper take this lock in read mode on the pull
/// path and write mode during cache maintenance.
class InstrumentedRwLock {
 public:
  void AcquireRead() {
    mutex_.lock_shared();
    read_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  }
  void ReleaseRead() { mutex_.unlock_shared(); }

  void AcquireWrite() {
    mutex_.lock();
    write_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Non-blocking write acquisition, used by the sharded store's checkpoint
  /// ack sweep: idle shards can acknowledge a pending checkpoint without the
  /// requester stalling behind a busy shard's maintenance chunk.
  bool TryAcquireWrite() {
    if (!mutex_.try_lock()) return false;
    write_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void ReleaseWrite() { mutex_.unlock(); }

  uint64_t read_acquisitions() const {
    return read_acquisitions_.load(std::memory_order_relaxed);
  }
  uint64_t write_acquisitions() const {
    return write_acquisitions_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_mutex mutex_;
  std::atomic<uint64_t> read_acquisitions_{0};
  std::atomic<uint64_t> write_acquisitions_{0};
};

/// RAII read guard for InstrumentedRwLock.
class ReadGuard {
 public:
  explicit ReadGuard(InstrumentedRwLock& lock) : lock_(lock) {
    lock_.AcquireRead();
  }
  ~ReadGuard() { lock_.ReleaseRead(); }
  ReadGuard(const ReadGuard&) = delete;
  ReadGuard& operator=(const ReadGuard&) = delete;

 private:
  InstrumentedRwLock& lock_;
};

/// RAII write guard for InstrumentedRwLock.
class WriteGuard {
 public:
  explicit WriteGuard(InstrumentedRwLock& lock) : lock_(lock) {
    lock_.AcquireWrite();
  }
  ~WriteGuard() { lock_.ReleaseWrite(); }
  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;

 private:
  InstrumentedRwLock& lock_;
};

/// Reusable synchronization barrier for N participants (the synchronous
/// training allreduce point). Generation-counted so it can be reused across
/// batches.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties), waiting_(0) {}

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  /// Blocks until all parties arrive. Returns true for exactly one caller
  /// per generation (the "leader"), which may run a serial section.
  bool ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const uint64_t gen = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
      return true;
    }
    cv_.wait(lock, [&] { return generation_ != gen; });
    return false;
  }

 private:
  const int parties_;
  int waiting_;
  uint64_t generation_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace oe

#endif  // OE_COMMON_SYNC_H_
