#ifndef OE_COMMON_SYNC_H_
#define OE_COMMON_SYNC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
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
