#ifndef OE_PMEM_DEVICE_H_
#define OE_PMEM_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "pmem/fault_plan.h"

namespace oe::pmem {

/// The three device tiers the paper compares (Table I).
enum class DeviceKind : uint8_t { kDram = 0, kPmem = 1, kSsd = 2 };

std::string_view DeviceKindToString(DeviceKind kind);

/// Bandwidth/latency parameters for one device. Defaults reproduce the
/// paper's Table I measurements.
struct DeviceTimingSpec {
  double read_bandwidth_gbps = 0;   // GB/s
  double write_bandwidth_gbps = 0;  // GB/s
  Nanos read_latency_ns = 0;        // per-access latency
  Nanos write_latency_ns = 0;

  /// Time to read `bytes` in one access: latency + bytes/bandwidth.
  Nanos ReadCost(uint64_t bytes) const;
  /// Time to write `bytes` in one access.
  Nanos WriteCost(uint64_t bytes) const;
};

/// Table I device models.
DeviceTimingSpec DramTiming();
DeviceTimingSpec PmemTiming();
DeviceTimingSpec SsdTiming();
DeviceTimingSpec TimingFor(DeviceKind kind);

/// Byte/op counters charged by storage engines; the simulation cost model
/// converts these into time. All counters are thread-safe.
struct DeviceStats {
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> read_ops{0};
  std::atomic<uint64_t> write_ops{0};
  std::atomic<uint64_t> persist_ops{0};

  void AddRead(uint64_t bytes) {
    read_bytes.fetch_add(bytes, std::memory_order_relaxed);
    read_ops.fetch_add(1, std::memory_order_relaxed);
  }
  void AddWrite(uint64_t bytes) {
    write_bytes.fetch_add(bytes, std::memory_order_relaxed);
    write_ops.fetch_add(1, std::memory_order_relaxed);
  }
  /// Batched accounting: charges `ops` reads totaling `bytes` with two
  /// atomic adds instead of 2 * ops. Scan paths (pool/slab recovery, the
  /// ForEachAllocated heap walk) batch their per-header charges through
  /// this; the resulting totals are identical to per-call AddRead().
  void AddReadBatch(uint64_t ops, uint64_t bytes) {
    if (ops == 0) return;
    read_bytes.fetch_add(bytes, std::memory_order_relaxed);
    read_ops.fetch_add(ops, std::memory_order_relaxed);
  }
  /// The write twin of AddReadBatch.
  void AddWriteBatch(uint64_t ops, uint64_t bytes) {
    if (ops == 0) return;
    write_bytes.fetch_add(bytes, std::memory_order_relaxed);
    write_ops.fetch_add(ops, std::memory_order_relaxed);
  }
  void AddPersist() { persist_ops.fetch_add(1, std::memory_order_relaxed); }

  void Reset() {
    read_bytes.store(0, std::memory_order_relaxed);
    write_bytes.store(0, std::memory_order_relaxed);
    read_ops.store(0, std::memory_order_relaxed);
    write_ops.store(0, std::memory_order_relaxed);
    persist_ops.store(0, std::memory_order_relaxed);
  }

  /// Point-in-time copy (plain integers) for cost-model arithmetic.
  struct Snapshot {
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t read_ops = 0;
    uint64_t write_ops = 0;
    uint64_t persist_ops = 0;

    Snapshot operator-(const Snapshot& rhs) const {
      return {read_bytes - rhs.read_bytes, write_bytes - rhs.write_bytes,
              read_ops - rhs.read_ops, write_ops - rhs.write_ops,
              persist_ops - rhs.persist_ops};
    }
  };
  Snapshot TakeSnapshot() const {
    return {read_bytes.load(std::memory_order_relaxed),
            write_bytes.load(std::memory_order_relaxed),
            read_ops.load(std::memory_order_relaxed),
            write_ops.load(std::memory_order_relaxed),
            persist_ops.load(std::memory_order_relaxed)};
  }
};

/// How crashes are simulated.
enum class CrashFidelity : uint8_t {
  /// No shadow image; Persist() only accounts. SimulateCrash() keeps all
  /// data (pretends everything reached the media). Fast; used by benches.
  kNone = 0,
  /// Shadow persistent image at cache-line granularity: only data covered
  /// by a completed Persist()/Flush()+Drain() survives a crash.
  kStrict = 1,
  /// Like kStrict, but at crash time each *unpersisted* dirty line
  /// independently survives with probability 1/2 (seeded) — modeling cache
  /// lines that happened to be evicted to media before the failure. This is
  /// the adversarial mode recovery tests must pass.
  kAdversarial = 2,
};

struct PmemDeviceOptions {
  uint64_t size_bytes = 64ULL << 20;
  DeviceKind kind = DeviceKind::kPmem;
  CrashFidelity crash_fidelity = CrashFidelity::kStrict;
  /// When non-empty, the working image is backed by this file (mmap), so
  /// contents survive process restarts like a real PMem DAX mount.
  std::string backing_file;
  /// Seed for kAdversarial line-survival coin flips.
  uint64_t crash_seed = 42;
};

/// A simulated byte-addressable persistent memory device.
///
/// The device exposes a raw base pointer for byte-addressable *reads*
/// (charged via ChargeRead). All *writes* must go through Write()/Memset()
/// so dirty-line tracking and accounting see them; writing through the raw
/// pointer and then calling Persist() is also legal (Persist marks the range
/// dirty first), matching how PMDK code stores-then-flushes.
///
/// Persistence model (mirrors clwb/sfence):
///   Write()   -> data lands in the "CPU cache" (working image), line dirty
///   Flush()   -> lines queued for write-back
///   Drain()   -> queued lines become persistent (copied to shadow image)
///   Persist() -> Flush() + Drain() of a range
///   SimulateCrash() -> working image reset to what is persistent
class PmemDevice {
 public:
  static constexpr uint64_t kLineSize = 64;

  static Result<std::unique_ptr<PmemDevice>> Create(
      const PmemDeviceOptions& options);
  ~PmemDevice();

  PmemDevice(const PmemDevice&) = delete;
  PmemDevice& operator=(const PmemDevice&) = delete;

  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }
  uint64_t size() const { return options_.size_bytes; }
  DeviceKind kind() const { return options_.kind; }
  const PmemDeviceOptions& options() const { return options_; }

  /// Copies `len` bytes into the device at `offset` and charges the write.
  /// Does NOT persist; call Persist() (or Flush+Drain) afterwards.
  void Write(uint64_t offset, const void* src, size_t len);

  /// memset() within the device, with accounting and dirty tracking.
  void Memset(uint64_t offset, int value, size_t len);

  /// Copies `len` bytes out of the device and charges the read.
  void Read(uint64_t offset, void* dst, size_t len) const;

  /// Accounting for reads done directly through base() pointers.
  void ChargeRead(uint64_t bytes) const { stats_.AddRead(bytes); }

  /// clwb-equivalent: queues the range's cache lines for write-back.
  void Flush(uint64_t offset, size_t len);
  /// sfence-equivalent: all queued lines become persistent.
  void Drain();
  /// Flush + Drain. The unit of durability in all OE algorithms.
  void Persist(uint64_t offset, size_t len);

  /// 8-byte aligned store + persist, failure-atomic (the primitive behind
  /// Algorithm 2's `PMem.atomicUpdateCheckpointId`).
  void AtomicStore64(uint64_t offset, uint64_t value);
  uint64_t AtomicLoad64(uint64_t offset) const;

  /// Discards all non-persistent data per the crash fidelity mode. After
  /// this, the working image equals the (possibly adversarially augmented)
  /// persistent image. No-op under CrashFidelity::kNone.
  void SimulateCrash();

  // --- Deterministic fault injection (see fault_plan.h) ---------------

  /// Arms `plan`; persist-event ordinals restart at 1 from this call.
  /// Replaces any previous plan and clears the crashed state and record.
  void InstallFaultPlan(const FaultPlan& plan);

  /// Disarms the plan and clears the crashed state so recovery code can
  /// write again. The fault record is preserved for inspection.
  void ClearFault();

  /// True once a crash/tear fault fired: all mutations are suppressed.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  /// Details of the fault that fired (triggered == false if none yet).
  FaultRecord fault_record() const;

  /// Total persist events (Persist() + Drain() calls) since creation.
  /// Events suppressed by the crashed state are not counted.
  uint64_t persist_events() const {
    return persist_events_.load(std::memory_order_acquire);
  }

  /// While enabled, records the PersistSiteGuard path of every persist
  /// event (one string per event, in order). InstallFaultPlan() clears the
  /// trace, so trace index i names relative event i + 1. CrashSim uses
  /// this to label crash points and target specific sites.
  void EnableEventTrace(bool on);
  std::vector<std::string> TakeEventTrace() const;

  /// True when every byte of [offset, offset+len) is persistent (test hook;
  /// only meaningful under kStrict/kAdversarial).
  bool IsPersisted(uint64_t offset, size_t len) const;

  DeviceStats& stats() const { return stats_; }
  const DeviceTimingSpec& timing() const { return timing_; }

  /// Simulated time to perform all I/O recorded in `snap` serially on this
  /// device.
  Nanos CostOf(const DeviceStats::Snapshot& snap) const;

 private:
  explicit PmemDevice(const PmemDeviceOptions& options);
  Status Init();

  void MarkDirty(uint64_t offset, size_t len);

  /// Fault to apply to the persist event covering [offset, offset+len).
  enum class FaultAction : uint8_t { kNone, kCrash, kTear, kDrop };

  /// Counts the persist event and checks the armed plan. Requires
  /// crash_mutex_. On kTear, *tear_lines is the number of leading lines
  /// that still persist.
  FaultAction OnPersistEvent(uint64_t offset, size_t len,
                             uint64_t* tear_lines);

  PmemDeviceOptions options_;
  DeviceTimingSpec timing_;
  uint8_t* base_ = nullptr;          // working image (mmap or malloc)
  int backing_fd_ = -1;
  bool mapped_ = false;
  std::vector<uint8_t> shadow_;      // persistent image (kStrict/kAdversarial)
  // Per-line state: 0 = clean (persistent), 1 = dirty, 2 = flush-queued.
  std::vector<std::atomic<uint8_t>> line_state_;
  std::vector<uint64_t> flush_queue_;  // lines awaiting Drain()
  mutable DeviceStats stats_;
  mutable std::mutex crash_mutex_;

  // Fault injection (plan/record guarded by crash_mutex_).
  std::atomic<uint64_t> persist_events_{0};
  std::atomic<bool> crashed_{false};
  // True while a plan is armed or tracing is on: lets kNone-fidelity
  // devices (no line tracking) skip crash_mutex_ on the persist hot path.
  std::atomic<bool> hooks_active_{false};
  FaultPlan plan_;
  bool plan_armed_ = false;
  uint64_t plan_base_ = 0;  // persist_events_ at InstallFaultPlan()
  FaultRecord record_;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
};

}  // namespace oe::pmem

#endif  // OE_PMEM_DEVICE_H_
