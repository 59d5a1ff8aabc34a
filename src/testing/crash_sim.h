#ifndef OE_TESTING_CRASH_SIM_H_
#define OE_TESTING_CRASH_SIM_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "pmem/device.h"
#include "storage/entry_layout.h"
#include "storage/pipelined_store.h"

namespace oe::testing {

/// Workload and device parameters for one crash-consistency campaign.
/// Every run (counting, per-crash-point, randomized) replays the same
/// deterministic training-with-checkpoints workload on a fresh device, so
/// persist-event ordinals line up exactly across runs.
struct CrashSimOptions {
  /// Engine config. maintainer_threads is forced to 1: with one maintainer
  /// and a single driver thread the persist sequence is a deterministic
  /// total order (the driver is blocked in WaitIdle whenever the
  /// maintainer persists), which crash-point enumeration requires.
  storage::StoreConfig store;

  /// Wait for the maintainer (chunks and write-back passes) between each
  /// batch's FinishPullPhase and Push. Off, a checkpoint write-back pass
  /// runs beside Push as it does in training: the persist order then
  /// varies run to run, so EnumerateAll's schedule-identity checks do not
  /// apply, but every per-run recovery invariant of RunPlan does.
  bool quiesce_before_push = true;

  uint64_t device_bytes = 4ULL << 20;
  pmem::CrashFidelity fidelity = pmem::CrashFidelity::kStrict;
  uint64_t crash_seed = 42;  // kAdversarial line-survival coin flips

  uint64_t batches = 9;
  uint64_t checkpoint_every = 3;  // RequestCheckpoint after these batches
  uint64_t num_keys = 32;         // key universe [1, num_keys]
  size_t keys_per_batch = 12;
  uint64_t workload_seed = 2026;
};

/// Outcome of one crash-point run: what fault fired, which checkpoint the
/// store recovered to, and the first invariant violation found ("" = all
/// of the paper's recovery invariants held).
struct CrashPointResult {
  pmem::FaultRecord fault;
  uint64_t published = 0;
  std::string violation;

  bool ok() const { return violation.empty(); }
};

/// Crash-consistency driver for PipelinedStore (the tentpole of the
/// fault-injection harness). Usage:
///
///   CrashSim sim(options);
///   OE_CHECK_OK(sim.CountEvents());            // fault-free reference run
///   std::vector<CrashPointResult> results;
///   OE_CHECK_OK(sim.EnumerateAll(&results));   // one run per persist event
///
/// Each crash-point run trains until the fault fires, lets the doomed
/// execution continue (its writes are suppressed by the device), simulates
/// the crash, recovers with RecoverFromCrash(), and verifies:
///   1. the recovered Checkpointed Batch ID is 0 or a requested checkpoint
///      batch, and never moves backwards as the crash point advances
///      (the cross-shard ack barrier never publishes early or un-publishes);
///   2. the recovered model state bit-exactly equals the fault-free run's
///      snapshot at that checkpoint (a batch-consistent prefix);
///   3. no committed PMem record with version > the recovered checkpoint
///      survives recovery;
///   4. the rebuilt DRAM index agrees with an independent full PMem rescan
///      (same key set, and per key the newest surviving record's data).
class CrashSim {
 public:
  explicit CrashSim(const CrashSimOptions& options);

  /// Fault-free reference run: counts the workload's persist events,
  /// records each event's site annotation, and snapshots the model at
  /// every checkpoint batch. Must be called before the methods below.
  Status CountEvents();

  uint64_t total_events() const { return total_events_; }
  const std::vector<std::string>& event_sites() const { return event_sites_; }
  const std::vector<uint64_t>& requested_checkpoints() const {
    return requested_;
  }

  /// One workload run under `plan`; returns the verification outcome.
  Result<CrashPointResult> RunPlan(const pmem::FaultPlan& plan);

  /// Re-runs the workload once per persist event with crash_at = that
  /// event; `results` gets one entry per event, in order.
  Status EnumerateAll(std::vector<CrashPointResult>* results);

  /// Runs `rounds` randomized schedules drawn from `seed`: each round
  /// crashes or tears (random prefix) at a random persist event. Failures
  /// must be reported together with `seed` for reproduction.
  Status RunRandomSchedule(uint64_t seed, int rounds,
                           std::vector<CrashPointResult>* results);

  /// Ordinal (1-based) of the `nth` persist event whose site path
  /// contains `site_substr`; 0 if there is no such event. Used to aim
  /// targeted faults (e.g. drop a checkpoint-GC free) after CountEvents().
  uint64_t FindEvent(const std::string& site_substr, int nth = 1) const;

 private:
  /// Runs the training workload against `store`, stopping as soon as the
  /// device reports a crash fault. In reference mode, also snapshots
  /// checkpoints into reference_ and checks the live publish invariant.
  Status RunWorkload(pmem::PmemDevice* device, storage::PipelinedStore* store,
                     bool reference_mode);

  /// Deterministic batch `b` of the workload (same across all runs).
  void GenBatch(uint64_t b, std::vector<storage::EntryId>* keys,
                std::vector<float>* grads) const;

  /// Post-recovery invariant checks; returns "" or the first violation.
  std::string Verify(storage::PipelinedStore* store) const;

  CrashSimOptions options_;
  storage::EntryLayout layout_;
  uint64_t total_events_ = 0;
  std::vector<std::string> event_sites_;  // [i] names relative event i + 1
  std::vector<uint64_t> requested_;       // checkpoint batches, ascending
  // Checkpoint batch -> key -> weights at the end of that batch. Entry 0
  // (implicit) is the empty model.
  std::map<uint64_t, std::map<storage::EntryId, std::vector<float>>>
      reference_;
};

}  // namespace oe::testing

#endif  // OE_TESTING_CRASH_SIM_H_
