#include "testing/crash_sim.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

#include "common/random.h"

namespace oe::testing {

using storage::EntryId;
using storage::EntryLayout;
using storage::PipelinedStore;

CrashSim::CrashSim(const CrashSimOptions& options)
    : options_(options),
      layout_(options.store.dim, options.store.optimizer.Slots()) {}

void CrashSim::GenBatch(uint64_t b, std::vector<EntryId>* keys,
                        std::vector<float>* grads) const {
  // Per-batch generator seeded from (workload_seed, b): every run replays
  // the identical access/gradient sequence, which keeps the persist-event
  // order aligned with the counting run.
  Random rng(options_.workload_seed ^ (b * 0x9E3779B97F4A7C15ULL));
  keys->clear();
  grads->clear();
  for (size_t i = 0; i < options_.keys_per_batch; ++i) {
    keys->push_back(1 + rng.Uniform(options_.num_keys));
    for (uint32_t d = 0; d < options_.store.dim; ++d) {
      grads->push_back(rng.UniformFloat(-0.25f, 0.25f));
    }
  }
}

Status CrashSim::RunWorkload(pmem::PmemDevice* device, PipelinedStore* store,
                             bool reference_mode) {
  std::vector<EntryId> keys;
  std::vector<float> grads;
  std::vector<float> buf(options_.keys_per_batch * options_.store.dim);
  std::set<EntryId> touched;
  for (uint64_t b = 1; b <= options_.batches; ++b) {
    GenBatch(b, &keys, &grads);
    Status s = store->Pull(keys.data(), keys.size(), b, buf.data());
    if (device->crashed()) return Status::OK();  // doomed execution: stop
    OE_RETURN_IF_ERROR(s);
    store->FinishPullPhase(b);
    // The checkpoint write-back pass this seal may start runs beside
    // Push; letting it finish first keeps the persist schedule a total
    // order (a trainer's compute window plays this part).
    if (options_.quiesce_before_push) store->WaitIdle();
    s = store->Push(keys.data(), keys.size(), grads.data(), b);
    if (device->crashed()) return Status::OK();
    OE_RETURN_IF_ERROR(s);
    if (reference_mode) {
      touched.insert(keys.begin(), keys.end());
      // Live barrier invariant: the Checkpointed Batch ID only ever takes
      // values that were explicitly requested (never a mid-batch id).
      const uint64_t p = store->PublishedCheckpoint();
      if (p != 0 && std::find(requested_.begin(), requested_.end(), p) ==
                        requested_.end()) {
        return Status::Internal("published unrequested checkpoint id " +
                                std::to_string(p));
      }
    }
    if (b % options_.checkpoint_every == 0) {
      if (reference_mode) {
        auto& snap = reference_[b];
        for (const EntryId k : touched) {
          OE_ASSIGN_OR_RETURN(std::vector<float> w, store->Peek(k));
          snap.emplace(k, std::move(w));
        }
        requested_.push_back(b);
      }
      s = store->RequestCheckpoint(b);
      if (device->crashed()) return Status::OK();
      OE_RETURN_IF_ERROR(s);
    }
  }
  Status s = store->DrainCheckpoints();
  if (device->crashed()) return Status::OK();
  return s;
}

Status CrashSim::CountEvents() {
  total_events_ = 0;
  event_sites_.clear();
  requested_.clear();
  reference_.clear();

  pmem::PmemDeviceOptions dopts;
  dopts.size_bytes = options_.device_bytes;
  dopts.crash_fidelity = options_.fidelity;
  dopts.crash_seed = options_.crash_seed;
  OE_ASSIGN_OR_RETURN(auto device, pmem::PmemDevice::Create(dopts));
  storage::StoreConfig cfg = options_.store;
  cfg.maintainer_threads = 1;
  OE_ASSIGN_OR_RETURN(auto store, PipelinedStore::Create(cfg, device.get()));

  // Ordinals are relative to here, so pool-format persists during Create
  // do not shift the workload's event numbering.
  device->EnableEventTrace(true);
  device->InstallFaultPlan(pmem::FaultPlan{});
  const uint64_t base = device->persist_events();
  OE_RETURN_IF_ERROR(RunWorkload(device.get(), store.get(), true));
  if (device->crashed()) {
    return Status::Internal("fault fired during the fault-free run");
  }
  total_events_ = device->persist_events() - base;
  event_sites_ = device->TakeEventTrace();
  if (event_sites_.size() != total_events_) {
    return Status::Internal("event trace does not match persist count");
  }
  if (requested_.empty()) {
    return Status::InvalidArgument(
        "workload requests no checkpoints (batches < checkpoint_every)");
  }
  if (store->PublishedCheckpoint() != requested_.back()) {
    return Status::Internal("DrainCheckpoints left checkpoints unpublished");
  }
  const std::string violation = Verify(store.get());
  if (!violation.empty()) {
    return Status::Internal("fault-free run fails verification: " + violation);
  }
  return Status::OK();
}

Result<CrashPointResult> CrashSim::RunPlan(const pmem::FaultPlan& plan) {
  pmem::PmemDeviceOptions dopts;
  dopts.size_bytes = options_.device_bytes;
  dopts.crash_fidelity = options_.fidelity;
  dopts.crash_seed = options_.crash_seed;
  OE_ASSIGN_OR_RETURN(auto device, pmem::PmemDevice::Create(dopts));
  storage::StoreConfig cfg = options_.store;
  cfg.maintainer_threads = 1;
  OE_ASSIGN_OR_RETURN(auto store, PipelinedStore::Create(cfg, device.get()));

  device->InstallFaultPlan(plan);
  OE_RETURN_IF_ERROR(RunWorkload(device.get(), store.get(), false));
  // Quiesce the maintainer (post-fault it still drains its queue; its
  // writes are suppressed) so no thread touches the device mid-crash.
  store->WaitIdle();
  device->SimulateCrash();
  device->ClearFault();

  CrashPointResult res;
  res.fault = device->fault_record();
  OE_RETURN_IF_ERROR(store->RecoverFromCrash());
  res.published = store->PublishedCheckpoint();
  res.violation = Verify(store.get());
  return res;
}

std::string CrashSim::Verify(PipelinedStore* store) const {
  const uint64_t p = store->PublishedCheckpoint();

  // The DRAM-visible checkpoint id must be exactly the persistent root.
  if (store->pool()->RootGet(PipelinedStore::kRootCheckpointId) != p) {
    return "published checkpoint diverges from the PMem root slot";
  }

  // 1. Batch-consistent prefix: p names a requested checkpoint (or none).
  static const std::map<EntryId, std::vector<float>> kEmptyModel;
  const std::map<EntryId, std::vector<float>>* ref = &kEmptyModel;
  if (p != 0) {
    auto it = reference_.find(p);
    if (it == reference_.end()) {
      return "recovered checkpoint " + std::to_string(p) +
             " was never requested";
    }
    ref = &it->second;
  }

  // 2. Recovered state equals the reference snapshot at p, bit-exactly.
  if (store->EntryCount() != ref->size()) {
    return "entry count " + std::to_string(store->EntryCount()) +
           " != checkpoint size " + std::to_string(ref->size());
  }
  const size_t weight_bytes = options_.store.dim * sizeof(float);
  for (const auto& [key, want] : *ref) {
    auto got = store->Peek(key);
    if (!got.ok()) {
      return "checkpointed key " + std::to_string(key) +
             " missing after recovery";
    }
    if (std::memcmp(got.value().data(), want.data(), weight_bytes) != 0) {
      return "key " + std::to_string(key) +
             " differs from the checkpoint snapshot";
    }
  }

  // 3 + 4. Independent PMem rescan: no surviving record newer than p, and
  // the rebuilt DRAM index agrees with the newest record per key.
  struct Rec {
    uint64_t version;
    const uint8_t* data;
  };
  std::unordered_map<EntryId, Rec> newest;
  std::string violation;
  // Scans through the store's allocator-independent walk (slab bitmaps or
  // pool tag headers, whichever backs entry records in this config).
  store->ForEachEntryRecord([&](uint64_t offset, uint64_t size) {
        if (!violation.empty()) return;
        if (size != layout_.record_bytes()) {
          violation = "foreign-size entry record survived recovery";
          return;
        }
        const uint8_t* rec = store->pool()->Translate(offset);
        const EntryId key = EntryLayout::RecordKey(rec);
        const uint64_t version = EntryLayout::RecordVersion(rec);
        if (version > p) {
          violation = "record for key " + std::to_string(key) +
                      " with version " + std::to_string(version) +
                      " > checkpoint " + std::to_string(p) + " survived";
          return;
        }
        auto [it, inserted] = newest.emplace(key, Rec{version, rec});
        if (inserted) return;
        if (version == it->second.version) {
          if (std::memcmp(rec + EntryLayout::kHeaderBytes,
                          it->second.data + EntryLayout::kHeaderBytes,
                          layout_.data_bytes()) != 0) {
            violation = "conflicting records at version " +
                        std::to_string(version) + " for key " +
                        std::to_string(key);
          }
        } else if (version > it->second.version) {
          it->second = Rec{version, rec};
        }
      });
  if (!violation.empty()) return violation;
  if (newest.size() != ref->size()) {
    return "PMem rescan found " + std::to_string(newest.size()) +
           " keys, checkpoint has " + std::to_string(ref->size());
  }
  for (const auto& [key, rec] : newest) {
    auto it = ref->find(key);
    if (it == ref->end()) {
      return "rescan found key " + std::to_string(key) +
             " absent from the checkpoint";
    }
    if (std::memcmp(EntryLayout::RecordData(rec.data), it->second.data(),
                    weight_bytes) != 0) {
      return "rescan record for key " + std::to_string(key) +
             " disagrees with the DRAM index";
    }
  }
  return "";
}

Status CrashSim::EnumerateAll(std::vector<CrashPointResult>* results) {
  if (total_events_ == 0) {
    return Status::FailedPrecondition("call CountEvents() first");
  }
  results->clear();
  results->reserve(total_events_);
  uint64_t prev_published = 0;
  for (uint64_t e = 1; e <= total_events_; ++e) {
    pmem::FaultPlan plan;
    plan.crash_at = e;
    OE_ASSIGN_OR_RETURN(CrashPointResult res, RunPlan(plan));
    if (res.ok() && !res.fault.triggered) {
      res.violation =
          "crash fault never fired (persist sequence not deterministic?)";
    }
    // The recovered checkpoint is monotone in the crash point: a later
    // crash has strictly more persisted history.
    if (res.ok() && res.published < prev_published) {
      res.violation = "recovered checkpoint " + std::to_string(res.published) +
                      " below earlier crash point's " +
                      std::to_string(prev_published);
    }
    prev_published = std::max(prev_published, res.published);
    results->push_back(std::move(res));
  }
  return Status::OK();
}

Status CrashSim::RunRandomSchedule(uint64_t seed, int rounds,
                                   std::vector<CrashPointResult>* results) {
  if (total_events_ == 0) {
    return Status::FailedPrecondition("call CountEvents() first");
  }
  results->clear();
  Random rng(seed);
  for (int r = 0; r < rounds; ++r) {
    pmem::FaultPlan plan;
    const uint64_t e = 1 + rng.Uniform(total_events_);
    if (rng.Bernoulli(0.5)) {
      plan.tear_at = e;
      plan.tear_lines = rng.Uniform(4);  // persist a 0..3-line prefix
    } else {
      plan.crash_at = e;
    }
    OE_ASSIGN_OR_RETURN(CrashPointResult res, RunPlan(plan));
    results->push_back(std::move(res));
  }
  return Status::OK();
}

uint64_t CrashSim::FindEvent(const std::string& site_substr, int nth) const {
  int seen = 0;
  for (size_t i = 0; i < event_sites_.size(); ++i) {
    if (event_sites_[i].find(site_substr) != std::string::npos) {
      if (++seen == nth) return i + 1;
    }
  }
  return 0;
}

}  // namespace oe::testing
