#include "ps/ps_service.h"

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/trace.h"
#include "storage/pipelined_store.h"

namespace oe::ps {

using net::Reader;
using net::Writer;

namespace {

/// Stable span/label name for a PsMethod (string literals, as ScopedSpan
/// requires). Out-of-range ids fall back to "unknown".
const char* PsMethodName(uint32_t method) {
  switch (static_cast<PsMethod>(method)) {
    case PsMethod::kPull:
      return "pull";
    case PsMethod::kPush:
      return "push";
    case PsMethod::kFinishPull:
      return "finish_pull";
    case PsMethod::kRequestCheckpoint:
      return "request_checkpoint";
    case PsMethod::kDrainCheckpoints:
      return "drain_checkpoints";
    case PsMethod::kRecover:
      return "recover";
    case PsMethod::kEntryCount:
      return "entry_count";
    case PsMethod::kPublishedCheckpoint:
      return "published_checkpoint";
    case PsMethod::kPeek:
      return "peek";
    case PsMethod::kWaitMaintenance:
      return "wait_maintenance";
    case PsMethod::kMultiGet:
      return "multi_get";
  }
  return "unknown";
}

}  // namespace

obs::Distribution* PsService::HandleLatencyFor(uint32_t method) {
  std::atomic<obs::Distribution*>& slot =
      handle_latency_[method <= kMaxMethodId ? method : 0];
  obs::Distribution* dist = slot.load(std::memory_order_acquire);
  if (dist != nullptr) return dist;
  // Racing registrations return the same stable pointer; idempotent.
  const obs::Labels labels = {{"service", std::to_string(obs_id_)},
                              {"method", PsMethodName(method)}};
  dist =
      obs::MetricsRegistry::Default().GetDistribution("ps.handle_ns", labels);
  slot.store(dist, std::memory_order_release);
  return dist;
}

Status PsService::Handle(uint32_t method, const uint8_t* request,
                         size_t size, net::Buffer* response) {
  obs::ScopedSpan span("ps", PsMethodName(method));
  const Nanos handle_start = WallNowNanos();
  Reader reader(request, size);
  RpcHeader header;
  OE_RETURN_IF_ERROR(reader.GetU64(&header.client_id));
  OE_RETURN_IF_ERROR(reader.GetU64(&header.seq));

  const bool dedup = header.client_id != 0 && header.seq != 0 &&
                     IsMutatingMethod(static_cast<PsMethod>(method));
  if (dedup) {
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    ClientWindow& window = windows_[header.client_id];
    auto it = window.replies.find(header.seq);
    if (it != window.replies.end()) {
      // Retry (or network duplicate) of an operation that already ran:
      // replay the recorded reply without touching the store.
      ++dedup_hits_;
      *response = it->second.response;
      HandleLatencyFor(method)->Record(
          static_cast<double>(WallNowNanos() - handle_start));
      return it->second.status;
    }
  }

  Status status = Dispatch(method, &reader, response);

  if (dedup) {
    // Remember the outcome — errors too: re-executing a failed mutation
    // could succeed the second time and leave the client unsure how many
    // times it applied. One seq, one execution, one answer.
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    ClientWindow& window = windows_[header.client_id];
    if (window.replies.emplace(header.seq, CachedReply{status, *response})
            .second) {
      window.order.push_back(header.seq);
      if (window.order.size() > kDedupWindow) {
        window.replies.erase(window.order.front());
        window.order.pop_front();
      }
    }
  }
  HandleLatencyFor(method)->Record(
      static_cast<double>(WallNowNanos() - handle_start));
  return status;
}

uint64_t PsService::DedupHits() const {
  std::lock_guard<std::mutex> lock(dedup_mutex_);
  return dedup_hits_;
}

Status PsService::CheckOwnership(const uint64_t* keys, size_t n) const {
  if (router_ == nullptr) return Status::OK();
  for (size_t i = 0; i < n; ++i) {
    const net::NodeId owner = router_->NodeFor(keys[i]);
    if (owner != node_id_) {
      wrong_owner_rejects_.fetch_add(1, std::memory_order_relaxed);
      return Status::WrongOwner("key " + std::to_string(keys[i]) +
                                " belongs to node " + std::to_string(owner) +
                                ", not node " + std::to_string(node_id_));
    }
  }
  return Status::OK();
}

Status PsService::Dispatch(uint32_t method, Reader* reader,
                           net::Buffer* response) {
  Writer writer(response);
  switch (static_cast<PsMethod>(method)) {
    case PsMethod::kPull:
      return HandlePull(reader, response);
    case PsMethod::kPush:
      return HandlePush(reader);
    case PsMethod::kFinishPull: {
      uint64_t batch = 0;
      OE_RETURN_IF_ERROR(reader->GetU64(&batch));
      store_->FinishPullPhase(batch);
      return Status::OK();
    }
    case PsMethod::kRequestCheckpoint: {
      uint64_t batch = 0;
      OE_RETURN_IF_ERROR(reader->GetU64(&batch));
      return store_->RequestCheckpoint(batch);
    }
    case PsMethod::kDrainCheckpoints:
      return store_->DrainCheckpoints();
    case PsMethod::kRecover:
      return store_->RecoverFromCrash();
    case PsMethod::kEntryCount:
      writer.PutU64(store_->EntryCount());
      return Status::OK();
    case PsMethod::kPublishedCheckpoint:
      writer.PutU64(store_->PublishedCheckpoint());
      return Status::OK();
    case PsMethod::kPeek:
      return HandlePeek(reader, response);
    case PsMethod::kWaitMaintenance: {
      uint64_t batch = 0;
      OE_RETURN_IF_ERROR(reader->GetU64(&batch));
      // The maintenance window a driver measures here also holds the
      // checkpoint write-back pass a seal starts: in training both run
      // beside the compute window, before the next Push.
      if (auto* pipelined =
              dynamic_cast<storage::PipelinedStore*>(store_)) {
        pipelined->WaitIdle();
      }
      return Status::OK();
    }
    case PsMethod::kMultiGet:
      return HandleMultiGet(reader, response);
  }
  return Status::NotSupported("unknown method " + std::to_string(method));
}

Status PsService::HandlePull(Reader* reader, net::Buffer* response) {
  uint64_t batch = 0;
  OE_RETURN_IF_ERROR(reader->GetU64(&batch));
  std::vector<uint64_t> keys;
  OE_RETURN_IF_ERROR(reader->GetU64Span(&keys));
  OE_RETURN_IF_ERROR(CheckOwnership(keys.data(), keys.size()));
  // The store copies the weights straight into the reply's float span. The
  // reply is cleared first, so the span starts 4 bytes into the buffer's
  // allocation: float-aligned.
  const size_t count = keys.size() * store_->config().dim;
  response->clear();
  response->reserve(sizeof(uint32_t) + count * sizeof(float));
  Writer writer(response);
  writer.PutU32(static_cast<uint32_t>(count));
  float* weights =
      reinterpret_cast<float*>(writer.Extend(count * sizeof(float)));
  Status status = store_->Pull(keys.data(), keys.size(), batch, weights);
  if (!status.ok()) response->clear();  // an error reply carries no payload
  return status;
}

Status PsService::HandlePush(Reader* reader) {
  uint64_t batch = 0;
  OE_RETURN_IF_ERROR(reader->GetU64(&batch));
  std::vector<uint64_t> keys;
  OE_RETURN_IF_ERROR(reader->GetU64Span(&keys));
  OE_RETURN_IF_ERROR(CheckOwnership(keys.data(), keys.size()));
  Reader::SpanView span;
  OE_RETURN_IF_ERROR(reader->GetSpanView(sizeof(float), &span));
  if (span.count != keys.size() * store_->config().dim) {
    return Status::InvalidArgument("gradient span size mismatch");
  }
  // Gradients are applied from the request bytes; only a span that is not
  // float-aligned (a request decoded from an arbitrary byte range) is
  // copied first.
  std::vector<float> copy;
  const float* grads = reinterpret_cast<const float*>(span.data);
  if (reinterpret_cast<uintptr_t>(span.data) % alignof(float) != 0) {
    copy.resize(span.count);
    std::memcpy(copy.data(), span.data, span.count * sizeof(float));
    grads = copy.data();
  }
  return store_->Push(keys.data(), keys.size(), grads, batch);
}

Status PsService::HandleMultiGet(Reader* reader, net::Buffer* response) {
  std::vector<uint64_t> keys;
  OE_RETURN_IF_ERROR(reader->GetU64Span(&keys));
  OE_RETURN_IF_ERROR(CheckOwnership(keys.data(), keys.size()));
  const size_t n = keys.size();
  const uint32_t dim = store_->config().dim;
  const size_t row_bytes = dim * sizeof(float);
  // The reply is written in place: [cp : u64][n found bytes][u32 float
  // count][n rows]. The rows follow the found bytes, so they sit at an
  // arbitrary byte offset and are only ever written with memcpy.
  response->clear();
  response->resize(sizeof(uint64_t) + n + sizeof(uint32_t) + n * row_bytes);
  uint8_t* found = response->data() + sizeof(uint64_t);
  const uint32_t count = static_cast<uint32_t>(n * dim);
  std::memcpy(found + n, &count, sizeof(count));
  uint8_t* rows = found + n + sizeof(uint32_t);

  // Probe every key at the serving checkpoint; with no cache every probe
  // misses.
  uint64_t cp = store_->PublishedCheckpoint();
  std::vector<size_t> miss_pos;
  std::vector<uint64_t> miss_keys;
  for (size_t i = 0; i < n; ++i) {
    if (serving_cache_ != nullptr &&
        serving_cache_->Lookup(keys[i], cp, rows + i * row_bytes)) {
      found[i] = 1;
    } else {
      miss_pos.push_back(i);
      miss_keys.push_back(keys[i]);
    }
  }
  if (!miss_keys.empty()) {
    std::vector<float> fetched(miss_keys.size() * dim);
    std::vector<uint8_t> fetched_found(miss_keys.size());
    uint64_t fetch_cp = 0;
    Status status =
        store_->MultiGet(miss_keys.data(), miss_keys.size(), fetched.data(),
                         fetched_found.data(), &fetch_cp);
    if (status.ok() && fetch_cp != cp && miss_keys.size() < n) {
      // A publish landed between the probe and the fetch, so the hits and
      // the fetched rows name two checkpoints. Re-read every key: one store
      // read holds one snapshot pin, so it is consistent by construction.
      miss_pos.resize(n);
      std::iota(miss_pos.begin(), miss_pos.end(), size_t{0});
      fetched.resize(n * dim);
      fetched_found.resize(n);
      status = store_->MultiGet(keys.data(), n, fetched.data(),
                                fetched_found.data(), &fetch_cp);
    }
    if (!status.ok()) {
      response->clear();  // an error reply carries no payload
      return status;
    }
    cp = fetch_cp;
    for (size_t m = 0; m < miss_pos.size(); ++m) {
      const size_t i = miss_pos[m];
      const float* row = fetched.data() + m * dim;
      found[i] = fetched_found[m];
      std::memcpy(rows + i * row_bytes, row, row_bytes);
      if (found[i] && serving_cache_ != nullptr) {
        serving_cache_->Insert(keys[i], cp, row);
      }
    }
  }
  std::memcpy(response->data(), &cp, sizeof(cp));
  return Status::OK();
}

Status PsService::HandlePeek(Reader* reader, net::Buffer* response) {
  uint64_t key = 0;
  OE_RETURN_IF_ERROR(reader->GetU64(&key));
  OE_RETURN_IF_ERROR(CheckOwnership(&key, 1));
  OE_ASSIGN_OR_RETURN(std::vector<float> weights, store_->Peek(key));
  Writer writer(response);
  writer.PutFloatSpan(weights.data(), weights.size());
  return Status::OK();
}

}  // namespace oe::ps
