#include "ps/ps_client.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "net/message.h"
#include "ps/ps_service.h"

namespace oe::ps {

using net::Buffer;
using net::Reader;
using net::RpcCall;
using net::Writer;

namespace {

/// Process-wide client-id allocator; 0 is reserved for "no dedup".
std::atomic<uint64_t> g_next_client_id{1};

/// Writes the RpcHeader that starts every request payload. seq == 0 for
/// reads (no dedup); `route_epoch` is the slot-table epoch the request was
/// routed under (diagnostic: the service validates against the live table).
void PutHeader(Writer* writer, uint64_t client_id, uint64_t seq,
               uint64_t route_epoch) {
  writer->PutU64(client_id);
  writer->PutU64(seq);
  writer->PutU64(route_epoch);
}

/// First hard (non-wrong-owner) failure in call order, or OK. kWrongOwner
/// is the one per-call status the client handles itself — everything else
/// already went through the transport's retry policy and must surface.
Status FirstHardError(const std::vector<RpcCall>& calls) {
  for (const RpcCall& call : calls) {
    if (!call.status.ok() && !call.status.IsWrongOwner()) return call.status;
  }
  return Status::OK();
}

/// Request bytes that do not scale with the key count: the RpcHeader, a
/// batch id and up to two span counts. RoutedFanOut reserves this plus
/// `bytes_per_key` per key, so a request is allocated once.
constexpr size_t kRequestFixedBytes = 3 * sizeof(uint64_t) +
                                      sizeof(uint64_t) + 2 * sizeof(uint32_t);

/// Appends a span of one row per position, row j gathered from row pos[j]
/// of `rows` (rows of `row_elems` elements, `row_bytes` bytes each): the
/// element count, then the rows, written in place.
void PutRows(Writer* writer, const void* rows, size_t row_bytes,
             size_t row_elems, const std::vector<size_t>& pos) {
  writer->PutU32(static_cast<uint32_t>(pos.size() * row_elems));
  uint8_t* dst = writer->Extend(pos.size() * row_bytes);
  const auto* base = static_cast<const uint8_t*>(rows);
  for (size_t j = 0; j < pos.size(); ++j) {
    std::memcpy(dst + j * row_bytes, base + pos[j] * row_bytes, row_bytes);
  }
}

/// Writes the key span of a keyed request: keys[i] for every i in `pos`.
void PutKeys(Writer* writer, const storage::EntryId* keys,
             const std::vector<size_t>& pos) {
  PutRows(writer, keys, sizeof(storage::EntryId), 1, pos);
}

/// Reads a float span holding one row of `dim` weights per position and
/// copies row j from the response straight to row pos[j] of `out` (shape
/// check only when `out` is null).
Status GetRows(Reader* reader, const std::vector<size_t>& pos, uint32_t dim,
               float* out) {
  Reader::SpanView rows;
  OE_RETURN_IF_ERROR(reader->GetSpanView(sizeof(float), &rows));
  if (rows.count != pos.size() * dim) {
    return Status::Corruption("response rows do not match the request keys");
  }
  if (out == nullptr) return Status::OK();
  const size_t row_bytes = dim * sizeof(float);
  for (size_t j = 0; j < pos.size(); ++j) {
    std::memcpy(out + pos[j] * dim, rows.data + j * row_bytes, row_bytes);
  }
  return Status::OK();
}

using Positions = std::vector<std::vector<size_t>>;

/// The route step of a keyed operation over all `n` keys: each position
/// goes to its key's slot owner.
auto RouteByOwner(const storage::EntryId* keys, size_t n) {
  return [keys, n](const Router& router, Positions* positions) {
    for (size_t i = 0; i < n; ++i) {
      (*positions)[router.NodeFor(keys[i])].push_back(i);
    }
  };
}

/// One round of a routed fan-out: the route snapshot it was partitioned
/// under, the key positions and buffers of each node, and one call per node
/// that serves any key, in ascending node order.
struct Round {
  Router router;
  Positions positions;  // these three are indexed by node
  std::vector<Buffer> requests;
  std::vector<Buffer> responses;
  std::vector<RpcCall> calls;
};

/// Route retry budget for keyed operations. A kWrongOwner burst lasts from
/// seal to publish; with the default RpcOptions backoff (1ms doubling,
/// 100ms cap) this budget spans well over a second of wall time — enough
/// for any in-process migration while still failing closed if routing
/// never converges.
constexpr int kMaxRouteAttempts = 16;

/// MultiGet's budget, shared by route retries and checkpoint disagreement
/// (a cluster-wide publish in flight).
constexpr int kMaxMultiGetAttempts = 8;

}  // namespace

PsClient::PsClient(net::Transport* transport, uint32_t num_nodes,
                   uint32_t dim)
    : transport_(transport),
      router_(num_nodes),
      dim_(dim),
      client_id_(g_next_client_id.fetch_add(1, std::memory_order_relaxed)) {}

Router PsClient::Route() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  return router_;
}

void PsClient::RefreshRoute() {
  if (directory_ == nullptr) return;
  std::shared_ptr<const SlotTable> current = directory_->Current();
  std::lock_guard<std::mutex> lock(route_mutex_);
  if (current->epoch > router_.epoch()) router_ = Router(std::move(current));
}

template <typename RouteFn, typename EncodeFn, typename AcceptFn>
Status PsClient::RoutedFanOut(const char* op, PsMethod method,
                              int max_attempts, size_t bytes_per_key,
                              RouteFn route, EncodeFn encode,
                              AcceptFn accept) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      net::BackoffSleep(transport_->rpc_options(), attempt - 1);
      RefreshRoute();
    }
    Round round{Route()};
    const uint32_t num_nodes = round.router.num_nodes();
    round.positions.resize(num_nodes);
    round.requests.resize(num_nodes);
    round.responses.resize(num_nodes);
    round.calls.reserve(num_nodes);
    route(round.router, &round.positions);
    // One request per node, issued concurrently (Section IV: the worker
    // reaches every PS shard in one overlapped round trip). A mutating
    // round's requests share one fresh seq (see NextSeq), and a
    // transport-retried request reuses its buffer, so a double-delivered
    // gradient applies exactly once.
    const uint64_t seq = IsMutatingMethod(method) ? NextSeq() : 0;
    for (uint32_t node = 0; node < num_nodes; ++node) {
      if (round.positions[node].empty()) continue;
      round.requests[node].reserve(kRequestFixedBytes +
                                   round.positions[node].size() *
                                       bytes_per_key);
      Writer writer(&round.requests[node]);
      PutHeader(&writer, client_id_, seq, round.router.epoch());
      encode(&writer, round.positions[node]);
      round.calls.push_back({node, static_cast<uint32_t>(method),
                             &round.requests[node], &round.responses[node]});
    }
    if (round.calls.empty()) return Status::OK();
    const Status fan_out = transport_->ParallelCall(&round.calls);
    if (!fan_out.ok()) OE_RETURN_IF_ERROR(FirstHardError(round.calls));
    OE_ASSIGN_OR_RETURN(const bool done, accept(round, fan_out));
    if (done) return Status::OK();
  }
  return Status::Unavailable(
      std::string(op) + ": no consistent answer after " +
      std::to_string(max_attempts) +
      " attempts (kWrongOwner or checkpoint disagreement persisted)");
}

Status PsClient::Pull(const storage::EntryId* keys, size_t n, uint64_t batch,
                      float* out) {
  if (n == 0) return Status::OK();
  return RoutedFanOut(
      "pull", PsMethod::kPull, kMaxRouteAttempts, sizeof(storage::EntryId),
      RouteByOwner(keys, n),
      [&](Writer* writer, const std::vector<size_t>& pos) {
        writer->PutU64(batch);
        PutKeys(writer, keys, pos);
      },
      // Pulls are idempotent, so a retried round simply overwrites any
      // positions already filled.
      [&](const Round& round, const Status& fan_out) -> Result<bool> {
        if (!fan_out.ok()) return false;  // kWrongOwner only: re-route
        for (const RpcCall& call : round.calls) {
          Reader reader(*call.response);
          OE_RETURN_IF_ERROR(
              GetRows(&reader, round.positions[call.node], dim_, out));
        }
        return true;
      });
}

Status PsClient::Push(const storage::EntryId* keys, size_t n,
                      const float* grads, uint64_t batch) {
  if (n == 0) return Status::OK();
  // Unacknowledged positions, so a partial fan-out failure re-sends exactly
  // the rejected nodes' keys; each key's destination is recomputed from the
  // route snapshot every round.
  std::vector<size_t> pending(n);
  for (size_t i = 0; i < n; ++i) pending[i] = i;
  return RoutedFanOut(
      "push", PsMethod::kPush, kMaxRouteAttempts,
      sizeof(storage::EntryId) + dim_ * sizeof(float),
      [&](const Router& router, Positions* positions) {
        for (size_t pos : pending) {
          (*positions)[router.NodeFor(keys[pos])].push_back(pos);
        }
      },
      [&](Writer* writer, const std::vector<size_t>& pos) {
        writer->PutU64(batch);
        PutKeys(writer, keys, pos);
        PutRows(writer, grads, dim_ * sizeof(float), dim_, pos);
      },
      // Drop acknowledged positions; only nodes that rejected with
      // kWrongOwner (applied nothing) are re-routed.
      [&](const Round& round, const Status& fan_out) -> Result<bool> {
        if (fan_out.ok()) return true;
        std::vector<bool> rejected(round.router.num_nodes(), false);
        for (const RpcCall& call : round.calls) {
          rejected[call.node] = call.status.IsWrongOwner();
        }
        std::erase_if(pending, [&](size_t pos) {
          return !rejected[round.router.NodeFor(keys[pos])];
        });
        return pending.empty();
      });
}

Status PsClient::MultiGet(const storage::EntryId* keys, size_t n, float* out,
                          uint8_t* found, uint64_t* snapshot_version) {
  if (snapshot_version != nullptr) *snapshot_version = 0;
  if (n == 0) return Status::OK();
  return RoutedFanOut(
      "multi-get", PsMethod::kMultiGet, kMaxMultiGetAttempts,
      sizeof(storage::EntryId), RouteByOwner(keys, n),
      [&](Writer* writer, const std::vector<size_t>& pos) {
        PutKeys(writer, keys, pos);
      },
      [&](const Round& round, const Status& fan_out) -> Result<bool> {
        if (!fan_out.ok()) return false;  // kWrongOwner only: re-route
        uint64_t cluster_cp = 0;
        for (const RpcCall& call : round.calls) {
          const std::vector<size_t>& pos = round.positions[call.node];
          Reader reader(*call.response);
          uint64_t node_cp = 0;
          OE_RETURN_IF_ERROR(reader.GetU64(&node_cp));
          if (&call == &round.calls.front()) cluster_cp = node_cp;
          if (node_cp != cluster_cp) return false;
          std::vector<uint8_t> node_found(pos.size());
          OE_RETURN_IF_ERROR(
              reader.GetRaw(node_found.data(), node_found.size()));
          OE_RETURN_IF_ERROR(GetRows(&reader, pos, dim_, out));
          for (size_t j = 0; j < pos.size(); ++j) found[pos[j]] = node_found[j];
        }
        if (snapshot_version != nullptr) *snapshot_version = cluster_cp;
        return true;
      });
}

Result<std::vector<float>> PsClient::Peek(storage::EntryId key) {
  std::vector<float> weights;
  OE_RETURN_IF_ERROR(RoutedFanOut(
      "peek", PsMethod::kPeek, kMaxRouteAttempts, 0, RouteByOwner(&key, 1),
      [&](Writer* writer, const std::vector<size_t>&) { writer->PutU64(key); },
      [&](const Round& round, const Status& fan_out) -> Result<bool> {
        if (!fan_out.ok()) return false;  // kWrongOwner only: re-route
        Reader reader(*round.calls[0].response);
        OE_RETURN_IF_ERROR(reader.GetFloatSpan(&weights));
        return true;
      }));
  return weights;
}

Result<std::vector<Buffer>> PsClient::Broadcast(
    PsMethod method, std::optional<uint64_t> batch) {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, IsMutatingMethod(method) ? NextSeq() : 0,
            Route().epoch());
  if (batch.has_value()) writer.PutU64(*batch);
  const std::shared_ptr<const SlotTable> table =
      directory_ != nullptr ? directory_->Current() : Route().table();
  std::vector<Buffer> responses(table->active.size());
  std::vector<RpcCall> calls(table->active.size());
  for (size_t i = 0; i < calls.size(); ++i) {
    calls[i] = {table->active[i], static_cast<uint32_t>(method), &request,
                &responses[i], Status::OK()};
  }
  OE_RETURN_IF_ERROR(transport_->ParallelCall(&calls));
  return responses;
}

Status PsClient::FinishPullPhase(uint64_t batch) {
  return Broadcast(PsMethod::kFinishPull, batch).status();
}

Status PsClient::WaitMaintenance(uint64_t batch) {
  return Broadcast(PsMethod::kWaitMaintenance, batch).status();
}

Status PsClient::RequestCheckpoint(uint64_t batch) {
  return Broadcast(PsMethod::kRequestCheckpoint, batch).status();
}

Status PsClient::DrainCheckpoints() {
  return Broadcast(PsMethod::kDrainCheckpoints).status();
}

Status PsClient::Recover() {
  return Broadcast(PsMethod::kRecover).status();
}

Result<uint64_t> PsClient::TotalEntries() {
  OE_ASSIGN_OR_RETURN(const std::vector<Buffer> responses,
                      Broadcast(PsMethod::kEntryCount));
  uint64_t total = 0;
  for (const Buffer& response : responses) {
    uint64_t count = 0;
    OE_RETURN_IF_ERROR(Reader(response).GetU64(&count));
    total += count;
  }
  return total;
}

Result<uint64_t> PsClient::ClusterCheckpoint() {
  OE_ASSIGN_OR_RETURN(const std::vector<Buffer> responses,
                      Broadcast(PsMethod::kPublishedCheckpoint));
  uint64_t min_cp = ~0ULL;
  for (const Buffer& response : responses) {
    uint64_t cp = 0;
    OE_RETURN_IF_ERROR(Reader(response).GetU64(&cp));
    min_cp = std::min(min_cp, cp);
  }
  return min_cp == ~0ULL ? 0 : min_cp;
}

}  // namespace oe::ps
