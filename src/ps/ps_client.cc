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
/// reads (no dedup).
void PutHeader(Writer* writer, uint64_t client_id, uint64_t seq) {
  writer->PutU64(client_id);
  writer->PutU64(seq);
}

/// Request bytes that do not scale with the key count: the RpcHeader, a
/// batch id and up to two span counts. KeyedCall reserves this plus
/// `bytes_per_key` per key, so a request is allocated once.
constexpr size_t kRequestFixedBytes = sizeof(RpcHeader) + sizeof(uint64_t) +
                                      2 * sizeof(uint32_t);

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

/// MultiGet's attempt budget for checkpoint disagreement (a cluster-wide
/// publish in flight).
constexpr int kMaxMultiGetAttempts = 8;

}  // namespace

/// A keyed operation's per-node state: the key positions each node owns,
/// its request and response buffers, and one call per node that owns any
/// key, in ascending node order.
struct KeyedFanOut {
  std::vector<std::vector<size_t>> positions;  // these three are by node
  std::vector<Buffer> requests;
  std::vector<Buffer> responses;
  std::vector<RpcCall> calls;
};

PsClient::PsClient(net::Transport* transport, uint32_t num_nodes,
                   uint32_t dim)
    : transport_(transport),
      router_(num_nodes),
      dim_(dim),
      client_id_(g_next_client_id.fetch_add(1, std::memory_order_relaxed)) {}

template <typename EncodeFn>
Status PsClient::KeyedCall(PsMethod method, const storage::EntryId* keys,
                           size_t n, size_t bytes_per_key, EncodeFn encode,
                           KeyedFanOut* fan_out) {
  const uint32_t num_nodes = router_.num_nodes();
  fan_out->positions.resize(num_nodes);
  fan_out->requests.resize(num_nodes);
  fan_out->responses.resize(num_nodes);
  fan_out->calls.reserve(num_nodes);
  for (size_t i = 0; i < n; ++i) {
    fan_out->positions[router_.NodeFor(keys[i])].push_back(i);
  }
  // One request per node, issued concurrently (Section IV: the worker
  // reaches every PS shard in one overlapped round trip). A mutating
  // operation's requests share one fresh seq (see NextSeq), and a
  // transport-retried request reuses its buffer, so a double-delivered
  // gradient applies exactly once.
  const uint64_t seq = IsMutatingMethod(method) ? NextSeq() : 0;
  for (uint32_t node = 0; node < num_nodes; ++node) {
    const std::vector<size_t>& pos = fan_out->positions[node];
    if (pos.empty()) continue;
    Buffer& request = fan_out->requests[node];
    request.reserve(kRequestFixedBytes + pos.size() * bytes_per_key);
    Writer writer(&request);
    PutHeader(&writer, client_id_, seq);
    encode(&writer, pos);
    fan_out->calls.push_back({node, static_cast<uint32_t>(method), &request,
                              &fan_out->responses[node]});
  }
  return transport_->ParallelCall(&fan_out->calls);
}

Status PsClient::Pull(const storage::EntryId* keys, size_t n, uint64_t batch,
                      float* out) {
  if (n == 0) return Status::OK();
  KeyedFanOut fan_out;
  OE_RETURN_IF_ERROR(KeyedCall(
      PsMethod::kPull, keys, n, sizeof(storage::EntryId),
      [&](Writer* writer, const std::vector<size_t>& pos) {
        writer->PutU64(batch);
        PutKeys(writer, keys, pos);
      },
      &fan_out));
  for (const RpcCall& call : fan_out.calls) {
    Reader reader(*call.response);
    OE_RETURN_IF_ERROR(
        GetRows(&reader, fan_out.positions[call.node], dim_, out));
  }
  return Status::OK();
}

Status PsClient::Push(const storage::EntryId* keys, size_t n,
                      const float* grads, uint64_t batch) {
  if (n == 0) return Status::OK();
  KeyedFanOut fan_out;
  return KeyedCall(
      PsMethod::kPush, keys, n,
      sizeof(storage::EntryId) + dim_ * sizeof(float),
      [&](Writer* writer, const std::vector<size_t>& pos) {
        writer->PutU64(batch);
        PutKeys(writer, keys, pos);
        PutRows(writer, grads, dim_ * sizeof(float), dim_, pos);
      },
      &fan_out);
}

Status PsClient::MultiGet(const storage::EntryId* keys, size_t n, float* out,
                          uint8_t* found, uint64_t* snapshot_version) {
  if (snapshot_version != nullptr) *snapshot_version = 0;
  if (n == 0) return Status::OK();
  for (int attempt = 0; attempt < kMaxMultiGetAttempts; ++attempt) {
    if (attempt > 0) {
      net::BackoffSleep(transport_->rpc_options(), attempt - 1);
    }
    KeyedFanOut fan_out;
    OE_RETURN_IF_ERROR(KeyedCall(
        PsMethod::kMultiGet, keys, n, sizeof(storage::EntryId),
        [&](Writer* writer, const std::vector<size_t>& pos) {
          PutKeys(writer, keys, pos);
        },
        &fan_out));
    uint64_t cluster_cp = 0;
    bool agreed = true;
    for (const RpcCall& call : fan_out.calls) {
      const std::vector<size_t>& pos = fan_out.positions[call.node];
      Reader reader(*call.response);
      uint64_t node_cp = 0;
      OE_RETURN_IF_ERROR(reader.GetU64(&node_cp));
      if (&call == &fan_out.calls.front()) cluster_cp = node_cp;
      if (node_cp != cluster_cp) {
        agreed = false;
        break;
      }
      std::vector<uint8_t> node_found(pos.size());
      OE_RETURN_IF_ERROR(reader.GetRaw(node_found.data(), node_found.size()));
      OE_RETURN_IF_ERROR(GetRows(&reader, pos, dim_, out));
      for (size_t j = 0; j < pos.size(); ++j) found[pos[j]] = node_found[j];
    }
    if (!agreed) continue;
    if (snapshot_version != nullptr) *snapshot_version = cluster_cp;
    return Status::OK();
  }
  return Status::Unavailable(
      "multi-get: nodes served different checkpoints in all " +
      std::to_string(kMaxMultiGetAttempts) + " attempts");
}

Result<std::vector<float>> PsClient::Peek(storage::EntryId key) {
  KeyedFanOut fan_out;
  OE_RETURN_IF_ERROR(KeyedCall(
      PsMethod::kPeek, &key, 1, 0,
      [&](Writer* writer, const std::vector<size_t>&) { writer->PutU64(key); },
      &fan_out));
  std::vector<float> weights;
  Reader reader(*fan_out.calls[0].response);
  OE_RETURN_IF_ERROR(reader.GetFloatSpan(&weights));
  return weights;
}

Result<std::vector<Buffer>> PsClient::Broadcast(
    PsMethod method, std::optional<uint64_t> batch) {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, IsMutatingMethod(method) ? NextSeq() : 0);
  if (batch.has_value()) writer.PutU64(*batch);
  std::vector<Buffer> responses(router_.num_nodes());
  std::vector<RpcCall> calls(router_.num_nodes());
  for (uint32_t node = 0; node < calls.size(); ++node) {
    calls[node] = {node, static_cast<uint32_t>(method), &request,
                   &responses[node], Status::OK()};
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
