#include "net/faulty_transport.h"

#include <chrono>
#include <thread>
#include <utility>

namespace oe::net {

FaultyTransport::FaultyTransport(Transport* base, uint64_t seed)
    : base_(base), seed_(seed) {}

FaultyTransport::NodeState* FaultyTransport::StateLocked(NodeId node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    auto state = std::make_unique<NodeState>();
    // Fold the node id into the seed so each node draws an independent
    // stream; golden-ratio multiply avoids correlated low bits for
    // consecutive ids.
    state->rng.Seed(seed_ ^ (static_cast<uint64_t>(node) + 1) *
                                0x9e3779b97f4a7c15ULL);
    it = nodes_.emplace(node, std::move(state)).first;
  }
  return it->second.get();
}

void FaultyTransport::SetFaultSpec(NodeId node, const NetFaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  NodeState* state = StateLocked(node);
  state->spec = spec;
  state->ordinal = 0;
  state->rng.Seed(seed_ ^ (static_cast<uint64_t>(node) + 1) *
                              0x9e3779b97f4a7c15ULL);
}

void FaultyTransport::SetNodeDown(NodeId node, bool down) {
  std::lock_guard<std::mutex> lock(mutex_);
  StateLocked(node)->down = down;
}

bool FaultyTransport::IsNodeDown(NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node);
  return it != nodes_.end() && it->second->down;
}

void FaultyTransport::SetKillCallback(std::function<void(NodeId)> callback) {
  std::lock_guard<std::mutex> lock(mutex_);
  kill_callback_ = std::move(callback);
}

NetFaultStats FaultyTransport::FaultStats(NodeId node) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = nodes_.find(node);
  return it != nodes_.end() ? it->second->stats : NetFaultStats{};
}

Status FaultyTransport::CallOnce(NodeId node, uint32_t method,
                                 const Buffer& request, Buffer* response) {
  Decision d;
  std::function<void(NodeId)> kill_callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    NodeState* state = StateLocked(node);
    state->stats.calls++;
    if (state->down) {
      d.unavailable = true;
      state->stats.unavailable++;
    } else {
      const uint64_t ordinal = ++state->ordinal;
      const NetFaultSpec& spec = state->spec;
      if (spec.kill_at != 0 && ordinal == spec.kill_at) {
        d.kill = true;
        state->down = true;
        kill_callback = kill_callback_;
      } else {
        // Draw every rate each call so the PRNG consumption per ordinal is
        // fixed — firing one fault does not shift later ordinals' draws.
        const bool drop = state->rng.Bernoulli(spec.drop_rate);
        const bool fail = state->rng.Bernoulli(spec.fail_response_rate);
        const bool dup = state->rng.Bernoulli(spec.duplicate_rate);
        const bool delay = state->rng.Bernoulli(spec.delay_rate);
        if (drop) {
          d.drop = true;
          state->stats.dropped++;
        } else {
          d.fail_response = fail;
          d.duplicate = dup;
          if (fail) state->stats.failed_responses++;
          if (dup) state->stats.duplicated++;
          if (delay) {
            d.delay_ms = spec.delay_ms;
            state->stats.delayed++;
          }
        }
        if (spec.disconnect_at != 0 && ordinal == spec.disconnect_at) {
          d.disconnect_after = true;
        }
      }
    }
  }

  if (d.unavailable) {
    return Status::Unavailable("node " + std::to_string(node) +
                               " is down (injected)");
  }
  if (d.kill) {
    if (kill_callback) kill_callback(node);
    return Status::Unavailable("node " + std::to_string(node) +
                               " killed (injected)");
  }
  if (d.drop) {
    return Status::Unavailable("request to node " + std::to_string(node) +
                               " dropped (injected)");
  }

  Status status = base_->Call(node, method, request, response);
  if (status.ok() && d.duplicate) {
    // Deliver the request a second time, as a retransmitting network
    // would; the first response is the one the client sees. The server
    // must dedup (or tolerate) the replay.
    Buffer dup_response;
    (void)base_->Call(node, method, request, &dup_response);
  }
  if (d.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(d.delay_ms));
  }
  if (d.disconnect_after) {
    std::lock_guard<std::mutex> lock(mutex_);
    StateLocked(node)->down = true;
  }
  if (status.ok()) {
    stats_.Record(request.size(), response->size());
    if (d.fail_response) {
      // The server executed; the client must not see the reply.
      response->clear();
      return Status::IoError("response from node " + std::to_string(node) +
                             " lost (injected)");
    }
  }
  return status;
}

}  // namespace oe::net
