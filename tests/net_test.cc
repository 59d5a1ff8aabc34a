#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/message.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace oe::net {
namespace {

TEST(MessageTest, WriterReaderRoundTrip) {
  Buffer buffer;
  Writer writer(&buffer);
  writer.PutU32(7);
  writer.PutU64(1ULL << 40);
  writer.PutFloat(3.5f);
  std::vector<uint64_t> keys = {1, 2, 3};
  writer.PutU64Span(keys.data(), keys.size());
  std::vector<float> floats = {0.5f, -0.5f};
  writer.PutFloatSpan(floats.data(), floats.size());
  writer.PutString("hello");

  Reader reader(buffer);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  float f = 0;
  std::vector<uint64_t> keys_out;
  std::vector<float> floats_out;
  std::string s;
  ASSERT_TRUE(reader.GetU32(&u32).ok());
  ASSERT_TRUE(reader.GetU64(&u64).ok());
  ASSERT_TRUE(reader.GetFloat(&f).ok());
  ASSERT_TRUE(reader.GetU64Span(&keys_out).ok());
  ASSERT_TRUE(reader.GetFloatSpan(&floats_out).ok());
  ASSERT_TRUE(reader.GetString(&s).ok());
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 1ULL << 40);
  EXPECT_FLOAT_EQ(f, 3.5f);
  EXPECT_EQ(keys_out, keys);
  EXPECT_EQ(floats_out, floats);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(MessageTest, TruncatedInputRejected) {
  Buffer buffer;
  Writer writer(&buffer);
  writer.PutU32(100);  // claims a 100-element span with no payload
  Reader reader(buffer);
  std::vector<uint64_t> out;
  EXPECT_FALSE(reader.GetU64Span(&out).ok());
}

TEST(MessageTest, SpanViewRejectsHostileLength) {
  Buffer buffer;
  Writer writer(&buffer);
  writer.PutU32(3);  // claims 3 floats (12 bytes) where only 8 follow
  writer.PutFloat(1.0f);
  writer.PutFloat(2.0f);
  Reader reader(buffer);
  Reader::SpanView view;
  const Status status = reader.GetSpanView(sizeof(float), &view);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  // Nothing was read: the view is untouched and no byte was consumed.
  EXPECT_EQ(view.data, nullptr);
  EXPECT_EQ(view.count, 0u);
  EXPECT_EQ(reader.remaining(), buffer.size());
  // A count whose byte length overflows 32 bits is rejected the same way.
  Buffer huge;
  Writer(&huge).PutU32(0xFFFFFFFFu);
  Reader huge_reader(huge);
  EXPECT_EQ(huge_reader.GetSpanView(sizeof(uint64_t), &view).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(huge_reader.remaining(), huge.size());
}

TEST(MessageTest, SpanViewPointsIntoTheMessage) {
  Buffer buffer;
  Writer writer(&buffer);
  const std::vector<float> floats = {0.25f, -1.5f, 3.0f};
  writer.PutFloatSpan(floats.data(), floats.size());
  writer.PutU32(9);
  Reader reader(buffer);
  Reader::SpanView view;
  ASSERT_TRUE(reader.GetSpanView(sizeof(float), &view).ok());
  EXPECT_EQ(view.data, buffer.data() + sizeof(uint32_t));
  ASSERT_EQ(view.count, floats.size());
  std::vector<float> copied(view.count);
  std::memcpy(copied.data(), view.data, view.count * sizeof(float));
  EXPECT_EQ(copied, floats);
  uint32_t tail = 0;
  ASSERT_TRUE(reader.GetU32(&tail).ok());
  EXPECT_EQ(tail, 9u);
}

TEST(MessageTest, EmptyReader) {
  Reader reader(nullptr, 0);
  uint32_t v = 0;
  EXPECT_FALSE(reader.GetU32(&v).ok());
}

TEST(InProcTransportTest, EchoCall) {
  InProcTransport transport;
  transport.RegisterNode(3, [](uint32_t method, const Buffer& request,
                               Buffer* response) {
    EXPECT_EQ(method, 9u);
    *response = request;
    return Status::OK();
  });
  Buffer request = {1, 2, 3};
  Buffer response;
  ASSERT_TRUE(transport.Call(3, 9, request, &response).ok());
  EXPECT_EQ(response, request);
  EXPECT_EQ(transport.stats().requests.load(), 1u);
  EXPECT_EQ(transport.stats().bytes_sent.load(), 3u);
}

TEST(InProcTransportTest, UnknownNodeFails) {
  InProcTransport transport;
  Buffer response;
  EXPECT_TRUE(transport.Call(1, 0, {}, &response).IsNotFound());
}

TEST(InProcTransportTest, HandlerErrorPropagates) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Aborted("nope");
  });
  Buffer response;
  auto status = transport.Call(0, 0, {}, &response);
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST(InProcTransportTest, UnregisterRemovesNode) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer* response) {
    response->push_back(1);
    return Status::OK();
  });
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
  transport.UnregisterNode(0);
  EXPECT_FALSE(transport.Call(0, 0, {}, &response).ok());
}

// ---------- ParallelCall over both transports ----------

using NodeHandler = std::function<Status(
    NodeId node, uint32_t method, const Buffer& request, Buffer* response)>;

/// Nodes [0, n), each a TcpServer serving `handler` for its own id, behind
/// one TcpTransport.
struct TcpNodes {
  TcpNodes(NodeId n, NodeHandler node_handler)
      : handler(std::move(node_handler)) {
    for (NodeId node = 0; node < n; ++node) {
      servers.push_back(TcpServer::Start(0, Bind(node)).ValueOrDie());
      transport.AddNode(node, "127.0.0.1", servers.back()->port());
    }
  }

  RpcHandler Bind(NodeId node) {
    return [this, node](uint32_t method, const Buffer& request,
                        Buffer* response) {
      return handler(node, method, request, response);
    };
  }

  /// Stops every server, then starts each again on its port, so every
  /// pooled connection is stale.
  void RestartAll() {
    std::vector<uint16_t> ports;
    for (const auto& server : servers) ports.push_back(server->port());
    for (auto& server : servers) server.reset();
    for (NodeId node = 0; node < servers.size(); ++node) {
      servers[node] = TcpServer::Start(ports[node], Bind(node)).ValueOrDie();
    }
  }

  NodeHandler handler;  // outlives the servers that call it
  std::vector<std::unique_ptr<TcpServer>> servers;
  TcpTransport transport;
};

enum class Wire { kInProc, kTcp };

/// ParallelCall over an InProcTransport, whose fan-out takes the base pool
/// path, and over TcpNodes, whose fan-out runs on the calling thread.
class TransportFanOutTest : public ::testing::TestWithParam<Wire> {
 protected:
  /// Serves nodes [0, n) with `handler`; returns the transport to them.
  Transport* Serve(NodeId n, NodeHandler handler) {
    if (GetParam() == Wire::kTcp) {
      tcp_ = std::make_unique<TcpNodes>(n, std::move(handler));
      return &tcp_->transport;
    }
    for (NodeId node = 0; node < n; ++node) {
      inproc_.RegisterNode(node, [handler, node](uint32_t method,
                                                 const Buffer& request,
                                                 Buffer* response) {
        return handler(node, method, request, response);
      });
    }
    return &inproc_;
  }

 private:
  InProcTransport inproc_;
  std::unique_ptr<TcpNodes> tcp_;
};

INSTANTIATE_TEST_SUITE_P(Transports, TransportFanOutTest,
                         ::testing::Values(Wire::kInProc, Wire::kTcp),
                         [](const ::testing::TestParamInfo<Wire>& info) {
                           return info.param == Wire::kTcp ? "Tcp" : "InProc";
                         });

TEST_P(TransportFanOutTest, FansOutAndReassembles) {
  Transport* transport = Serve(6, [](NodeId node, uint32_t method,
                                     const Buffer& request, Buffer* response) {
    *response = request;
    response->push_back(static_cast<uint8_t>(node));
    response->push_back(static_cast<uint8_t>(method));
    return Status::OK();
  });
  std::vector<Buffer> requests(6);
  std::vector<Buffer> responses(6);
  std::vector<RpcCall> calls(6);
  for (NodeId node = 0; node < 6; ++node) {
    requests[node] = {static_cast<uint8_t>(100 + node)};
    calls[node].node = node;
    calls[node].method = 7 + node;
    calls[node].request = &requests[node];
    calls[node].response = &responses[node];
  }
  ASSERT_TRUE(transport->ParallelCall(&calls).ok());
  for (NodeId node = 0; node < 6; ++node) {
    Buffer expected = {static_cast<uint8_t>(100 + node),
                       static_cast<uint8_t>(node),
                       static_cast<uint8_t>(7 + node)};
    EXPECT_EQ(responses[node], expected) << "node " << node;
    EXPECT_TRUE(calls[node].status.ok());
  }
}

TEST_P(TransportFanOutTest, FirstErrorInCallOrderWins) {
  Transport* transport = Serve(3, [](NodeId node, uint32_t, const Buffer&,
                                     Buffer*) {
    if (node == 0) {
      // Finishes last but sits first in the call array.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return Status::Aborted("first");
    }
    if (node == 1) return Status::Internal("second");
    return Status::OK();
  });
  std::vector<Buffer> responses(3);
  std::vector<RpcCall> calls(3);
  for (NodeId node = 0; node < 3; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport->ParallelCall(&calls);
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("first"), std::string::npos);
  // Every per-call status is still individually reported.
  EXPECT_EQ(calls[1].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(calls[2].status.ok());
}

TEST_P(TransportFanOutTest, CallsActuallyOverlap) {
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  Transport* transport = Serve(4, [&](NodeId, uint32_t, const Buffer&,
                                      Buffer*) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    in_flight.fetch_sub(1);
    return Status::OK();
  });
  std::vector<Buffer> responses(4);
  std::vector<RpcCall> calls(4);
  for (NodeId node = 0; node < 4; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  ASSERT_TRUE(transport->ParallelCall(&calls).ok());
  EXPECT_GT(max_in_flight.load(), 1);
}

TEST_P(TransportFanOutTest, AggregatesAllFailingNodes) {
  Transport* transport = Serve(4, [](NodeId node, uint32_t, const Buffer&,
                                     Buffer*) {
    if (node == 1) return Status::Aborted("node one broke");
    if (node == 3) return Status::Internal("node three broke");
    return Status::OK();
  });
  std::vector<Buffer> responses(4);
  std::vector<RpcCall> calls(4);
  for (NodeId node = 0; node < 4; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport->ParallelCall(&calls);
  // Code of the first failure in call order; message names every failure.
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("node 1"), std::string::npos);
  EXPECT_NE(status.message().find("node one broke"), std::string::npos);
  EXPECT_NE(status.message().find("node 3"), std::string::npos);
  EXPECT_NE(status.message().find("node three broke"), std::string::npos);
}

TEST_P(TransportFanOutTest, HandlerFailingMidFanOutLeavesOthersIntact) {
  Transport* transport = Serve(5, [](NodeId node, uint32_t, const Buffer&,
                                     Buffer* response) {
    if (node == 2) return Status::Unavailable("mid-fan-out death");
    response->push_back(static_cast<uint8_t>(node));
    return Status::OK();
  });
  std::vector<Buffer> responses(5);
  std::vector<RpcCall> calls(5);
  for (NodeId node = 0; node < 5; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport->ParallelCall(&calls);
  EXPECT_TRUE(status.IsUnavailable());
  for (NodeId node = 0; node < 5; ++node) {
    if (node == 2) {
      EXPECT_TRUE(calls[node].status.IsUnavailable());
    } else {
      EXPECT_TRUE(calls[node].status.ok()) << "node " << node;
      EXPECT_EQ(responses[node], Buffer({static_cast<uint8_t>(node)}));
    }
  }
}

// A routing redirect or a checkpoint rejection from one node reaches its
// own RpcCall with its code, whichever transport carried it.
TEST_P(TransportFanOutTest, EachCallKeepsItsRemoteCode) {
  Transport* transport = Serve(4, [](NodeId node, uint32_t, const Buffer&,
                                     Buffer* response) {
    if (node == 1) return Status::WrongOwner("key moved");
    if (node == 3) return Status::FailedPrecondition("checkpoint surpassed");
    response->push_back(static_cast<uint8_t>(node));
    return Status::OK();
  });
  std::vector<Buffer> responses(4);
  std::vector<RpcCall> calls(4);
  for (NodeId node = 0; node < 4; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  const Status status = transport->ParallelCall(&calls);
  EXPECT_EQ(status.code(), StatusCode::kWrongOwner) << status.ToString();
  EXPECT_NE(status.message().find("node 1"), std::string::npos);
  EXPECT_NE(status.message().find("node 3"), std::string::npos);
  EXPECT_EQ(calls[1].status.code(), StatusCode::kWrongOwner);
  EXPECT_NE(calls[1].status.message().find("key moved"), std::string::npos);
  EXPECT_EQ(calls[3].status.code(), StatusCode::kFailedPrecondition);
  for (NodeId node : {0u, 2u}) {
    EXPECT_TRUE(calls[node].status.ok()) << "node " << node;
    EXPECT_EQ(responses[node], Buffer({static_cast<uint8_t>(node)}));
  }
}

/// A transport that serves registered handlers in process and counts
/// every CallAsync submission before handing it to the base class.
class CountingTransport final : public Transport {
 public:
  ~CountingTransport() override { ShutdownCallAsync(); }

  void RegisterNode(NodeId node, RpcHandler handler) {
    handlers_[node] = std::move(handler);
  }

  Status CallOnce(NodeId node, uint32_t method, const Buffer& request,
                  Buffer* response) override {
    response->clear();
    return handlers_.at(node)(method, request, response);
  }

  void CallAsync(NodeId node, uint32_t method, const Buffer& request,
                 Buffer* response, std::function<void(Status)> done) override {
    submissions.fetch_add(1);
    Transport::CallAsync(node, method, request, response, std::move(done));
  }

  std::atomic<int> submissions{0};

 private:
  // Written before any traffic, read-only afterwards.
  std::unordered_map<NodeId, RpcHandler> handlers_;
};

/// Issues one call to each of `nodes`, all with `request`.
Status FanOut(Transport* transport, const std::vector<NodeId>& nodes,
              const Buffer& request, std::vector<Buffer>* responses) {
  responses->assign(nodes.size(), Buffer());
  std::vector<RpcCall> calls(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    calls[i] = {nodes[i], 0, &request, &(*responses)[i], Status::OK()};
  }
  return transport->ParallelCall(&calls);
}

TEST(ParallelCallTest, EveryCallIsSubmittedThroughCallAsync) {
  CountingTransport transport;
  for (NodeId node = 0; node < 4; ++node) {
    transport.RegisterNode(node, [node](uint32_t, const Buffer& request,
                                        Buffer* response) {
      *response = request;
      response->push_back(static_cast<uint8_t>(node));
      return Status::OK();
    });
  }
  constexpr int kFanOuts = 20;
  const Buffer request = {42};
  for (int round = 0; round < kFanOuts; ++round) {
    std::vector<Buffer> responses;
    ASSERT_TRUE(FanOut(&transport, {0, 1, 2, 3}, request, &responses).ok());
    for (NodeId node = 0; node < 4; ++node) {
      EXPECT_EQ(responses[node], Buffer({42, static_cast<uint8_t>(node)}));
    }
  }
  // calls[0] runs inline; the other n - 1 go through the virtual CallAsync
  // whether a pool thread or the caller ends up serving them.
  EXPECT_EQ(transport.submissions.load(), kFanOuts * 3);
}

TEST(ParallelCallTest, CallerServesCallsThePoolHasNotStarted) {
  // Occupy every fan-out pool thread with a call that waits on a latch.
  // The pool is the transport's own (max(8, 2 x cores) threads); the test
  // itself starts one thread.
  const int pool_threads = Transport::FanOutPoolThreads();
  CountingTransport transport;
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool latch_open = false;
  std::atomic<int> blocked{0};
  constexpr NodeId kBlockingNode = 100;
  transport.RegisterNode(kBlockingNode, [&](uint32_t, const Buffer&,
                                            Buffer*) {
    blocked.fetch_add(1);
    std::unique_lock<std::mutex> lock(latch_mutex);
    latch_cv.wait(lock, [&] { return latch_open; });
    return Status::OK();
  });
  std::vector<std::thread::id> served_by(4);
  for (NodeId node = 0; node < 4; ++node) {
    transport.RegisterNode(node, [&served_by, node](uint32_t, const Buffer&,
                                                    Buffer* response) {
      served_by[node] = std::this_thread::get_id();
      response->push_back(static_cast<uint8_t>(node));
      return Status::OK();
    });
  }
  auto open_latch = [&] {
    std::lock_guard<std::mutex> lock(latch_mutex);
    latch_open = true;
    latch_cv.notify_all();
  };

  const Buffer empty;
  std::vector<Buffer> blocker_responses(pool_threads);
  std::atomic<int> blockers_done{0};
  for (int i = 0; i < pool_threads; ++i) {
    transport.CallAsync(kBlockingNode, 0, empty, &blocker_responses[i],
                        [&](Status) { blockers_done.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (blocked.load() < pool_threads &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(blocked.load(), pool_threads) << "pool threads never all busy";

  // A 4-node fan-out to other nodes must finish while the latch is closed.
  std::vector<Buffer> responses;
  std::promise<Status> result;
  std::future<Status> finished = result.get_future();
  std::thread::id caller;
  std::thread fan_out([&] {
    caller = std::this_thread::get_id();
    result.set_value(FanOut(&transport, {0, 1, 2, 3}, empty, &responses));
  });
  const bool done_while_latched =
      finished.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  open_latch();
  fan_out.join();
  EXPECT_TRUE(done_while_latched)
      << "the fan-out waited for a busy pool thread";
  EXPECT_TRUE(finished.get().ok());
  for (NodeId node = 0; node < 4; ++node) {
    EXPECT_EQ(responses[node], Buffer({static_cast<uint8_t>(node)}));
    if (done_while_latched) {
      EXPECT_EQ(served_by[node], caller);
    }
  }
  // The caller stole nodes 1-3, yet each was still submitted once.
  EXPECT_EQ(transport.submissions.load(), pool_threads + 3);
  while (blockers_done.load() < pool_threads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(TcpTest, RoundTripOverLoopback) {
  auto server = TcpServer::Start(0, [](uint32_t method,
                                       const Buffer& request,
                                       Buffer* response) {
    Writer writer(response);
    writer.PutU32(method * 2);
    writer.PutRaw(request.data(), request.size());
    return Status::OK();
  }).ValueOrDie();

  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  Buffer request = {9, 8, 7};
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 21, request, &response).ok());
  Reader reader(response);
  uint32_t doubled = 0;
  ASSERT_TRUE(reader.GetU32(&doubled).ok());
  EXPECT_EQ(doubled, 42u);
  std::vector<uint8_t> echoed(3);
  ASSERT_TRUE(reader.GetRaw(echoed.data(), 3).ok());
  EXPECT_EQ(echoed, std::vector<uint8_t>({9, 8, 7}));
}

TEST(TcpTest, RemoteErrorSurfacesMessage) {
  auto server = TcpServer::Start(0, [](uint32_t, const Buffer&, Buffer*) {
    return Status::InvalidArgument("bad payload");
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  Buffer response;
  auto status = transport.Call(0, 1, {}, &response);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("bad payload"), std::string::npos);
}

// The server sends the handler's status code as the frame tag; the client
// must surface that code, not a generic internal error, so a routing
// redirect or a rejected checkpoint is handled as such over TCP.
TEST(TcpTest, RemoteErrorKeepsCode) {
  auto server = TcpServer::Start(0, [](uint32_t method, const Buffer&,
                                       Buffer*) {
    if (method == 1) return Status::WrongOwner("slot 7 moved");
    if (method == 2) {
      return Status::FailedPrecondition("checkpoint batch already surpassed");
    }
    return Status::OK();
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  Buffer response;
  const Status redirect = transport.Call(0, 1, {}, &response);
  EXPECT_EQ(redirect.code(), StatusCode::kWrongOwner) << redirect.ToString();
  EXPECT_NE(redirect.message().find("slot 7 moved"), std::string::npos);
  const Status rejected = transport.Call(0, 2, {}, &response);
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition)
      << rejected.ToString();
  EXPECT_TRUE(transport.Call(0, 3, {}, &response).ok());
}

TEST(TcpTest, MultipleSequentialCallsReuseConnection) {
  std::atomic<int> calls{0};
  auto server = TcpServer::Start(0, [&](uint32_t, const Buffer&,
                                        Buffer* response) {
    response->push_back(static_cast<uint8_t>(calls.fetch_add(1)));
    return Status::OK();
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  for (int i = 0; i < 5; ++i) {
    Buffer response;
    ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
    EXPECT_EQ(response[0], i);
  }
  EXPECT_EQ(calls.load(), 5);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", 1);  // reserved port, nothing listening
  Buffer response;
  EXPECT_FALSE(transport.Call(0, 0, {}, &response).ok());
}

TEST(TcpTest, OversizedPayloadRejectedAtSender) {
  std::atomic<int> calls{0};
  auto server = TcpServer::Start(0, [&](uint32_t, const Buffer& request,
                                        Buffer* response) {
    calls.fetch_add(1);
    *response = request;
    return Status::OK();
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());

  Buffer oversized(kMaxFramePayloadBytes + 1, 0);
  Buffer response;
  auto status = transport.Call(0, 0, oversized, &response);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls.load(), 0);  // rejected before any bytes hit the wire

  // The connection is still usable afterwards: nothing partial was sent.
  Buffer request = {1, 2, 3};
  ASSERT_TRUE(transport.Call(0, 0, request, &response).ok());
  EXPECT_EQ(response, request);
  EXPECT_EQ(calls.load(), 1);
}

TEST(TcpTest, ParallelCallsToOneNodeUseSeparateConnections) {
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  auto server = TcpServer::Start(0, [&](uint32_t, const Buffer& request,
                                        Buffer* response) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    in_flight.fetch_sub(1);
    *response = request;
    return Status::OK();
  }).ValueOrDie();

  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5; ++i) {
        Buffer request = {static_cast<uint8_t>(i)};
        Buffer response;
        if (!transport.Call(0, 0, request, &response).ok() ||
            response != request) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // With a per-node connection pool the four client threads overlap instead
  // of serializing on one endpoint mutex.
  EXPECT_GT(max_in_flight.load(), 1);
}

TEST(TcpTest, FinishedConnectionsAreReaped) {
  auto server = TcpServer::Start(0, [](uint32_t, const Buffer& request,
                                       Buffer* response) {
    *response = request;
    return Status::OK();
  }).ValueOrDie();

  for (int i = 0; i < 8; ++i) {
    TcpTransport transport;  // dtor closes its pooled connection
    transport.AddNode(0, "127.0.0.1", server->port());
    Buffer response;
    ASSERT_TRUE(transport.Call(0, 0, {1}, &response).ok());
  }
  // Closed connections unregister themselves; give the server a moment to
  // notice the EOFs.
  for (int spin = 0; spin < 100 && server->ActiveConnections() > 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(server->ActiveConnections(), 1u);
}

// ---------- Retry policy (Transport::Call over CallOnce) ----------

TEST(RetryTest, FlakyHandlerEventuallySucceeds) {
  InProcTransport transport;
  std::atomic<int> attempts{0};
  transport.RegisterNode(0, [&](uint32_t, const Buffer&, Buffer* response) {
    if (attempts.fetch_add(1) < 2) {
      return Status::Unavailable("flaky");
    }
    response->push_back(42);
    return Status::OK();
  });
  RpcOptions options;
  options.max_retries = 3;
  options.backoff_initial_ms = 1;
  transport.set_rpc_options(options);

  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
  EXPECT_EQ(response, Buffer({42}));
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(transport.stats().failed_requests.load(), 2u);
  EXPECT_EQ(transport.stats().retries.load(), 2u);
}

TEST(RetryTest, RetriesExhaustedReturnsLastError) {
  InProcTransport transport;
  std::atomic<int> attempts{0};
  transport.RegisterNode(0, [&](uint32_t, const Buffer&, Buffer*) {
    attempts.fetch_add(1);
    return Status::Unavailable("still down");
  });
  RpcOptions options;
  options.max_retries = 2;
  transport.set_rpc_options(options);

  Buffer response;
  auto status = transport.Call(0, 0, {}, &response);
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(attempts.load(), 3);  // 1 initial + 2 retries
}

TEST(RetryTest, NonRetryableErrorFailsFast) {
  InProcTransport transport;
  std::atomic<int> attempts{0};
  transport.RegisterNode(0, [&](uint32_t, const Buffer&, Buffer*) {
    attempts.fetch_add(1);
    return Status::Aborted("semantic error");
  });
  RpcOptions options;
  options.max_retries = 5;
  transport.set_rpc_options(options);

  Buffer response;
  EXPECT_EQ(transport.Call(0, 0, {}, &response).code(),
            StatusCode::kAborted);
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_EQ(transport.stats().retries.load(), 0u);
}

TEST(RetryTest, DeadlineCapsTheRetryLoop) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Unavailable("never up");
  });
  RpcOptions options;
  options.max_retries = 1000000;
  options.deadline_ms = 30;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 5;
  transport.set_rpc_options(options);

  Buffer response;
  auto status = transport.Call(0, 0, {}, &response);
  EXPECT_EQ(status.code(), StatusCode::kTimedOut);
  EXPECT_GT(transport.stats().timeouts.load(), 0u);
  EXPECT_GT(transport.stats().retries.load(), 0u);
}

TEST(RetryTest, StaleResponseClearedBetweenAttempts) {
  InProcTransport transport;
  std::atomic<int> attempts{0};
  transport.RegisterNode(0, [&](uint32_t, const Buffer&, Buffer* response) {
    if (attempts.fetch_add(1) == 0) {
      response->push_back(99);  // partial junk before the failure
      return Status::IoError("broke mid-response");
    }
    response->push_back(1);
    return Status::OK();
  });
  RpcOptions options;
  options.max_retries = 1;
  transport.set_rpc_options(options);

  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {}, &response).ok());
  EXPECT_EQ(response, Buffer({1}));  // junk from attempt 1 not visible
}

// ---------- CallAsync lifetime ----------

TEST(CallAsyncTest, CompletionsFinishBeforeTransportDestruction) {
  std::atomic<int> completed{0};
  constexpr int kCalls = 32;
  std::vector<Buffer> requests(kCalls);
  std::vector<Buffer> responses(kCalls);
  {
    InProcTransport transport;
    transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer* response) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      response->push_back(7);
      return Status::OK();
    });
    for (int i = 0; i < kCalls; ++i) {
      transport.CallAsync(0, 0, requests[i], &responses[i],
                          [&](Status status) {
                            EXPECT_TRUE(status.ok());
                            completed.fetch_add(1);
                          });
    }
    // Transport destroyed here with completions possibly still queued: the
    // dtor must drain them, not abandon or race them.
  }
  EXPECT_EQ(completed.load(), kCalls);
  for (const Buffer& response : responses) {
    EXPECT_EQ(response, Buffer({7}));
  }
}

// ---------- TCP fault paths ----------

TEST(TcpTest, ConnectionRefusedIsUnavailable) {
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", 1);  // reserved port, nothing listening
  Buffer response;
  EXPECT_TRUE(transport.Call(0, 0, {}, &response).IsUnavailable());
}

TEST(TcpTest, SurvivesServerRestartOnSamePort) {
  std::atomic<int> generation{1};
  auto handler = [&](uint32_t, const Buffer& request, Buffer* response) {
    *response = request;
    response->push_back(static_cast<uint8_t>(generation.load()));
    return Status::OK();
  };
  auto server = TcpServer::Start(0, handler).ValueOrDie();
  const uint16_t port = server->port();

  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", port);
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {5}, &response).ok());
  EXPECT_EQ(response, Buffer({5, 1}));

  // Server process "restarts": every pooled client connection is now dead.
  // Sending on one raises EPIPE — which must surface as an error, not a
  // SIGPIPE process kill — and the transport must transparently redial.
  server.reset();
  generation.store(2);
  server = TcpServer::Start(port, handler).ValueOrDie();

  ASSERT_TRUE(transport.Call(0, 0, {6}, &response).ok());
  EXPECT_EQ(response, Buffer({6, 2}));

  // And the fresh connection pools normally afterwards.
  ASSERT_TRUE(transport.Call(0, 0, {7}, &response).ok());
  EXPECT_EQ(response, Buffer({7, 2}));
}

TEST(TcpTest, ServerGoneMidSessionFailsThenRecoversViaRetry) {
  auto handler = [](uint32_t, const Buffer& request, Buffer* response) {
    *response = request;
    return Status::OK();
  };
  auto server = TcpServer::Start(0, handler).ValueOrDie();
  const uint16_t port = server->port();

  TcpTransport transport;
  RpcOptions options;
  options.max_retries = 0;
  transport.set_rpc_options(options);
  transport.AddNode(0, "127.0.0.1", port);
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, {1}, &response).ok());

  // Server down entirely: the pooled connection is stale AND redial is
  // refused, so the call fails with a retryable code.
  server.reset();
  auto status = transport.Call(0, 0, {2}, &response);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsRetryable(status.code())) << status.ToString();

  // Back up: the next call (a fresh dial) succeeds without any pool state
  // poisoning it.
  server = TcpServer::Start(port, handler).ValueOrDie();
  ASSERT_TRUE(transport.Call(0, 0, {3}, &response).ok());
  EXPECT_EQ(response, Buffer({3}));
}

TEST(TcpTest, ConcurrentClients) {
  auto server = TcpServer::Start(0, [](uint32_t, const Buffer& request,
                                       Buffer* response) {
    *response = request;
    return Status::OK();
  }).ValueOrDie();

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      TcpTransport transport;
      transport.AddNode(0, "127.0.0.1", server->port());
      for (int i = 0; i < 20; ++i) {
        Buffer request = {static_cast<uint8_t>(t), static_cast<uint8_t>(i)};
        Buffer response;
        if (!transport.Call(0, 0, request, &response).ok() ||
            response != request) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------- TcpTransport's caller-thread fan-out ----------

/// One call per node of [0, n): node i gets method i and request {i}.
struct FanOutCalls {
  explicit FanOutCalls(NodeId n) : requests(n), responses(n), calls(n) {
    for (NodeId node = 0; node < n; ++node) {
      requests[node] = {static_cast<uint8_t>(node)};
      calls[node] = {node, node, &requests[node], &responses[node],
                     Status::OK()};
    }
  }

  Status Run(Transport* transport) { return transport->ParallelCall(&calls); }

  std::vector<Buffer> requests;
  std::vector<Buffer> responses;
  std::vector<RpcCall> calls;
};

/// Replies with the request followed by the method.
Status EchoWithMethod(NodeId, uint32_t method, const Buffer& request,
                      Buffer* response) {
  *response = request;
  response->push_back(static_cast<uint8_t>(method));
  return Status::OK();
}

/// Samples recorded by every net.rpc_ns instrument of the process.
uint64_t RpcLatencySamples() {
  uint64_t samples = 0;
  for (const obs::MetricValue& metric :
       obs::MetricsRegistry::Default().Snapshot().metrics) {
    if (metric.name == "net.rpc_ns") samples += metric.distribution.count();
  }
  return samples;
}

/// The process's thread count, from the Threads: line of /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(TcpFanOutTest, SleepingHandlersOverlap) {
  TcpNodes nodes(4, [](NodeId, uint32_t, const Buffer&, Buffer*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::OK();
  });
  // Best of three, so one descheduled run on a busy host does not decide.
  auto best = std::chrono::steady_clock::duration::max();
  for (int round = 0; round < 3; ++round) {
    FanOutCalls fan_out(4);
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(fan_out.Run(&nodes.transport).ok());
    best = std::min(best, std::chrono::steady_clock::now() - start);
  }
  // Four 20 ms handlers one after another would take 80 ms.
  EXPECT_LT(best, std::chrono::milliseconds(40));
}

TEST(TcpFanOutTest, CountsMatchBlockingCalls) {
  TcpNodes nodes(4, [](NodeId node, uint32_t method, const Buffer& request,
                       Buffer* response) {
    if (node == 3) return Status::WrongOwner("key moved");
    return EchoWithMethod(node, method, request, response);
  });
  const NetStats::Snapshot before = nodes.transport.stats().TakeSnapshot();
  const uint64_t samples_before = RpcLatencySamples();
  FanOutCalls blocking(4);
  for (RpcCall& call : blocking.calls) {
    call.status = nodes.transport.Call(call.node, call.method, *call.request,
                                       call.response);
  }
  const NetStats::Snapshot mid = nodes.transport.stats().TakeSnapshot();
  const uint64_t samples_mid = RpcLatencySamples();
  FanOutCalls fan_out(4);
  EXPECT_EQ(fan_out.Run(&nodes.transport).code(), StatusCode::kWrongOwner);
  const NetStats::Snapshot after = nodes.transport.stats().TakeSnapshot();
  const uint64_t samples_after = RpcLatencySamples();

  for (NodeId node = 0; node < 4; ++node) {
    EXPECT_EQ(fan_out.calls[node].status.code(),
              blocking.calls[node].status.code());
    EXPECT_EQ(fan_out.responses[node], blocking.responses[node]);
  }
  EXPECT_EQ(mid.requests - before.requests, 4u);
  EXPECT_EQ(after.requests - mid.requests, mid.requests - before.requests);
  EXPECT_EQ(after.bytes_sent - mid.bytes_sent,
            mid.bytes_sent - before.bytes_sent);
  EXPECT_EQ(after.bytes_received - mid.bytes_received,
            mid.bytes_received - before.bytes_received);
  EXPECT_EQ(mid.failed_requests - before.failed_requests, 1u);
  EXPECT_EQ(after.failed_requests - mid.failed_requests,
            mid.failed_requests - before.failed_requests);
  EXPECT_EQ(after.retries - mid.retries, 0u);
  EXPECT_EQ(after.timeouts - mid.timeouts, 0u);
  EXPECT_EQ(samples_mid - samples_before, 4u);
  EXPECT_EQ(samples_after - samples_mid, 4u);
}

TEST(TcpFanOutTest, StartsNoThread) {
  TcpNodes nodes(4, EchoWithMethod);
  // A blocking Call per node dials it, and each server starts a thread for
  // the new connection; the fan-outs below reuse the pooled connections.
  for (NodeId node = 0; node < 4; ++node) {
    Buffer response;
    ASSERT_TRUE(nodes.transport.Call(node, node, {}, &response).ok());
  }
  const int threads = ProcessThreads();
  ASSERT_GT(threads, 0);
  for (int round = 0; round < 3; ++round) {
    FanOutCalls fan_out(4);
    ASSERT_TRUE(fan_out.Run(&nodes.transport).ok());
    for (NodeId node = 0; node < 4; ++node) {
      EXPECT_EQ(fan_out.responses[node],
                Buffer({static_cast<uint8_t>(node),
                        static_cast<uint8_t>(node)}));
    }
  }
  // The base fan-out would have started its pool of FanOutPoolThreads().
  EXPECT_EQ(ProcessThreads(), threads);
}

TEST(TcpFanOutTest, ServerRestartBetweenFanOutsIsInvisible) {
  std::array<std::atomic<int>, 4> runs{};
  TcpNodes nodes(4, [&runs](NodeId node, uint32_t method,
                            const Buffer& request, Buffer* response) {
    runs[node].fetch_add(1);
    return EchoWithMethod(node, method, request, response);
  });
  ASSERT_TRUE(FanOutCalls(4).Run(&nodes.transport).ok());
  nodes.RestartAll();
  for (auto& count : runs) count.store(0);

  FanOutCalls fan_out(4);
  ASSERT_TRUE(fan_out.Run(&nodes.transport).ok());
  for (NodeId node = 0; node < 4; ++node) {
    EXPECT_EQ(runs[node].load(), 1) << "node " << node;
    EXPECT_EQ(fan_out.responses[node],
              Buffer({static_cast<uint8_t>(node),
                      static_cast<uint8_t>(node)}));
  }
}

TEST(TcpFanOutTest, NodeDownRetriesLikeABlockingCall) {
  TcpNodes nodes(4, EchoWithMethod);
  RpcOptions options;
  options.max_retries = 2;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 1;
  nodes.transport.set_rpc_options(options);
  ASSERT_TRUE(FanOutCalls(4).Run(&nodes.transport).ok());
  nodes.servers[2].reset();

  const NetStats::Snapshot before = nodes.transport.stats().TakeSnapshot();
  FanOutCalls fan_out(4);
  EXPECT_TRUE(fan_out.Run(&nodes.transport).IsUnavailable());
  const NetStats::Snapshot mid = nodes.transport.stats().TakeSnapshot();
  Buffer response;
  EXPECT_TRUE(nodes.transport.Call(2, 2, {2}, &response).IsUnavailable());
  const NetStats::Snapshot after = nodes.transport.stats().TakeSnapshot();

  EXPECT_TRUE(fan_out.calls[2].status.IsUnavailable())
      << fan_out.calls[2].status.ToString();
  for (NodeId node : {0u, 1u, 3u}) {
    EXPECT_TRUE(fan_out.calls[node].status.ok()) << "node " << node;
    EXPECT_EQ(fan_out.responses[node],
              Buffer({static_cast<uint8_t>(node),
                      static_cast<uint8_t>(node)}));
  }
  // One first attempt and two retries, in the fan-out as in a Call.
  EXPECT_EQ(mid.failed_requests - before.failed_requests, 3u);
  EXPECT_EQ(mid.retries - before.retries, 2u);
  EXPECT_EQ(after.failed_requests - mid.failed_requests,
            mid.failed_requests - before.failed_requests);
  EXPECT_EQ(after.retries - mid.retries, mid.retries - before.retries);
  EXPECT_EQ(mid.requests - before.requests, 3u);
}

TEST(TcpFanOutTest, OversizedRequestFailsAloneAndKeepsItsConnection) {
  std::array<std::atomic<int>, 4> runs{};
  TcpNodes nodes(4, [&runs](NodeId node, uint32_t method,
                            const Buffer& request, Buffer* response) {
    runs[node].fetch_add(1);
    return EchoWithMethod(node, method, request, response);
  });
  ASSERT_TRUE(FanOutCalls(4).Run(&nodes.transport).ok());
  ASSERT_EQ(nodes.servers[1]->ActiveConnections(), 1u);
  {
    FanOutCalls fan_out(4);
    const Buffer oversized(kMaxFramePayloadBytes + 1, 0);
    fan_out.calls[1].request = &oversized;
    EXPECT_EQ(fan_out.Run(&nodes.transport).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(fan_out.calls[1].status.code(), StatusCode::kInvalidArgument);
    for (NodeId node : {0u, 2u, 3u}) {
      EXPECT_TRUE(fan_out.calls[node].status.ok()) << "node " << node;
    }
  }
  EXPECT_EQ(runs[1].load(), 1);  // only the first fan-out reached it
  // The same connection carries the next request: nothing partial was
  // written on it, and it went back to the pool.
  FanOutCalls fan_out(4);
  ASSERT_TRUE(fan_out.Run(&nodes.transport).ok());
  EXPECT_EQ(fan_out.responses[1], Buffer({1, 1}));
  EXPECT_EQ(runs[1].load(), 2);
  EXPECT_EQ(nodes.servers[1]->ActiveConnections(), 1u);
}

// ---------- Frame I/O against a raw-socket peer ----------

Buffer Frame(uint32_t tag, const Buffer& payload) {
  const uint32_t len = static_cast<uint32_t>(payload.size()) + 4;
  Buffer frame(8);
  std::memcpy(frame.data(), &len, 4);
  std::memcpy(frame.data() + 4, &tag, 4);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool ReadExactly(int fd, uint8_t* out, size_t n) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, out + done, n - done);
    if (r <= 0) return false;
    done += static_cast<size_t>(r);
  }
  return true;
}

bool WriteAll(int fd, const Buffer& bytes) {
  return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(bytes.size());
}

/// Reads one frame; false on a short read.
bool ReadFrame(int fd, uint32_t* tag, Buffer* payload) {
  uint8_t header[8];
  if (!ReadExactly(fd, header, sizeof(header))) return false;
  uint32_t len = 0;
  std::memcpy(&len, header, 4);
  std::memcpy(tag, header + 4, 4);
  payload->resize(len - 4);
  return ReadExactly(fd, payload->data(), payload->size());
}

/// Sets a 5 s receive timeout, so a script whose peer misbehaves fails
/// instead of hanging.
void ArmReceiveTimeout(int fd) {
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// A loopback listener whose first accepted connection `script` drives
/// byte by byte, as no TcpServer would.
class RawPeer {
 public:
  explicit RawPeer(std::function<void(int fd)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      ADD_FAILURE() << "raw listener: " << std::strerror(errno);
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ArmReceiveTimeout(fd);
      script(fd);
      ::close(fd);
    });
  }

  ~RawPeer() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes an accept nobody reached
    thread_.join();
    ::close(listen_fd_);
  }

  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

/// A TcpTransport whose node 0 is `peer`, with socket timeouts armed.
void ConnectTo(const RawPeer& peer, TcpTransport* transport) {
  RpcOptions options;
  options.deadline_ms = 5000;
  transport->set_rpc_options(options);
  transport->AddNode(0, "127.0.0.1", peer.port());
}

TEST(TcpFrameTest, ReplyWrittenOneByteAtATimeIsReassembled) {
  RawPeer peer([](int fd) {
    uint32_t method = 0;
    Buffer request;
    if (!ReadFrame(fd, &method, &request)) return;
    request.push_back(static_cast<uint8_t>(method));
    for (uint8_t byte : Frame(0, request)) {
      if (!WriteAll(fd, {byte})) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  TcpTransport transport;
  ConnectTo(peer, &transport);
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 7, {1, 2, 3}, &response).ok());
  EXPECT_EQ(response, Buffer({1, 2, 3, 7}));
}

TEST(TcpFrameTest, ReplyLargerThanTheFirstReadIsReadWhole) {
  Buffer payload(100'000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 7);
  }
  RawPeer peer([&payload](int fd) {
    uint32_t method = 0;
    Buffer request;
    if (ReadFrame(fd, &method, &request)) WriteAll(fd, Frame(0, payload));
  });
  TcpTransport transport;
  ConnectTo(peer, &transport);
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 1, {}, &response).ok());
  EXPECT_EQ(response, payload);
}

// 16 MiB exceeds what a loopback socket buffers, so each end's sendmsg
// returns short and the rest of the frame goes out in later calls.
TEST(TcpFrameTest, FrameLargerThanTheSocketBufferSurvivesPartialSends) {
  auto server = TcpServer::Start(0, [](uint32_t, const Buffer& request,
                                       Buffer* response) {
    *response = request;
    return Status::OK();
  }).ValueOrDie();
  TcpTransport transport;
  transport.AddNode(0, "127.0.0.1", server->port());
  Buffer request(16u << 20);
  for (size_t i = 0; i < request.size(); ++i) {
    request[i] = static_cast<uint8_t>(i * 13 + (i >> 16));
  }
  Buffer response;
  ASSERT_TRUE(transport.Call(0, 0, request, &response).ok());
  EXPECT_TRUE(response == request);
}

TEST(TcpFrameTest, PipelinedRequestsGetRepliesInOrder) {
  auto server = TcpServer::Start(0, [](uint32_t method, const Buffer& request,
                                       Buffer* response) {
    response->push_back(static_cast<uint8_t>(method));
    response->insert(response->end(), request.begin(), request.end());
    return Status::OK();
  }).ValueOrDie();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server->port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ArmReceiveTimeout(fd);
  Buffer both = Frame(1, {10});
  const Buffer second = Frame(2, {20, 21});
  both.insert(both.end(), second.begin(), second.end());
  ASSERT_TRUE(WriteAll(fd, both));  // two frames in one write
  uint32_t tag = 99;
  Buffer reply;
  ASSERT_TRUE(ReadFrame(fd, &tag, &reply));
  EXPECT_EQ(tag, 0u);
  EXPECT_EQ(reply, Buffer({1, 10}));
  ASSERT_TRUE(ReadFrame(fd, &tag, &reply));
  EXPECT_EQ(tag, 0u);
  EXPECT_EQ(reply, Buffer({2, 20, 21}));
  ::close(fd);
}

TEST(TcpFrameTest, BadReplyLengthIsCorruption) {
  for (const uint32_t len : {0u, 3u, static_cast<uint32_t>(kMaxFrameBytes + 1)}) {
    RawPeer peer([len](int fd) {
      uint32_t method = 0;
      Buffer request;
      if (!ReadFrame(fd, &method, &request)) return;
      Buffer header(8, 0);
      std::memcpy(header.data(), &len, 4);
      WriteAll(fd, header);
    });
    TcpTransport transport;
    ConnectTo(peer, &transport);
    Buffer response;
    EXPECT_EQ(transport.Call(0, 0, {}, &response).code(),
              StatusCode::kCorruption)
        << "length " << len;
  }
}

TEST(TcpFrameTest, BytesPastTheReplyAreCorruptionAndCloseTheConnection) {
  bool closed_by_client = false;
  {
    RawPeer peer([&closed_by_client](int fd) {
      uint32_t method = 0;
      Buffer request;
      if (!ReadFrame(fd, &method, &request)) return;
      Buffer reply = Frame(0, {5});
      reply.push_back(0xEE);  // one byte no request asked for
      if (!WriteAll(fd, reply)) return;
      uint8_t byte = 0;
      closed_by_client = ::read(fd, &byte, 1) == 0;
    });
    TcpTransport transport;
    ConnectTo(peer, &transport);
    Buffer response;
    EXPECT_EQ(transport.Call(0, 0, {}, &response).code(),
              StatusCode::kCorruption);
  }  // joins the peer's script
  EXPECT_TRUE(closed_by_client);
}

}  // namespace
}  // namespace oe::net
