#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/message.h"
#include "net/tcp.h"
#include "net/transport.h"

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

TEST(ParallelCallTest, FansOutAndReassembles) {
  InProcTransport transport;
  for (NodeId node = 0; node < 6; ++node) {
    transport.RegisterNode(node, [node](uint32_t method, const Buffer& request,
                                        Buffer* response) {
      *response = request;
      response->push_back(static_cast<uint8_t>(node));
      response->push_back(static_cast<uint8_t>(method));
      return Status::OK();
    });
  }
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
  ASSERT_TRUE(transport.ParallelCall(&calls).ok());
  for (NodeId node = 0; node < 6; ++node) {
    Buffer expected = {static_cast<uint8_t>(100 + node),
                       static_cast<uint8_t>(node),
                       static_cast<uint8_t>(7 + node)};
    EXPECT_EQ(responses[node], expected) << "node " << node;
    EXPECT_TRUE(calls[node].status.ok());
  }
}

TEST(ParallelCallTest, FirstErrorInCallOrderWins) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer*) {
    // Finishes last but sits first in the call array.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::Aborted("first");
  });
  transport.RegisterNode(1, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Internal("second");
  });
  transport.RegisterNode(2, [](uint32_t, const Buffer&, Buffer*) {
    return Status::OK();
  });
  std::vector<Buffer> responses(3);
  std::vector<RpcCall> calls(3);
  for (NodeId node = 0; node < 3; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport.ParallelCall(&calls);
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("first"), std::string::npos);
  // Every per-call status is still individually reported.
  EXPECT_EQ(calls[1].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(calls[2].status.ok());
}

TEST(ParallelCallTest, CallsActuallyOverlap) {
  InProcTransport transport;
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  for (NodeId node = 0; node < 4; ++node) {
    transport.RegisterNode(node, [&](uint32_t, const Buffer&, Buffer*) {
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      in_flight.fetch_sub(1);
      return Status::OK();
    });
  }
  std::vector<Buffer> responses(4);
  std::vector<RpcCall> calls(4);
  for (NodeId node = 0; node < 4; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  ASSERT_TRUE(transport.ParallelCall(&calls).ok());
  EXPECT_GT(max_in_flight.load(), 1);
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

// ---------- ParallelCall error aggregation ----------

TEST(ParallelCallTest, AggregatesAllFailingNodes) {
  InProcTransport transport;
  transport.RegisterNode(0, [](uint32_t, const Buffer&, Buffer*) {
    return Status::OK();
  });
  transport.RegisterNode(1, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Aborted("node one broke");
  });
  transport.RegisterNode(2, [](uint32_t, const Buffer&, Buffer*) {
    return Status::OK();
  });
  transport.RegisterNode(3, [](uint32_t, const Buffer&, Buffer*) {
    return Status::Internal("node three broke");
  });
  std::vector<Buffer> responses(4);
  std::vector<RpcCall> calls(4);
  for (NodeId node = 0; node < 4; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport.ParallelCall(&calls);
  // Code of the first failure in call order; message names every failure.
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("node 1"), std::string::npos);
  EXPECT_NE(status.message().find("node one broke"), std::string::npos);
  EXPECT_NE(status.message().find("node 3"), std::string::npos);
  EXPECT_NE(status.message().find("node three broke"), std::string::npos);
}

TEST(ParallelCallTest, HandlerFailingMidFanOutLeavesOthersIntact) {
  InProcTransport transport;
  for (NodeId node = 0; node < 5; ++node) {
    transport.RegisterNode(node, [node](uint32_t, const Buffer&,
                                        Buffer* response) {
      if (node == 2) return Status::Unavailable("mid-fan-out death");
      response->push_back(static_cast<uint8_t>(node));
      return Status::OK();
    });
  }
  std::vector<Buffer> responses(5);
  std::vector<RpcCall> calls(5);
  for (NodeId node = 0; node < 5; ++node) {
    calls[node].node = node;
    calls[node].response = &responses[node];
  }
  auto status = transport.ParallelCall(&calls);
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

}  // namespace
}  // namespace oe::net
