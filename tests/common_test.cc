#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/crc32.h"
#include "common/format.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"

namespace oe {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "key 42");
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::Corruption("bad checksum");
  Status t = s;
  EXPECT_TRUE(t.IsCorruption());
  EXPECT_EQ(t.message(), "bad checksum");
  EXPECT_TRUE(s.IsCorruption());  // source unchanged
}

TEST(StatusTest, MoveTransfersError) {
  Status s = Status::IoError("disk gone");
  Status t = std::move(s);
  EXPECT_EQ(t.code(), StatusCode::kIoError);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Status UseAssignOrReturn(int v, int* out) {
  OE_ASSIGN_OR_RETURN(int doubled, ParsePositive(v));
  *out = doubled;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(5, &out).ok());
  EXPECT_EQ(out, 10);
  EXPECT_FALSE(UseAssignOrReturn(-5, &out).ok());
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int diffs = 0;
  for (int i = 0; i < 100; ++i) diffs += (a.Next() != b.Next());
  EXPECT_GT(diffs, 90);
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomTest, GaussianMoments) {
  Random r(99);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = r.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RandomTest, ExponentialMean) {
  Random r(5);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") == 0xE3069283, a standard check value.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c("", 0), 0u); }

TEST(Crc32Test, SensitiveToEveryByte) {
  std::string data(64, 'a');
  const uint32_t base = Crc32c(data.data(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] = 'b';
    EXPECT_NE(Crc32c(mutated.data(), mutated.size()), base) << i;
  }
}

TEST(Crc32Test, MaskRoundTrip) {
  const uint32_t crc = Crc32c("openembedding", 13);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(100.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Mean(), 100.0);
  EXPECT_GE(h.max(), 100.0);
}

TEST(HistogramTest, PercentileOrdering) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Add(i);
  EXPECT_LT(h.Percentile(10), h.Percentile(50));
  EXPECT_LT(h.Percentile(50), h.Percentile(99));
  // Median of 1..10000 should be near 5000 (log-bucketed: loose bounds).
  EXPECT_GT(h.Percentile(50), 3000);
  EXPECT_LT(h.Percentile(50), 8000);
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a, b;
  a.Add(1);
  a.Add(2);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 6.0);
  EXPECT_EQ(a.min(), 1.0);
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3ULL << 30), "3.00 GiB");
}

TEST(FormatTest, Nanos) {
  EXPECT_EQ(FormatNanos(500), "500 ns");
  EXPECT_EQ(FormatNanos(2500), "2.50 us");
  EXPECT_EQ(FormatNanos(1500000000LL), "1.50 s");
}

TEST(ClockTest, WallNowNanosMonotone) {
  const Nanos a = WallNowNanos();
  const Nanos b = WallNowNanos();
  EXPECT_LE(a, b);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  EXPECT_EQ(pool.PendingTasks(), 0u);
}

TEST(ThreadPoolTest, TasksRunConcurrentlyWithQueueing) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&] { done.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 10);
}

TEST(SyncTest, SpinLockMutualExclusion) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, 40000);
}

TEST(SyncTest, BarrierReleasesAllAndElectsOneLeader) {
  constexpr int kParties = 4;
  Barrier barrier(kParties);
  std::atomic<int> leaders{0};
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 5; ++round) {
        arrived.fetch_add(1);
        if (barrier.ArriveAndWait()) leaders.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(arrived.load(), kParties * 5);
  EXPECT_EQ(leaders.load(), 5);  // exactly one leader per round
}

}  // namespace
}  // namespace oe
