#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lan {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= 9; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "payload");
}

// ---------- Rng ----------

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(4);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(6);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.NextGaussian(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double variance = (sum_sq - kSamples * mean * mean) / (kSamples - 1);
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(std::sqrt(variance), 2.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(8);
  auto sample = rng.SampleWithoutReplacement(50, 20);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleDiscreteRespectsZeros) {
  Rng rng(9);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.SampleDiscrete(weights), 1u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(10);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(11);
  Rng b = a.Fork();
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

// ---------- Percentile ----------

TEST(PercentileTest, Endpoints) {
  std::vector<double> v = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
}

TEST(PercentileTest, Interpolates) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.5);
}

TEST(SearchStatsTest, MergeAddsFields) {
  SearchStats a, b;
  a.ndc = 3;
  a.stages.seconds[static_cast<size_t>(Stage::kGed)] = 1.0;
  a.stages.counts[static_cast<size_t>(Stage::kGed)] = 3;
  b.ndc = 4;
  b.routing_steps = 2;
  b.stages.seconds[static_cast<size_t>(Stage::kModelInference)] = 0.5;
  b.stages.counts[static_cast<size_t>(Stage::kModelInference)] = 1;
  a.Merge(b);
  EXPECT_EQ(a.ndc, 7);
  EXPECT_EQ(a.routing_steps, 2);
  EXPECT_DOUBLE_EQ(a.stages.SecondsOf(Stage::kGed), 1.0);
  EXPECT_EQ(a.stages.CountOf(Stage::kGed), 3);
  EXPECT_EQ(a.stages.CountOf(Stage::kModelInference), 1);
  EXPECT_DOUBLE_EQ(a.stages.TotalSeconds(), 1.5);
}

// ---------- string_util ----------

TEST(StringUtilTest, SplitDropsEmptyTokens) {
  auto parts = SplitString("a,,b,c,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("graph db", "graph"));
  EXPECT_FALSE(StartsWith("graph", "graph db"));
}

TEST(StringUtilTest, JoinStrings) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

// ---------- ThreadPool ----------

// Every pool user runs work through the instance ParallelFor: each index
// runs exactly once, the pool is reusable call after call, and a call made
// from inside one of the pool's own tasks runs inline instead of
// deadlocking on the pool's queue.
TEST(ThreadPoolTest, PoolParallelForCoversRangeAndNests) {
  ThreadPool pool(4);
  for (int call = 0; call < 2; ++call) {
    std::vector<std::atomic<int>> hits(1000);
    pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "call " << call << " index " << i;
    }
  }

  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> nested(kOuter * kInner);
  pool.ParallelFor(kOuter, [&](size_t outer) {
    pool.ParallelFor(kInner, [&](size_t inner) {
      nested[outer * kInner + inner].fetch_add(1);
    });
  });
  for (size_t i = 0; i < nested.size(); ++i) {
    EXPECT_EQ(nested[i].load(), 1) << "nested index " << i;
  }
}

// A call returns once its items are done, not once every helper slot it
// opened has been taken: here both workers of a 2-worker pool are held by
// another thread's loop, so the caller drains both of its items itself and
// withdraws its untaken slot.
TEST(ThreadPoolTest, PoolParallelForReturnsWhileWorkersAreBusy) {
  ThreadPool pool(2);
  std::latch all_blocked(3);  // the busy caller and both workers
  std::latch release(1);
  std::thread busy([&] {
    pool.ParallelFor(3, [&](size_t) {
      all_blocked.count_down();
      release.wait();
    });
  });
  all_blocked.wait();

  std::vector<std::atomic<int>> hits(2);
  std::promise<void> returned;
  std::thread caller([&] {
    pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    returned.set_value();
  });
  const std::future_status status =
      returned.get_future().wait_for(std::chrono::seconds(10));
  release.count_down();  // the watchdog: let the pool go either way
  caller.join();
  busy.join();
  EXPECT_EQ(status, std::future_status::ready)
      << "ParallelFor waited for workers after its items were done";
  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 1);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<int> hits(1000, 0);
  ThreadPool pool(4);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace lan
