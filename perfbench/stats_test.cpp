// Tests of the benchmark's own measuring helpers (stats.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(one_to(101), 0.99), 100.0);
  EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(TailQuantile, PicksTheHighestRungWithTenSamplesBeyond) {
  struct Case {
    std::size_t n;
    double q;
  };
  for (const Case c : {Case{5, 0.0}, Case{19, 0.0}, Case{20, 0.5},
                       Case{99, 0.5}, Case{100, 0.9}, Case{999, 0.9},
                       Case{1000, 0.99}, Case{9999, 0.99},
                       Case{10000, 0.999}, Case{100000, 0.9999}}) {
    const TailQuantile t = tail_quantile(one_to(c.n));
    EXPECT_EQ(t.n, c.n) << c.n;
    EXPECT_DOUBLE_EQ(t.q, c.q) << c.n;
    if (c.q > 0.0) {
      EXPECT_DOUBLE_EQ(t.value, quantile(one_to(c.n), c.q)) << c.n;
      // At least ten samples lie strictly beyond the reported value.
      const auto v = one_to(c.n);
      EXPECT_GE(std::count_if(v.begin(), v.end(),
                              [&](double x) { return x > t.value; }),
                10)
          << c.n;
    } else {
      EXPECT_TRUE(std::isnan(t.value)) << c.n;
    }
  }
}

TEST(OpenLoop, StallIsChargedToTheRequestsQueuedBehindIt) {
  // One reader, a request due every 2 ms; request 10 stalls for 40 ms.
  constexpr std::size_t kStalled = 10;
  std::vector<double> due;
  for (std::size_t i = 0; i < 60; ++i) due.push_back(0.002 * i);
  const auto timings = run_open_loop(due, 1, [](std::size_t i, unsigned) {
    if (i == kStalled) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  });
  ASSERT_EQ(timings.size(), due.size());
  EXPECT_GE(timings[kStalled].latency_s(), 0.040);
  // The next requests did no work of their own, yet each waited for the
  // stall: timing from the due time (not from the start of service) is
  // what shows it.
  for (std::size_t i = kStalled + 1; i <= kStalled + 5; ++i) {
    EXPECT_DOUBLE_EQ(timings[i].due_s, due[i]);
    EXPECT_GE(timings[i].latency_s(), 0.040 - 0.002 * (i - kStalled)) << i;
    EXPECT_LT(timings[i].service_s(), timings[i].queue_s()) << i;
  }
  // Well before the stall nothing queued.
  EXPECT_LT(timings[2].queue_s(), 0.020);
  // The generator kept its schedule while the reader was stalled.
  EXPECT_LT(timings[kStalled + 5].sent_s - due[kStalled + 5], 0.020);
}

TEST(OpenLoop, EveryRequestIsServedOnceAcrossReaders) {
  std::vector<double> due(200, 0.0);
  std::vector<int> served(due.size(), 0);
  const auto timings = run_open_loop(
      due, 3, [&](std::size_t i, unsigned) { ++served[i]; });
  for (std::size_t i = 0; i < due.size(); ++i) {
    EXPECT_EQ(served[i], 1) << i;
    EXPECT_LE(timings[i].start_s, timings[i].end_s) << i;
  }
}

TEST(Backlog, GrowsOnlyWhenLateRequestsWaitLonger) {
  std::vector<RequestTiming> flat(40), growing(40);
  for (std::size_t i = 0; i < 40; ++i) {
    flat[i] = {0.01 * i, 0.01 * i, 0.01 * i + 0.001, 0.01 * i + 0.002};
    growing[i] = {0.01 * i, 0.01 * i, 0.01 * i + 0.001 * i,
                  0.01 * i + 0.001 * i + 0.001};
  }
  EXPECT_FALSE(backlog_grows(flat, 0.005));
  EXPECT_TRUE(backlog_grows(growing, 0.005));
}

TEST(Unaccounted, SubtractsEpochWallsEvaluationsAndCheckpoints) {
  // 3.0 s call, 1.5 s of epochs, 11 RMSE evaluations of 20 ms and 11
  // checkpoints of 10 ms: 1.17 s of the call is in none of them.
  EXPECT_NEAR(unaccounted_s(3.0, 1.5, 11, 0.020, 11, 0.010), 1.17, 1e-12);
  EXPECT_DOUBLE_EQ(unaccounted_s(2.0, 2.0, 0, 0.5, 0, 0.5), 0.0);
}

}  // namespace
}  // namespace perfbench
