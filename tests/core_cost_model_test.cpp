// Tests for the Eq. 2-5 cost model.
#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "comm/strategy.hpp"

namespace hcc::core {
namespace {

sim::DatasetShape netflix_shape() {
  return {"netflix", 480190, 17771, 99072112, 128};
}
sim::DatasetShape r1_shape() { return {"r1", 1948883, 1101750, 115579437, 128}; }

sim::EpochConfig config_for(const sim::DatasetShape& shape,
                            const std::vector<double>& shares) {
  sim::EpochConfig cfg;
  cfg.shape = shape;
  cfg.server = sim::ServerSpec{};
  comm::CommConfig comm;
  comm.codec = comm::CodecKind::kFp32;
  const auto platform = sim::paper_workstation_hetero();
  for (std::size_t i = 0; i < shares.size(); ++i) {
    sim::WorkerPlan wp;
    wp.device = platform.workers[i];
    wp.share = shares[i];
    wp.comm = comm::make_comm_plan(comm, shape, wp.device);
    cfg.workers.push_back(wp);
  }
  return cfg;
}

TEST(CostModel, WorkerTimeHasPullComputePushTerms) {
  const auto shape = netflix_shape();
  const auto dev = sim::rtx_2080();
  comm::CommConfig comm;
  comm.codec = comm::CodecKind::kFp32;
  const auto plan = comm::make_comm_plan(comm, shape, dev);
  const double t = predicted_worker_seconds(dev, shape, 0.5, plan);
  const double comp = sim::compute_seconds(dev, shape, 0.5);
  EXPECT_GT(t, comp);  // comm adds on top of compute
  const double wire =
      (plan.pull_bytes + plan.push_bytes) /
      (sim::bus_bandwidth_gbs(dev.bus) * plan.bus_efficiency * 1e9);
  EXPECT_NEAR(t, comp + wire, 1e-12);
}

TEST(CostModel, StreamsDividePredictedCommTerm) {
  const auto shape = netflix_shape();
  const auto dev = sim::rtx_2080();
  comm::CommConfig comm;
  comm.codec = comm::CodecKind::kFp32;
  auto plan = comm::make_comm_plan(comm, shape, dev);
  const double t1 = predicted_worker_seconds(dev, shape, 0.5, plan);
  plan.streams = 4;
  const double t4 = predicted_worker_seconds(dev, shape, 0.5, plan);
  const double comp = sim::compute_seconds(dev, shape, 0.5);
  EXPECT_NEAR(t4 - comp, (t1 - comp) / 4.0, 1e-12);
}

TEST(CostModel, SyncSecondsMatchesEq3) {
  sim::ServerSpec server;
  sim::CommPlan plan;
  plan.sync_bytes = 4.0 * 128 * (480190.0 + 17771.0);  // k(m+n) elements
  const double t = predicted_sync_seconds(server, plan);
  const double elements = plan.sync_bytes / 4.0;
  const double expected = 3.0 * plan.sync_bytes / (server.mem_bandwidth_gbs * 1e9) +
                          elements / (server.compute_gflops * 1e9);
  EXPECT_NEAR(t, expected, expected * 1e-12);
}

TEST(CostModel, NetflixSyncIsNegligible) {
  // Netflix has a tiny Q (n = 17771): compute dominates sync by far more
  // than lambda = 10, selecting the first branch of Eq. 5 (hence DP1).
  const auto prediction =
      predict_epoch(config_for(netflix_shape(), {0.4, 0.13, 0.35, 0.12}));
  EXPECT_TRUE(prediction.sync_negligible);
  EXPECT_GT(prediction.ratio, 10.0);
  EXPECT_DOUBLE_EQ(prediction.total_s, prediction.max_worker_s);
}

TEST(CostModel, R1SyncIsNotNegligible) {
  // R1's Q has 1.1M rows: sync is comparable to compute (hence DP2).
  const auto prediction =
      predict_epoch(config_for(r1_shape(), {0.4, 0.1, 0.35, 0.15}));
  EXPECT_FALSE(prediction.sync_negligible);
  EXPECT_LT(prediction.ratio, 10.0);
  EXPECT_NEAR(prediction.total_s,
              prediction.max_worker_s + prediction.sync_s, 1e-12);
}

TEST(CostModel, LambdaBoundaryIsRespected) {
  const auto cfg = config_for(netflix_shape(), {0.4, 0.13, 0.35, 0.12});
  const auto base = predict_epoch(cfg, 10.0);
  // Raising lambda above the measured ratio flips the branch.
  const auto strict = predict_epoch(cfg, base.ratio * 2.0);
  EXPECT_FALSE(strict.sync_negligible);
  EXPECT_GT(strict.total_s, base.total_s);
}

TEST(CostModel, PredictionListsEveryWorker) {
  const auto prediction =
      predict_epoch(config_for(netflix_shape(), {0.25, 0.25, 0.25, 0.25}));
  ASSERT_EQ(prediction.worker_seconds.size(), 4u);
  for (double t : prediction.worker_seconds) EXPECT_GT(t, 0.0);
  EXPECT_DOUBLE_EQ(
      prediction.max_worker_s,
      *std::max_element(prediction.worker_seconds.begin(),
                        prediction.worker_seconds.end()));
}

TEST(CostModel, EvenSplitIsImbalancedOnHeterogeneousPlatform) {
  // An even split across 2080S/6242/2080/6242L leaves a big spread —
  // the "unbalanced data" pathology of Figure 3(a).
  const auto prediction =
      predict_epoch(config_for(netflix_shape(), {0.25, 0.25, 0.25, 0.25}));
  EXPECT_GT(worker_time_spread(prediction.worker_seconds), 0.5);
}

TEST(CostModel, SpreadOfEqualTimesIsZero) {
  EXPECT_DOUBLE_EQ(worker_time_spread({1.0, 1.0, 1.0}), 0.0);
  EXPECT_NEAR(worker_time_spread({1.0, 1.5}), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(worker_time_spread({}), 0.0);
}

TEST(CostModel, EmptyPlatformPredictsZero) {
  sim::EpochConfig cfg;
  cfg.shape = netflix_shape();
  const auto prediction = predict_epoch(cfg);
  EXPECT_DOUBLE_EQ(prediction.total_s, 0.0);
  EXPECT_TRUE(prediction.sync_negligible);
}

}  // namespace
}  // namespace hcc::core
