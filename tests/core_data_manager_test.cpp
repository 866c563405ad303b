// Tests for the DataManager's planning and strategy selection.
#include "core/data_manager.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace hcc::core {
namespace {

sim::DatasetShape netflix_shape() {
  return {"netflix", 480190, 17771, 99072112, 128};
}
sim::DatasetShape r1_shape() { return {"r1", 1948883, 1101750, 115579437, 128}; }
sim::DatasetShape wide_shape() { return {"", 2000, 90000, 4000000, 32}; }

DataManager manager_for(const sim::DatasetShape& shape) {
  comm::CommConfig comm;
  comm.codec = comm::CodecKind::kFp32;
  return DataManager(sim::paper_workstation_hetero(), shape, comm);
}

TEST(DataManager, SharesAlwaysSumToOne) {
  const DataManager mgr = manager_for(netflix_shape());
  for (PartitionStrategy s :
       {PartitionStrategy::kEven, PartitionStrategy::kDp0,
        PartitionStrategy::kDp1, PartitionStrategy::kDp2,
        PartitionStrategy::kAuto}) {
    const Plan plan = mgr.plan(s);
    const double sum =
        std::accumulate(plan.shares.begin(), plan.shares.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << partition_strategy_name(s);
    EXPECT_EQ(plan.shares.size(), 4u);
  }
}

TEST(DataManager, AutoPicksDp1ForNetflix) {
  // Netflix: compute >> sync -> Eq. 5 first branch -> DP1 (Section 4.3).
  const Plan plan = manager_for(netflix_shape()).plan(PartitionStrategy::kAuto);
  EXPECT_EQ(plan.chosen, PartitionStrategy::kDp1);
  EXPECT_TRUE(plan.prediction.sync_negligible);
}

TEST(DataManager, AutoPicksDp2ForR1) {
  // R1: sync matters -> DP2 (Section 4.3's R1/R1* case).
  const Plan plan = manager_for(r1_shape()).plan(PartitionStrategy::kAuto);
  EXPECT_EQ(plan.chosen, PartitionStrategy::kDp2);
}

TEST(DataManager, ExplicitRequestIsHonored) {
  const DataManager mgr = manager_for(netflix_shape());
  EXPECT_EQ(mgr.plan(PartitionStrategy::kDp0).chosen, PartitionStrategy::kDp0);
  EXPECT_EQ(mgr.plan(PartitionStrategy::kDp2).chosen, PartitionStrategy::kDp2);
  EXPECT_EQ(mgr.plan(PartitionStrategy::kEven).chosen,
            PartitionStrategy::kEven);
}

TEST(DataManager, GridFollowsAspectRatio) {
  EXPECT_EQ(manager_for(netflix_shape()).plan().grid, data::GridKind::kRow);
  EXPECT_EQ(manager_for(wide_shape()).plan().grid, data::GridKind::kColumn);
}

TEST(DataManager, PayloadFollowsGrid) {
  EXPECT_EQ(manager_for(netflix_shape()).plan().payload,
            comm::PayloadMode::kQOnly);
  EXPECT_EQ(manager_for(wide_shape()).plan().payload,
            comm::PayloadMode::kPOnly);
}

TEST(DataManager, Dp0FavorsFasterDevices) {
  const Plan plan = manager_for(netflix_shape()).plan(PartitionStrategy::kDp0);
  // Worker order: 2080S, 6242-24T, 2080, 6242-10T.
  EXPECT_GT(plan.shares[0], plan.shares[1]);  // 2080S > 6242
  EXPECT_GT(plan.shares[2], plan.shares[3]);  // 2080 > 6242L
  EXPECT_GT(plan.shares[0], plan.shares[3]);
}

TEST(DataManager, Dp1BalancesBetterThanDp0) {
  const DataManager mgr = manager_for(netflix_shape());
  const Plan dp0 = mgr.plan(PartitionStrategy::kDp0);
  const Plan dp1 = mgr.plan(PartitionStrategy::kDp1);
  EXPECT_LE(worker_time_spread(dp1.prediction.worker_seconds),
            worker_time_spread(dp0.prediction.worker_seconds) + 0.02);
  EXPECT_GE(dp1.dp1_rounds, 1u);
}

TEST(DataManager, ExplanationMentionsDecisions) {
  const Plan plan = manager_for(netflix_shape()).plan(PartitionStrategy::kAuto);
  EXPECT_NE(plan.explanation.find("grid=row"), std::string::npos);
  EXPECT_NE(plan.explanation.find("payload=Q"), std::string::npos);
  EXPECT_NE(plan.explanation.find("strategy=DP1"), std::string::npos);
}

TEST(DataManager, EpochConfigCarriesSharesAndComm) {
  const DataManager mgr = manager_for(netflix_shape());
  const Plan plan = mgr.plan(PartitionStrategy::kDp1);
  const sim::EpochConfig cfg = mgr.epoch_config(plan);
  ASSERT_EQ(cfg.workers.size(), plan.shares.size());
  for (std::size_t i = 0; i < cfg.workers.size(); ++i) {
    EXPECT_DOUBLE_EQ(cfg.workers[i].share, plan.shares[i]);
    EXPECT_GT(cfg.workers[i].comm.pull_bytes, 0.0);
  }
}

TEST(DataManager, LastEpochConfigPushesMore) {
  const DataManager mgr = manager_for(netflix_shape());
  const Plan plan = mgr.plan(PartitionStrategy::kDp1);
  const sim::EpochConfig mid = mgr.epoch_config(plan, false);
  const sim::EpochConfig last = mgr.epoch_config(plan, true);
  EXPECT_GT(last.workers[0].comm.push_bytes, mid.workers[0].comm.push_bytes);
}

TEST(DataManager, IndependentSecondsMatchPerfModel) {
  const DataManager mgr = manager_for(netflix_shape());
  const auto iw = mgr.independent_seconds();
  ASSERT_EQ(iw.size(), 4u);
  EXPECT_NEAR(iw[0],
              sim::compute_seconds(sim::rtx_2080s(), netflix_shape(), 1.0),
              1e-12);
}

TEST(DataManager, HighLambdaForcesDp2UnderAuto) {
  // Cranking lambda makes even Netflix's sync "non-negligible".
  comm::CommConfig comm;
  comm.codec = comm::CodecKind::kFp32;
  DataManagerOptions options;
  options.lambda = 1e9;
  DataManager mgr(sim::paper_workstation_hetero(), netflix_shape(), comm,
                  options);
  EXPECT_EQ(mgr.plan(PartitionStrategy::kAuto).chosen,
            PartitionStrategy::kDp2);
}

}  // namespace
}  // namespace hcc::core
