// Tests for the multi-node cluster extension (specs + hierarchical HCC).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <numeric>

#include "cluster/hierarchical.hpp"
#include "data/datasets.hpp"
#include "fault/plan.hpp"

namespace hcc::cluster {
namespace {

sim::DatasetShape netflix_shape() {
  return {"netflix", 480190, 17771, 99072112, 128};
}

HierarchicalConfig base_config(std::size_t nodes,
                               InterconnectSpec net = ethernet_100g()) {
  HierarchicalConfig config;
  config.sgd.epochs = 20;
  config.cluster = workstation_cluster(nodes, net);
  config.dataset_name = "netflix";
  return config;
}

TEST(ClusterSpec, WorkstationClusterComposition) {
  const ClusterSpec cluster = workstation_cluster(3, ethernet_100g());
  EXPECT_EQ(cluster.nodes.size(), 3u);
  EXPECT_EQ(cluster.total_workers(), 12u);
  EXPECT_EQ(cluster.network.name, "100GbE");
  // Ideal rate = 3x a single workstation.
  const double single =
      sim::paper_workstation_hetero().ideal_update_rate(netflix_shape());
  EXPECT_NEAR(cluster.ideal_update_rate(netflix_shape()), 3.0 * single, 1.0);
}

TEST(ClusterSpec, InterconnectPresetsOrdered) {
  EXPECT_GT(infiniband_hdr().bandwidth_gbs, ethernet_100g().bandwidth_gbs);
  EXPECT_GT(ethernet_100g().bandwidth_gbs, ethernet_10g().bandwidth_gbs);
  EXPECT_LT(infiniband_hdr().latency_s, ethernet_10g().latency_s);
}

TEST(Hierarchical, NodeSharesFormDistribution) {
  HierarchicalHcc hcc(base_config(4));
  const auto shares = hcc.node_shares(netflix_shape());
  ASSERT_EQ(shares.size(), 4u);
  EXPECT_NEAR(std::accumulate(shares.begin(), shares.end(), 0.0), 1.0, 1e-9);
  // Identical nodes -> even split.
  for (double s : shares) EXPECT_NEAR(s, 0.25, 1e-9);
}

TEST(Hierarchical, SimulateScalesWithNodes) {
  const sim::DatasetShape shape = netflix_shape();
  double prev = 1e100;
  for (std::size_t nodes : {1u, 2u, 4u}) {
    HierarchicalHcc hcc(base_config(nodes));
    const ClusterReport report = hcc.simulate(shape);
    EXPECT_LT(report.total_virtual_s, prev) << nodes << " nodes";
    EXPECT_GT(report.utilization, 0.3);
    EXPECT_LE(report.utilization, 1.05);
    prev = report.total_virtual_s;
  }
}

TEST(Hierarchical, SlowNetworkGatesScaling) {
  const sim::DatasetShape shape = netflix_shape();
  const ClusterReport fast =
      HierarchicalHcc(base_config(4, infiniband_hdr())).simulate(shape);
  const ClusterReport slow =
      HierarchicalHcc(base_config(4, ethernet_10g())).simulate(shape);
  EXPECT_LT(fast.total_virtual_s, slow.total_virtual_s);
  EXPECT_GT(slow.epochs[0].network_s, fast.epochs[0].network_s);
}

TEST(Hierarchical, LocalEpochsAmortizeGlobalExchange) {
  const sim::DatasetShape shape = netflix_shape();
  HierarchicalConfig one = base_config(4, ethernet_10g());
  one.sgd.epochs = 20;
  one.local_epochs = 1;
  HierarchicalConfig four = base_config(4, ethernet_10g());
  four.sgd.epochs = 5;  // same total passes: 5 x 4
  four.local_epochs = 4;
  const double t1 = HierarchicalHcc(one).simulate(shape).total_virtual_s;
  const double t4 = HierarchicalHcc(four).simulate(shape).total_virtual_s;
  EXPECT_LT(t4, t1);  // fewer global exchanges for the same compute
}

TEST(Hierarchical, EpochTimingDecomposes) {
  HierarchicalHcc hcc(base_config(2));
  const ClusterReport report = hcc.simulate(netflix_shape());
  ASSERT_EQ(report.epochs.size(), 20u);
  for (const auto& e : report.epochs) {
    EXPECT_GT(e.node_max_s, 0.0);
    EXPECT_GT(e.network_s, 0.0);
    EXPECT_GT(e.global_sync_s, 0.0);
    EXPECT_NEAR(e.total_s, e.node_max_s + e.network_s + e.global_sync_s,
                1e-12);
  }
  // The final global push carries P as well: its network time is larger.
  EXPECT_GT(report.epochs.back().network_s, report.epochs.front().network_s);
}

TEST(Hierarchical, FunctionalTrainingConverges) {
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 17;
  gen.planted_rank = 4;
  const auto full = data::generate(spec, gen);
  util::Rng rng(18);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);

  HierarchicalConfig config = base_config(3);
  config.sgd = mf::SgdConfig::for_dataset(0.02f, 0.01f, 16);
  config.sgd.epochs = 8;
  config.comm.codec = comm::CodecKind::kFp32;
  config.dataset_name = spec.name;
  for (auto& node : config.cluster.nodes) {
    for (auto& w : node.platform.workers) w.epoch_overhead_s = 0.0;
  }

  HierarchicalHcc hcc(config);
  const ClusterReport report = hcc.train(train, &test);
  ASSERT_TRUE(report.model.has_value());
  ASSERT_EQ(report.test_rmse.size(), 8u);
  EXPECT_LT(report.test_rmse.back(), report.test_rmse.front());
  EXPECT_LT(report.test_rmse.back(), 1.1);
}

TEST(Hierarchical, HeterogeneousNodesGetProportionalShares) {
  // A big node (full workstation) next to a small one (single GPU): DP0
  // across nodes must split by aggregate speed, not evenly.
  HierarchicalConfig config;
  config.dataset_name = "netflix";
  config.cluster.name = "lopsided";
  config.cluster.network = ethernet_100g();
  NodeSpec big;
  big.name = "big";
  big.platform = sim::paper_workstation_hetero();
  NodeSpec small;
  small.name = "small";
  small.platform = sim::single_device(sim::rtx_2080());
  config.cluster.nodes = {big, small};

  HierarchicalHcc hcc(config);
  const auto shares = hcc.node_shares(netflix_shape());
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_GT(shares[0], shares[1]);
  const double big_rate =
      big.platform.ideal_update_rate(netflix_shape());
  const double small_rate =
      small.platform.ideal_update_rate(netflix_shape());
  EXPECT_NEAR(shares[0] / shares[1], big_rate / small_rate, 1e-9);

  // And the run completes with sane utilization.
  config.sgd.epochs = 10;
  const ClusterReport report = HierarchicalHcc(config).simulate(netflix_shape());
  EXPECT_GT(report.utilization, 0.3);
  EXPECT_LE(report.utilization, 1.05);
}

TEST(Hierarchical, LocalEpochsTradeQualityForComm) {
  // More local epochs per exchange = fewer syncs = slightly staler Q.
  // Quality should remain in the same regime (that is the point of the
  // knob), while total updates match.
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 19;
  const auto full = data::generate(spec, gen);
  util::Rng rng(20);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);

  auto run = [&](std::uint32_t global, std::uint32_t local) {
    HierarchicalConfig config = base_config(2);
    config.sgd = mf::SgdConfig::for_dataset(0.02f, 0.01f, 16);
    config.sgd.epochs = global;
    config.local_epochs = local;
    config.comm.codec = comm::CodecKind::kFp32;
    config.dataset_name = spec.name;
    return HierarchicalHcc(config).train(train, &test).test_rmse.back();
  };
  const double frequent = run(8, 1);
  const double batched = run(2, 4);
  EXPECT_NEAR(frequent, batched, 0.15);
}

// ---------------------------------------------------------------------------
// The concurrent execution paths of the functional cluster: parallel node
// epochs, repeated local passes in parallel, and node-death recovery in
// both modes.

struct Problem {
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
};

Problem small_problem() {
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 17;
  gen.planted_rank = 4;
  const auto full = data::generate(spec, gen);
  util::Rng rng(18);
  auto [train, test] = data::train_test_split(full, 0.1, rng);
  return {std::move(train), std::move(test)};
}

HierarchicalConfig functional_config(core::ExecMode mode) {
  HierarchicalConfig config = base_config(3);
  config.sgd = mf::SgdConfig::for_dataset(0.02f, 0.01f, 16);
  config.sgd.epochs = 8;
  config.comm.codec = comm::CodecKind::kFp32;
  config.dataset_name = "netflix@0.002";
  config.exec.mode = mode;
  for (auto& node : config.cluster.nodes) {
    for (auto& w : node.platform.workers) w.epoch_overhead_s = 0.0;
  }
  return config;
}

void expect_finite_model(const ClusterReport& report) {
  ASSERT_TRUE(report.model.has_value());
  for (const float v : report.model->q_data()) ASSERT_TRUE(std::isfinite(v));
  for (const float v : report.model->p_data()) ASSERT_TRUE(std::isfinite(v));
}

TEST(Hierarchical, ParallelConvergesToSerialQuality) {
  const Problem pr = small_problem();
  const ClusterReport serial =
      HierarchicalHcc(functional_config(core::ExecMode::kSerial))
          .train(pr.train, &pr.test);
  const ClusterReport parallel =
      HierarchicalHcc(functional_config(core::ExecMode::kParallel))
          .train(pr.train, &pr.test);
  ASSERT_EQ(parallel.test_rmse.size(), serial.test_rmse.size());
  EXPECT_NEAR(parallel.test_rmse.back(), serial.test_rmse.back(), 0.02);
  expect_finite_model(parallel);
}

TEST(Hierarchical, ParallelLocalEpochsConvergeToSerialQuality) {
  const Problem pr = small_problem();
  HierarchicalConfig serial_cfg = functional_config(core::ExecMode::kSerial);
  serial_cfg.local_epochs = 2;
  const ClusterReport serial =
      HierarchicalHcc(serial_cfg).train(pr.train, &pr.test);
  HierarchicalConfig par_cfg = functional_config(core::ExecMode::kParallel);
  par_cfg.local_epochs = 2;
  const ClusterReport parallel =
      HierarchicalHcc(par_cfg).train(pr.train, &pr.test);
  ASSERT_EQ(parallel.test_rmse.size(), serial.test_rmse.size());
  EXPECT_NEAR(parallel.test_rmse.back(), serial.test_rmse.back(), 0.02);
  expect_finite_model(parallel);
}

TEST(Hierarchical, KilledNodeRecoversInBothModes) {
  const Problem pr = small_problem();
  const ClusterReport clean =
      HierarchicalHcc(functional_config(core::ExecMode::kSerial))
          .train(pr.train, &pr.test);
  for (const core::ExecMode mode :
       {core::ExecMode::kSerial, core::ExecMode::kParallel}) {
    HierarchicalConfig config = functional_config(mode);
    config.fault.plan = fault::FaultPlan::parse("kill:w1@e3");
    const ClusterReport report = HierarchicalHcc(config).train(pr.train,
                                                               &pr.test);
    const char* name = core::exec_mode_name(mode);
    ASSERT_EQ(report.dead_nodes, std::vector<std::uint32_t>{1}) << name;
    EXPECT_EQ(report.recoveries, 1u) << name;
    ASSERT_EQ(report.test_rmse.size(), 8u) << name;
    EXPECT_NEAR(report.test_rmse.back(), clean.test_rmse.back(), 0.05)
        << name;
    expect_finite_model(report);
  }
}

TEST(Hierarchical, DivergenceRollsBackWithoutAFaultPlan) {
  // The divergence guard needs no fault plan: a runaway learning rate
  // rolls back with a halved rate until training is stable again.
  const Problem pr = small_problem();
  HierarchicalConfig config = functional_config(core::ExecMode::kSerial);
  config.sgd.learn_rate = 50.0f;
  const ClusterReport report = HierarchicalHcc(config).train(pr.train,
                                                             &pr.test);
  EXPECT_GE(report.rollbacks, 1u);
  ASSERT_EQ(report.test_rmse.size(), 8u);
  EXPECT_TRUE(std::isfinite(report.test_rmse.back()));
  expect_finite_model(report);
}

bool has_code(const std::vector<core::ConfigError>& errors,
              core::ConfigErrorCode code) {
  return std::any_of(errors.begin(), errors.end(),
                     [code](const auto& e) { return e.code == code; });
}

TEST(Hierarchical, RejectsZeroLocalEpochsByName) {
  HierarchicalConfig config = functional_config(core::ExecMode::kSerial);
  config.local_epochs = 0;
  EXPECT_TRUE(
      has_code(config.validate(), core::ConfigErrorCode::kZeroLocalEpochs));
  const Problem pr = small_problem();
  try {
    (void)HierarchicalHcc(config).train(pr.train, &pr.test);
    FAIL() << "local_epochs = 0 must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("local_epochs is 0"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hcc::cluster
