// Metamorphic and edge-coverage tests across layers: relations that must
// hold under input transformations (scaling, permutation, degeneration),
// complementing the per-module unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "comm/strategy.hpp"
#include "core/hccmf.hpp"
#include "core/server.hpp"
#include "core/tuner.hpp"
#include "core/worker.hpp"
#include "data/datasets.hpp"
#include "sim/timing.hpp"

namespace hcc {
namespace {

sim::DatasetShape netflix_shape() {
  return {"netflix", 480190, 17771, 99072112, 128};
}

TEST(Metamorphic, DoublingNnzDoublesComputeAtFixedShare) {
  sim::DatasetShape big = netflix_shape();
  big.nnz *= 2;
  for (const auto& dev : {sim::rtx_2080(), sim::xeon_6242_24t()}) {
    const double base = sim::compute_seconds(dev, netflix_shape(), 0.4);
    const double doubled = sim::compute_seconds(dev, big, 0.4);
    EXPECT_NEAR(doubled / base, 2.0, 1e-9) << dev.name;
  }
}

TEST(Metamorphic, WorkerOrderPermutationPermutesTimings) {
  sim::EpochConfig cfg;
  cfg.shape = netflix_shape();
  cfg.jitter = 0.0;
  comm::CommConfig comm;
  comm.codec = comm::CodecKind::kFp32;
  for (const auto& [dev, share] :
       std::vector<std::pair<sim::DeviceSpec, double>>{
           {sim::rtx_2080s(), 0.5}, {sim::xeon_6242_24t(), 0.3},
           {sim::rtx_2080(), 0.2}}) {
    sim::WorkerPlan wp;
    wp.device = dev;
    wp.share = share;
    wp.comm = comm::make_comm_plan(comm, cfg.shape, dev);
    cfg.workers.push_back(wp);
  }
  const sim::EpochTiming forward = sim::simulate_epoch(cfg);

  sim::EpochConfig reversed = cfg;
  std::reverse(reversed.workers.begin(), reversed.workers.end());
  const sim::EpochTiming backward = sim::simulate_epoch(reversed);

  EXPECT_NEAR(forward.epoch_s, backward.epoch_s, 1e-12);
  for (std::size_t w = 0; w < 3; ++w) {
    EXPECT_NEAR(forward.workers[w].compute_s,
                backward.workers[2 - w].compute_s, 1e-12);
    EXPECT_NEAR(forward.workers[w].finish_s,
                backward.workers[2 - w].finish_s, 1e-12);
  }
}

TEST(Metamorphic, Fp16ExactlyHalvesWireForEveryDataset) {
  for (const auto& spec : data::paper_datasets()) {
    const sim::DatasetShape shape{spec.name, spec.m, spec.n, spec.nnz, 128};
    comm::CommConfig fp32;
    fp32.codec = comm::CodecKind::kFp32;
    comm::CommConfig fp16;
    fp16.codec = comm::CodecKind::kFp16;
    const auto a = comm::make_comm_plan(fp32, shape, sim::rtx_2080());
    const auto b = comm::make_comm_plan(fp16, shape, sim::rtx_2080());
    EXPECT_NEAR(a.pull_bytes / b.pull_bytes, 2.0, 1e-12) << spec.name;
    EXPECT_NEAR(a.push_bytes / b.push_bytes, 2.0, 1e-12) << spec.name;
    EXPECT_DOUBLE_EQ(a.sync_bytes, b.sync_bytes) << spec.name;
  }
}

TEST(Metamorphic, SparseLeavesPOnlyPayloadAlone) {
  // Sparse push is a Q-row optimization; a column-grid (P-only) payload
  // must be unaffected.
  const sim::DatasetShape wide{"", 2000, 90000, 4000000, 32};
  comm::CommConfig dense;
  dense.codec = comm::CodecKind::kFp32;
  comm::CommConfig sparse = dense;
  sparse.sparse = true;
  const auto a = comm::make_comm_plan(dense, wide, sim::rtx_2080(), false, 0.1);
  const auto b = comm::make_comm_plan(sparse, wide, sim::rtx_2080(), false, 0.1);
  EXPECT_DOUBLE_EQ(a.pull_bytes, b.pull_bytes);
  EXPECT_DOUBLE_EQ(a.push_bytes, b.push_bytes);
}

TEST(Metamorphic, SingleWorkerPlatformAlwaysGetsEverything) {
  comm::CommConfig comm;
  core::DataManager mgr(sim::single_device(sim::rtx_2080s()),
                        netflix_shape(), comm);
  for (const auto strategy :
       {core::PartitionStrategy::kEven, core::PartitionStrategy::kDp0,
        core::PartitionStrategy::kDp1, core::PartitionStrategy::kDp2,
        core::PartitionStrategy::kAuto}) {
    const core::Plan plan = mgr.plan(strategy);
    ASSERT_EQ(plan.shares.size(), 1u);
    EXPECT_NEAR(plan.shares[0], 1.0, 1e-12)
        << core::partition_strategy_name(strategy);
  }
}

TEST(Metamorphic, UnweightedWorkerMergesAtUnitWeight) {
  // A worker given no item weights merges every item at weight 1: it must
  // compute exactly the floats of a worker given all-ones weights.
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.001);
  const data::RatingMatrix slice =
      data::generate(spec, data::GeneratorConfig{});
  mf::FactorModel model(slice.rows(), slice.cols(), 8);
  util::Rng rng(5);
  model.init_random(rng, 3.0f);
  const comm::CommConfig comm;
  core::Server sa(model, comm);
  core::Server sb(std::move(model), comm);
  core::TrainWorker plain(0, "cpu", slice, comm);
  core::TrainWorker ones(0, "cpu", slice, comm);
  ones.set_item_weights(std::vector<float>(slice.cols(), 1.0f));
  auto epoch = [](core::TrainWorker& worker, core::Server& server) {
    worker.pull(server);
    worker.compute_chunk(server, 0, 0.01f, 0.02f, 0.02f);
    worker.push(server);
  };
  for (int e = 0; e < 3; ++e) {
    epoch(plain, sa);
    epoch(ones, sb);
  }
  const auto qa = sa.model().q_data();
  const auto qb = sb.model().q_data();
  for (std::size_t j = 0; j < qa.size(); ++j) {
    ASSERT_EQ(qa[j], qb[j]) << "index " << j;
  }
}

TEST(Metamorphic, TrainWithoutEvaluationSkipsRmse) {
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.001);
  const data::RatingMatrix train =
      data::generate(spec, data::GeneratorConfig{});
  core::HccMfConfig config;
  config.sgd.epochs = 3;
  config.sgd.k = 8;
  config.platform = sim::paper_workstation_hetero();
  config.evaluate_each_epoch = false;
  config.dataset_name = spec.name;
  const core::TrainReport report = core::HccMf(config).train(train, &train);
  for (const auto& e : report.epochs) {
    EXPECT_TRUE(std::isnan(e.test_rmse)) << "epoch " << e.epoch;
  }
  ASSERT_TRUE(report.model.has_value());
}

TEST(Metamorphic, TunerDegeneratesGracefullyOnSingleDevice) {
  const core::TuneResult result =
      core::tune_comm(sim::single_device(sim::rtx_2080s()), netflix_shape());
  EXPECT_FALSE(result.trials.empty());
  EXPECT_GT(result.best.epoch_seconds, 0.0);
}

TEST(Metamorphic, ShapeScaleLeavesStrategyChoiceAlone) {
  // Scaling every dataset dimension uniformly preserves the compute/comm
  // balance, so the auto choice must not flip.
  comm::CommConfig comm;
  for (const auto& spec : {data::netflix_spec(), data::yahoo_r1_spec()}) {
    const sim::DatasetShape full{spec.name, spec.m, spec.n, spec.nnz, 128};
    const data::DatasetSpec half_spec = spec.scaled(0.5);
    const sim::DatasetShape half{spec.name, half_spec.m, half_spec.n,
                                 half_spec.nnz, 128};
    core::DataManager m_full(sim::paper_workstation_hetero(), full, comm);
    core::DataManager m_half(sim::paper_workstation_hetero(), half, comm);
    EXPECT_EQ(m_full.plan().chosen, m_half.plan().chosen) << spec.name;
  }
}

}  // namespace
}  // namespace hcc
