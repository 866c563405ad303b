// End-to-end fault-tolerance tests on the training loop: worker death with
// degraded-mode recovery, corrupt-payload retry, stall detection, and the
// NaN divergence guard.  The metamorphic anchor: a faulted run must land
// within epsilon of its fault-free twin.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <numeric>

#include "core/hccmf.hpp"
#include "data/datasets.hpp"
#include "fault/checkpoint.hpp"
#include "fault/errors.hpp"

namespace hcc::core {
namespace {

struct SmallProblem {
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
  data::DatasetSpec spec;
};

SmallProblem netflix_small(double scale = 0.002) {
  SmallProblem pr;
  pr.spec = data::netflix_spec().scaled(scale);
  data::GeneratorConfig gen;
  gen.seed = 5;
  gen.planted_rank = 4;
  const auto full = data::generate(pr.spec, gen);
  util::Rng rng(6);
  auto [train, test] = data::train_test_split(full, 0.1, rng);
  pr.train = std::move(train);
  pr.test = std::move(test);
  return pr;
}

/// Three-worker heterogeneous platform (the acceptance scenario kills one
/// of three devices).
HccMfConfig base_config(const data::DatasetSpec& spec) {
  HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 8;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  config.platform.workers.resize(3);
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = spec.name;
  return config;
}

TEST(FaultRecovery, KilledWorkerIsAbsorbedAndTrainingConverges) {
  const SmallProblem pr = netflix_small();

  HccMfConfig faulty = base_config(pr.spec);
  faulty.fault.plan = fault::FaultPlan::parse("kill:w1@e3");
  HccMf faulted(faulty);
  const TrainReport report = faulted.train(pr.train, &pr.test);

  // The run completes every epoch despite losing a worker mid-flight.
  ASSERT_EQ(report.epochs.size(), 8u);
  EXPECT_GE(report.fault.recoveries, 1u);
  EXPECT_GE(report.fault.injected, 1u);
  ASSERT_EQ(report.fault.dead_workers.size(), 1u);
  EXPECT_EQ(report.fault.dead_workers[0], 1u);
  EXPECT_GT(report.fault.recovery_wall_s, 0.0);

  // The dead worker's rows were redistributed: its final assignment is
  // empty and the survivors hold every rating exactly once.
  ASSERT_EQ(report.fault.worker_nnz.size(), 3u);
  EXPECT_EQ(report.fault.worker_nnz[1], 0u);
  EXPECT_GT(report.fault.worker_nnz[0], 0u);
  EXPECT_GT(report.fault.worker_nnz[2], 0u);
  const std::size_t total = std::accumulate(report.fault.worker_nnz.begin(),
                                            report.fault.worker_nnz.end(),
                                            std::size_t{0});
  EXPECT_EQ(total, pr.train.nnz());

  // Metamorphic anchor: the recovered run converges to within epsilon of
  // the fault-free twin.
  HccMf clean(base_config(pr.spec));
  const TrainReport baseline = clean.train(pr.train, &pr.test);
  EXPECT_NEAR(report.epochs.back().test_rmse,
              baseline.epochs.back().test_rmse, 0.01);
}

TEST(FaultRecovery, DeathOfTheOnlyWorkerRethrows) {
  // Nobody is left to absorb the dead worker's rows: the run must fail
  // loudly instead of finishing with every rating dropped.
  const SmallProblem pr = netflix_small();
  HccMfConfig config = base_config(pr.spec);
  config.platform.workers.resize(1);
  config.fault.plan = fault::FaultPlan::parse("kill:w0@e2");
  HccMf framework(config);
  EXPECT_THROW((void)framework.train(pr.train, &pr.test), fault::WorkerFault);
}

TEST(FaultRecovery, DeathOfTheLastSurvivorRethrows) {
  const SmallProblem pr = netflix_small();
  HccMfConfig config = base_config(pr.spec);
  config.platform.workers.resize(2);
  config.fault.plan = fault::FaultPlan::parse("kill:w0@e1;kill:w1@e3");
  HccMf framework(config);
  EXPECT_THROW((void)framework.train(pr.train, &pr.test), fault::WorkerFault);
}

TEST(FaultRecovery, CorruptPayloadHealsViaRetryBitIdentically) {
  const SmallProblem pr = netflix_small();

  HccMfConfig faulty = base_config(pr.spec);
  faulty.fault.plan = fault::FaultPlan::parse("corrupt:w0@e1");
  HccMf faulted(faulty);
  const TrainReport report = faulted.train(pr.train, &pr.test);
  EXPECT_GE(report.fault.retries, 1u);
  EXPECT_GE(report.fault.checksum_failures, 1u);
  EXPECT_EQ(report.fault.recoveries, 0u);
  EXPECT_TRUE(report.fault.dead_workers.empty());

  // A healed retry re-sends the same bytes: the trajectory is bit-identical
  // to the fault-free run.
  HccMf clean(base_config(pr.spec));
  const TrainReport baseline = clean.train(pr.train, &pr.test);
  ASSERT_EQ(report.epochs.size(), baseline.epochs.size());
  for (std::size_t e = 0; e < report.epochs.size(); ++e) {
    EXPECT_EQ(report.epochs[e].test_rmse, baseline.epochs[e].test_rmse)
        << "epoch " << e;
  }
}

TEST(FaultRecovery, UnhealableChannelEscalatesToRecovery) {
  const SmallProblem pr = netflix_small();
  HccMfConfig faulty = base_config(pr.spec);
  faulty.fault.plan = fault::FaultPlan::parse("corrupt:w2@e1n50");
  faulty.fault.max_retries = 2;
  faulty.fault.backoff_base_s = 0.0;  // keep the test fast
  HccMf faulted(faulty);
  const TrainReport report = faulted.train(pr.train, &pr.test);
  ASSERT_EQ(report.epochs.size(), 8u);
  EXPECT_GE(report.fault.recoveries, 1u);
  ASSERT_EQ(report.fault.dead_workers.size(), 1u);
  EXPECT_EQ(report.fault.dead_workers[0], 2u);
  EXPECT_EQ(report.fault.worker_nnz[2], 0u);
}

TEST(FaultRecovery, StallChangesTimingsNotResults) {
  const SmallProblem pr = netflix_small();
  HccMfConfig faulty = base_config(pr.spec);
  faulty.fault.plan = fault::FaultPlan::parse("stall:w0@e2x16");
  HccMf faulted(faulty);
  const TrainReport report = faulted.train(pr.train, &pr.test);

  // A straggler is slow, not wrong: identical convergence...
  HccMf clean(base_config(pr.spec));
  const TrainReport baseline = clean.train(pr.train, &pr.test);
  EXPECT_EQ(report.epochs.back().test_rmse,
            baseline.epochs.back().test_rmse);
  // ...but the deadline detector flags the stalled epoch.
  EXPECT_GE(report.fault.stragglers, 1u);
  EXPECT_FALSE(report.epochs[2].stragglers.empty());
  // The stall also shows in the recorded wall clock for that epoch.
  EXPECT_GT(report.epochs[2].measured.workers[0].compute_s,
            4.0 * report.epochs[1].measured.workers[0].compute_s);
}

TEST(FaultRecovery, DivergenceGuardRollsBackWithHalvedRate) {
  const SmallProblem pr = netflix_small();
  HccMfConfig config = base_config(pr.spec);
  config.sgd.epochs = 4;
  config.sgd.learn_rate = 8.0f;  // guaranteed explosion
  // Halving from 8.0 needs ~9 rollbacks to reach a stable ~0.015.
  config.fault.max_rollbacks = 16;
  HccMf framework(config);
  const TrainReport report = framework.train(pr.train, &pr.test);
  EXPECT_GE(report.fault.divergence_rollbacks, 1u);
  ASSERT_TRUE(report.model.has_value());
  for (const float v : report.model->q_data()) {
    ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_TRUE(std::isfinite(report.epochs.back().test_rmse));
}

TEST(FaultRecovery, RunawayDivergenceRefusesPoisonedModel) {
  const SmallProblem pr = netflix_small();
  HccMfConfig config = base_config(pr.spec);
  config.sgd.epochs = 4;
  config.sgd.learn_rate = 8.0f;
  config.fault.max_rollbacks = 0;
  HccMf framework(config);
  EXPECT_THROW((void)framework.train(pr.train, &pr.test),
               fault::TrainingDivergedError);
}

TEST(FaultRecovery, InertSubsystemLeavesReportZeroed) {
  const SmallProblem pr = netflix_small();
  HccMf framework(base_config(pr.spec));
  const TrainReport report = framework.train(pr.train, &pr.test);
  EXPECT_EQ(report.fault.injected, 0u);
  EXPECT_EQ(report.fault.retries, 0u);
  EXPECT_EQ(report.fault.checksum_failures, 0u);
  EXPECT_EQ(report.fault.recoveries, 0u);
  EXPECT_EQ(report.fault.divergence_rollbacks, 0u);
  EXPECT_EQ(report.fault.stragglers, 0u);
  EXPECT_TRUE(report.fault.dead_workers.empty());
  for (const auto& e : report.epochs) {
    EXPECT_EQ(e.fault_injected, 0u);
    EXPECT_EQ(e.fault_retries, 0u);
    EXPECT_TRUE(e.stragglers.empty());
  }
  // Every worker keeps its original assignment.
  const std::size_t total = std::accumulate(report.fault.worker_nnz.begin(),
                                            report.fault.worker_nnz.end(),
                                            std::size_t{0});
  EXPECT_EQ(total, pr.train.nnz());
}

TEST(FaultRecovery, DivergenceGuardOffMatchesGuardOnWhenHealthy) {
  const SmallProblem pr = netflix_small();
  HccMfConfig on = base_config(pr.spec);
  HccMfConfig off = base_config(pr.spec);
  off.fault.divergence_guard = false;
  HccMf with_guard(on);
  HccMf without_guard(off);
  const TrainReport a = with_guard.train(pr.train, &pr.test);
  const TrainReport b = without_guard.train(pr.train, &pr.test);
  EXPECT_EQ(a.epochs.back().test_rmse, b.epochs.back().test_rmse)
      << "the guard must be pure detection on a healthy run";
}

TEST(FaultRecovery, CheckpointDirPersistsEpochBoundaries) {
  const SmallProblem pr = netflix_small();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hccmf_train_ckpts").string();
  std::filesystem::remove_all(dir);

  HccMfConfig config = base_config(pr.spec);
  config.sgd.epochs = 3;
  config.fault.checkpoint_dir = dir;
  config.fault.checkpoint_every = 1;
  HccMf framework(config);
  const TrainReport report = framework.train(pr.train, &pr.test);
  ASSERT_TRUE(report.model.has_value());

  const auto latest = fault::CheckpointStore::load_latest(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_epoch, 3u);
  // The last checkpoint captures the final pre-P&Q-push model state.
  EXPECT_EQ(latest->model.q_data().size(), report.model->q_data().size());
  std::filesystem::remove_all(dir);
}

TEST(FaultRecovery, SimulateComposesKillIntoVirtualTimings) {
  // Timing-path mirror: killing a worker mid-run redistributes its share on
  // the virtual platform, so later epochs time differently but the run
  // still covers all epochs.
  HccMfConfig config;
  config.platform = sim::paper_workstation_hetero();
  config.sgd.epochs = 6;
  config.fault.plan = fault::FaultPlan::parse("kill:w1@e3");
  HccMf faulted(config);
  const sim::DatasetShape shape{"netflix", 480190, 17771, 99072112, 128};
  const TrainReport with_kill = faulted.simulate(shape);

  config.fault.plan = {};
  HccMf clean(config);
  const TrainReport baseline = clean.simulate(shape);

  ASSERT_EQ(with_kill.epochs.size(), 6u);
  // Before the kill the virtual platform is identical...
  EXPECT_DOUBLE_EQ(with_kill.epochs[0].virtual_s,
                   baseline.epochs[0].virtual_s);
  // ...after it the dead worker stops contributing and the survivors carry
  // its share, so the epoch takes longer.
  EXPECT_GT(with_kill.epochs[4].virtual_s, baseline.epochs[4].virtual_s);
  EXPECT_DOUBLE_EQ(with_kill.epochs[4].timing.workers[1].compute_s, 0.0);
}

}  // namespace
}  // namespace hcc::core
