// Tests for the concurrent epoch executor: the barrier primitive itself
// (suite Executor) and end-to-end parallel-vs-serial training equivalence
// including fault recovery under both modes (suite ParallelTrain).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/epoch_executor.hpp"
#include "core/hccmf.hpp"
#include "data/datasets.hpp"
#include "fault/errors.hpp"
#include "sim/platform.hpp"

namespace hcc::core {
namespace {

// ---------------------------------------------------------------------------
// Suite Executor: the barrier primitive.

TEST(Executor, ModeNamesRoundTrip) {
  EXPECT_STREQ(exec_mode_name(ExecMode::kSerial), "serial");
  EXPECT_STREQ(exec_mode_name(ExecMode::kParallel), "parallel");
  EXPECT_EQ(parse_exec_mode("serial"), ExecMode::kSerial);
  EXPECT_EQ(parse_exec_mode("parallel"), ExecMode::kParallel);
  EXPECT_THROW(parse_exec_mode("async"), std::invalid_argument);
  EXPECT_THROW(parse_exec_mode(""), std::invalid_argument);
}

TEST(Executor, DefaultsAreSerialWithAutoStripes) {
  const ExecOptions opts;
  EXPECT_EQ(opts.mode, ExecMode::kSerial);
  EXPECT_EQ(opts.stripes, 0u);
  const EpochExecutor exec(opts, 4);
  EXPECT_EQ(exec.mode(), ExecMode::kSerial);
}

TEST(Executor, RunParallelRunsExactlyTheAliveIndices) {
  ExecOptions opts;
  opts.mode = ExecMode::kParallel;
  EpochExecutor exec(opts, 5);

  std::vector<std::atomic<int>> hits(5);
  const std::vector<bool> alive = {true, false, true, true, false};
  exec.run_parallel(alive, [&](std::size_t i) { hits[i].fetch_add(1); });

  EXPECT_EQ(hits[0].load(), 1);
  EXPECT_EQ(hits[1].load(), 0);
  EXPECT_EQ(hits[2].load(), 1);
  EXPECT_EQ(hits[3].load(), 1);
  EXPECT_EQ(hits[4].load(), 0);
}

TEST(Executor, BarrierIsReusableAcrossEpochs) {
  ExecOptions opts;
  opts.mode = ExecMode::kParallel;
  EpochExecutor exec(opts, 3);
  const std::vector<bool> alive(3, true);

  std::atomic<int> total{0};
  for (int epoch = 0; epoch < 10; ++epoch) {
    exec.run_parallel(alive, [&](std::size_t) { total.fetch_add(1); });
    // The barrier really joined: all of this epoch's work is visible.
    EXPECT_EQ(total.load(), 3 * (epoch + 1));
  }
}

TEST(Executor, WorkerFaultOutranksDivergenceOutranksGeneric) {
  ExecOptions opts;
  opts.mode = ExecMode::kParallel;
  EpochExecutor exec(opts, 3);
  const std::vector<bool> alive(3, true);

  // Three workers fail in the same epoch with different error classes; the
  // barrier must deterministically surface the WorkerFault so HccMf::train
  // enters degraded-mode recovery, not the divergence rollback.
  try {
    exec.run_parallel(alive, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("generic");
      if (i == 1) throw fault::DivergenceError(1, /*epoch=*/0);
      throw fault::WorkerKilledError(2, /*epoch=*/0);
    });
    FAIL() << "expected a WorkerFault";
  } catch (const fault::WorkerFault& e) {
    EXPECT_EQ(e.worker(), 2u);
  }

  // Without a WorkerFault, divergence outranks the generic error.
  try {
    exec.run_parallel(alive, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("generic");
      if (i == 2) throw fault::DivergenceError(2, /*epoch=*/1);
    });
    FAIL() << "expected a DivergenceError";
  } catch (const fault::DivergenceError& e) {
    EXPECT_EQ(e.worker(), 2u);
  }
}

TEST(Executor, TiesBreakTowardTheLowestWorkerIndex) {
  ExecOptions opts;
  opts.mode = ExecMode::kParallel;
  EpochExecutor exec(opts, 4);
  const std::vector<bool> alive(4, true);

  try {
    exec.run_parallel(alive, [&](std::size_t i) {
      if (i == 1 || i == 3) {
        throw fault::WorkerKilledError(static_cast<std::uint32_t>(i), 0);
      }
    });
    FAIL() << "expected a WorkerFault";
  } catch (const fault::WorkerFault& e) {
    EXPECT_EQ(e.worker(), 1u);
  }
}

TEST(Executor, StaysUsableAfterAnException) {
  ExecOptions opts;
  opts.mode = ExecMode::kParallel;
  EpochExecutor exec(opts, 2);
  const std::vector<bool> alive(2, true);

  EXPECT_THROW(exec.run_parallel(
                   alive, [&](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);

  // The same recovery path HccMf::train takes: re-enter the barrier.
  std::atomic<int> ran{0};
  exec.run_parallel(alive, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

// ---------------------------------------------------------------------------
// Suite ParallelTrain: end-to-end serial/parallel equivalence on HccMf.

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

/// Homogeneous 4-CPU platform: every worker gets a similar share, so the
/// parallel executor exercises genuine 4-way concurrency.
HccMfConfig quad_cpu_config(const data::DatasetSpec& spec) {
  HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 8;
  config.comm.fp16 = false;
  config.platform = sim::combo(
      "quad-cpu", {"6242-24T", "6242-24T", "6242-24T", "6242-24T"});
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = spec.name;
  return config;
}

TrainReport run(HccMfConfig config, const SmallProblem& pr) {
  HccMf framework(std::move(config));
  return framework.train(pr.train, &pr.test);
}

TEST(ParallelTrain, SerialModeIsDeterministic) {
  const SmallProblem pr = netflix_small();
  const TrainReport a = run(quad_cpu_config(pr.spec), pr);
  const TrainReport b = run(quad_cpu_config(pr.spec), pr);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].test_rmse, b.epochs[e].test_rmse) << "epoch " << e;
  }
  ASSERT_TRUE(a.model.has_value() && b.model.has_value());
  const auto qa = a.model->q_data();
  const auto qb = b.model->q_data();
  ASSERT_EQ(qa.size(), qb.size());
  for (std::size_t j = 0; j < qa.size(); ++j) {
    ASSERT_EQ(qa[j], qb[j]) << "index " << j;
  }
}

TEST(ParallelTrain, ParallelConvergesToSerialQuality) {
  const SmallProblem pr = netflix_small();

  const TrainReport serial = run(quad_cpu_config(pr.spec), pr);

  HccMfConfig par = quad_cpu_config(pr.spec);
  par.exec.mode = ExecMode::kParallel;
  const TrainReport parallel = run(std::move(par), pr);

  // The interleaving differs (stale-by-chunk reads, concurrent merges), so
  // the trajectories are not bit-identical — but SGD is robust to exactly
  // this kind of asynchrony and final quality must match within tolerance.
  ASSERT_EQ(parallel.epochs.size(), serial.epochs.size());
  EXPECT_NEAR(parallel.epochs.back().test_rmse,
              serial.epochs.back().test_rmse, 0.05);
  ASSERT_TRUE(parallel.model.has_value());
  for (const float v : parallel.model->q_data()) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST(ParallelTrain, SparseCommMatchesSerialQualityToo) {
  const SmallProblem pr = netflix_small();

  HccMfConfig serial_cfg = quad_cpu_config(pr.spec);
  serial_cfg.comm.sparse = true;
  const TrainReport serial = run(std::move(serial_cfg), pr);

  HccMfConfig par = quad_cpu_config(pr.spec);
  par.comm.sparse = true;
  par.exec.mode = ExecMode::kParallel;
  par.exec.stripes = 16;  // force plenty of stripes over the touched sets
  const TrainReport parallel = run(std::move(par), pr);

  EXPECT_NEAR(parallel.epochs.back().test_rmse,
              serial.epochs.back().test_rmse, 0.05);
}

TEST(ParallelTrain, KilledWorkerRecoversInBothModes) {
  const SmallProblem pr = netflix_small();

  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    HccMfConfig config = quad_cpu_config(pr.spec);
    config.exec.mode = mode;
    config.fault.plan = fault::FaultPlan::parse("kill:w1@e3");
    const TrainReport report = run(std::move(config), pr);

    ASSERT_EQ(report.epochs.size(), 8u) << exec_mode_name(mode);
    EXPECT_GE(report.fault.recoveries, 1u) << exec_mode_name(mode);
    ASSERT_EQ(report.fault.dead_workers.size(), 1u) << exec_mode_name(mode);
    EXPECT_EQ(report.fault.dead_workers[0], 1u) << exec_mode_name(mode);
    // The dead worker's rows were redistributed to the survivors.
    ASSERT_EQ(report.fault.worker_nnz.size(), 4u);
    EXPECT_EQ(report.fault.worker_nnz[1], 0u);
    std::size_t total = 0;
    for (const std::size_t nnz : report.fault.worker_nnz) total += nnz;
    EXPECT_EQ(total, pr.train.nnz()) << exec_mode_name(mode);
    EXPECT_TRUE(std::isfinite(report.epochs.back().test_rmse));
  }
}

TEST(ParallelTrain, DivergenceRollsBackInBothModes) {
  const SmallProblem pr = netflix_small();

  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    HccMfConfig config = quad_cpu_config(pr.spec);
    config.exec.mode = mode;
    config.sgd.epochs = 4;
    config.sgd.learn_rate = 8.0f;  // guaranteed explosion
    config.fault.max_rollbacks = 16;
    const TrainReport report = run(std::move(config), pr);

    EXPECT_GE(report.fault.divergence_rollbacks, 1u) << exec_mode_name(mode);
    ASSERT_TRUE(report.model.has_value()) << exec_mode_name(mode);
    for (const float v : report.model->q_data()) {
      ASSERT_TRUE(std::isfinite(v)) << exec_mode_name(mode);
    }
    EXPECT_TRUE(std::isfinite(report.epochs.back().test_rmse));
  }
}

TEST(ParallelTrain, ChunkedPipelinesConvergeOnGpuPlatform) {
  const SmallProblem pr = netflix_small();

  // GPU presets expose >1 copy stream, so comm.streams=3 gives each worker
  // a three-chunk pipeline (a pull, compute and push per chunk).
  HccMfConfig serial_cfg = quad_cpu_config(pr.spec);
  serial_cfg.platform = sim::combo("dual-gpu", {"2080", "2080S"});
  for (auto& w : serial_cfg.platform.workers) w.epoch_overhead_s = 0.0;
  serial_cfg.comm.streams = 3;
  HccMfConfig par = serial_cfg;

  const TrainReport serial = run(std::move(serial_cfg), pr);

  par.exec.mode = ExecMode::kParallel;
  const TrainReport parallel = run(std::move(par), pr);

  EXPECT_NEAR(parallel.epochs.back().test_rmse,
              serial.epochs.back().test_rmse, 0.05);
}

}  // namespace
}  // namespace hcc::core
