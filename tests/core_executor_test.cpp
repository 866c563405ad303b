// Tests for the epoch engine: the barrier primitive itself (suite
// Executor), the engine's determinism contract on hand-built workers
// (suite EpochEngine: every thread count computes kSerial's floats, and a
// failed phase merges nothing), and end-to-end parallel-vs-serial training
// including fault recovery under both modes (suite ParallelTrain).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/epoch_executor.hpp"
#include "core/hccmf.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "data/datasets.hpp"
#include "data/grid.hpp"
#include "fault/errors.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
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

TEST(Executor, DefaultsAreSerialAndUnpinned) {
  const ExecOptions opts;
  EXPECT_EQ(opts.mode, ExecMode::kSerial);
  EXPECT_FALSE(opts.pin_threads);
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
// Suite EpochEngine: run_epoch on hand-built workers over a fixed grid, so
// no host probe is involved and both modes see the very same slices.

/// One engine configuration: per-worker chunk counts, sparse push, the
/// wire codec and the SGD passes per chunk (a cluster node's local epochs).
struct EngineCase {
  std::vector<std::uint32_t> streams;
  bool sparse = false;
  comm::CodecKind codec = comm::CodecKind::kFp16;
  std::uint32_t passes = 1;
};

std::string describe(const EngineCase& c) {
  std::string out = "streams";
  for (const std::uint32_t s : c.streams) out += ' ' + std::to_string(s);
  out += c.sparse ? ", sparse" : ", dense";
  out += std::string(", ") + comm::codec_kind_name(c.codec);
  out += ", passes " + std::to_string(c.passes);
  return out;
}

/// Four even row slices of a small planted-rank problem, built once.
const std::vector<data::RatingMatrix>& engine_slices() {
  static const std::vector<data::RatingMatrix> slices = [] {
    const data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
    data::GeneratorConfig gen;
    gen.seed = 21;
    gen.planted_rank = 4;
    const data::RatingMatrix full = data::generate(spec, gen);
    const std::vector<double> shares(4, 0.25);
    return data::assign_slices(
        full, data::GridKind::kRow,
        data::make_grid(full, data::GridKind::kRow, shares));
  }();
  return slices;
}

/// A server and one TrainWorker per slice, merged with per-item weights
/// (each worker's fraction of each item's ratings), as TrainingLoop does.
struct Engine {
  std::unique_ptr<Server> server;
  std::vector<TrainWorker> workers;
  std::vector<bool> alive;
};

Engine build_engine(const EngineCase& c) {
  const auto& slices = engine_slices();
  comm::CommConfig comm;
  comm.codec = c.codec;
  comm.sparse = c.sparse;
  Engine e;
  mf::FactorModel model(slices[0].rows(), slices[0].cols(), 16);
  util::Rng rng(7);
  model.init_random(rng, 3.0f);
  e.server = std::make_unique<Server>(std::move(model), comm);
  const std::size_t items = slices[0].cols();
  std::vector<std::size_t> totals(items, 0);
  for (const auto& s : slices) {
    const auto counts = s.col_counts();
    for (std::size_t i = 0; i < items; ++i) totals[i] += counts[i];
  }
  for (std::size_t w = 0; w < slices.size(); ++w) {
    TrainWorker& worker = e.workers.emplace_back(
        static_cast<std::uint32_t>(w), "cpu" + std::to_string(w), slices[w],
        comm, c.streams[w]);
    worker.set_passes(c.passes);
    const auto counts = slices[w].col_counts();
    std::vector<float> weights(items, 0.0f);
    for (std::size_t i = 0; i < items; ++i) {
      if (totals[i] > 0) {
        weights[i] = static_cast<float>(counts[i]) /
                     static_cast<float>(totals[i]);
      }
    }
    worker.set_item_weights(std::move(weights));
  }
  e.alive.assign(slices.size(), true);
  return e;
}

void run_epochs(Engine& e, ExecMode mode, std::uint32_t epochs) {
  ExecOptions opts;
  opts.mode = mode;
  EpochExecutor exec(opts, e.workers.size());
  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    exec.run_epoch(e.workers, e.alive, *e.server, 0.01f, 0.02f, 0.02f);
  }
}

std::vector<float> copy_of(std::span<const float> values) {
  return {values.begin(), values.end()};
}

void expect_bitwise(const std::vector<float>& serial,
                    const std::vector<float>& parallel, const char* what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  for (std::size_t j = 0; j < serial.size(); ++j) {
    ASSERT_EQ(serial[j], parallel[j]) << what << " index " << j;
  }
}

TEST(EpochEngine, ParallelComputesSerialsFloats) {
  std::vector<EngineCase> cases;
  for (const auto& streams : {std::vector<std::uint32_t>{1, 1, 1, 1},
                              std::vector<std::uint32_t>{1, 3, 1, 2}}) {
    for (const bool sparse : {false, true}) {
      for (const auto codec :
           {comm::CodecKind::kFp32, comm::CodecKind::kFp16,
            comm::CodecKind::kInt8, comm::CodecKind::kTwoBit}) {
        for (const std::uint32_t passes : {1u, 2u}) {
          cases.push_back({streams, sparse, codec, passes});
        }
      }
    }
  }
  for (const EngineCase& c : cases) {
    SCOPED_TRACE(describe(c));
    Engine serial = build_engine(c);
    run_epochs(serial, ExecMode::kSerial, 3);
    Engine parallel = build_engine(c);
    run_epochs(parallel, ExecMode::kParallel, 3);
    expect_bitwise(copy_of(serial.server->model().p_data()),
                   copy_of(parallel.server->model().p_data()), "P");
    expect_bitwise(copy_of(serial.server->model().q_data()),
                   copy_of(parallel.server->model().q_data()), "Q");
    EXPECT_EQ(parallel.server->sync_count(), serial.server->sync_count());
  }
}

TEST(EpochEngine, FailedPhaseMergesNothing) {
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    SCOPED_TRACE(exec_mode_name(mode));
    fault::FaultOptions options;
    options.plan = fault::FaultPlan::parse("kill:w1@e1");
    fault::FaultRuntime runtime(options);
    Engine e = build_engine({{1, 1, 1, 1}});
    for (auto& w : e.workers) w.set_fault_runtime(&runtime);
    ExecOptions opts;
    opts.mode = mode;
    EpochExecutor exec(opts, e.workers.size());

    runtime.injector().begin_epoch(0);
    exec.run_epoch(e.workers, e.alive, *e.server, 0.01f, 0.02f, 0.02f);
    const std::vector<float> before = copy_of(e.server->model().q_data());
    const std::uint64_t merges = e.server->sync_count();

    // The kill fires at w1's first phase check in epoch 1, its pull; the
    // other workers still pull and compute, but nobody merges.
    runtime.injector().begin_epoch(1);
    try {
      exec.run_epoch(e.workers, e.alive, *e.server, 0.01f, 0.02f, 0.02f);
      FAIL() << "expected the kill to surface";
    } catch (const fault::WorkerFault& dead) {
      EXPECT_EQ(dead.worker(), 1u);
    }
    expect_bitwise(before, copy_of(e.server->model().q_data()), "Q");
    EXPECT_EQ(e.server->sync_count(), merges);
  }
}

TEST(EpochEngine, InlinePhaseRanksFaultsLikeTheThreads) {
  // kSerial runs a phase inline, yet every alive worker still runs after a
  // peer threw, and the same ranked exception wins as under kParallel.
  for (const ExecMode mode : {ExecMode::kSerial, ExecMode::kParallel}) {
    SCOPED_TRACE(exec_mode_name(mode));
    ExecOptions opts;
    opts.mode = mode;
    EpochExecutor exec(opts, 5);
    const std::vector<bool> alive = {true, true, false, true, true};
    std::vector<std::atomic<int>> ran(5);
    try {
      exec.run_phase(alive, [&](std::size_t i) {
        ran[i].fetch_add(1);
        if (i == 0) throw std::runtime_error("generic");
        if (i == 1) throw fault::DivergenceError(1, 0);
        if (i >= 3) {
          throw fault::WorkerKilledError(static_cast<std::uint32_t>(i), 0);
        }
      });
      FAIL() << "expected a WorkerFault";
    } catch (const fault::WorkerFault& e) {
      EXPECT_EQ(e.worker(), 3u);
    }
    EXPECT_EQ(ran[0].load(), 1);
    EXPECT_EQ(ran[1].load(), 1);
    EXPECT_EQ(ran[2].load(), 0);
    EXPECT_EQ(ran[3].load(), 1);
    EXPECT_EQ(ran[4].load(), 1);
  }
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
  config.comm.codec = comm::CodecKind::kFp32;
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

  // kParallel grids by the probed host rates, kSerial by the plan shares,
  // so the slices (and with them the trajectories) differ; on one grid the
  // two modes compute the same floats (suite EpochEngine).  Final quality
  // must match within tolerance.
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
