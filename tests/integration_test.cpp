// Cross-module integration tests: the full pipeline from synthetic dataset
// generation through collaborative training, compared against the paper's
// single-processor baselines, plus the DP0/DP1/DP2 strategy comparison that
// Section 4.3 evaluates.
#include <gtest/gtest.h>

#include <cmath>

#include "core/hccmf.hpp"
#include "mf/batched.hpp"
#include "mf/fpsgd.hpp"
#include "mf/metrics.hpp"
#include "mf/trainer.hpp"

namespace hcc {
namespace {

struct Pipeline {
  data::DatasetSpec spec;
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
};

Pipeline build_pipeline(const data::DatasetSpec& base, double scale,
                        std::uint64_t seed) {
  Pipeline p;
  p.spec = base.scaled(scale);
  data::GeneratorConfig gen;
  gen.seed = seed;
  gen.planted_rank = 4;
  const auto full = data::generate(p.spec, gen);
  util::Rng rng(seed + 1);
  auto [train, test] = data::train_test_split(full, 0.1, rng);
  p.train = std::move(train);
  p.test = std::move(test);
  return p;
}

mf::SgdConfig sgd_for(const Pipeline& p) {
  mf::SgdConfig c = mf::SgdConfig::for_dataset(p.spec.reg_lambda, 0.01f, 16);
  // Synthetic shrunk sets behave best with mild regularization even when
  // the full-size original (R1) uses lambda = 1.
  c.reg_p = c.reg_q = std::min(c.reg_p, 0.05f);
  c.epochs = 6;
  return c;
}

TEST(Integration, HccBeatsBaselinesOnVirtualClockAndMatchesQuality) {
  const Pipeline p = build_pipeline(data::netflix_spec(), 0.002, 11);
  const mf::SgdConfig sgd = sgd_for(p);

  // HCC-MF on the full virtual workstation (toy-scale run: drop the fixed
  // per-epoch management cost, which would dominate microsecond epochs).
  core::HccMfConfig config;
  config.sgd = sgd;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = p.spec.name;
  const core::TrainReport hcc = core::HccMf(config).train(p.train, &p.test);

  // FPSGD (CPU baseline) — functional quality + virtual single-CPU time.
  mf::FactorModel fpsgd_model(p.spec.m, p.spec.n, sgd.k);
  util::Rng rng(9);
  fpsgd_model.init_random(rng, 3.0f);
  mf::FpsgdTrainer fpsgd(sgd, 3);
  const auto fpsgd_trace =
      mf::train_and_trace(fpsgd, fpsgd_model, p.train, p.test, sgd.epochs);

  // CuMF-style batched (GPU baseline).
  util::ThreadPool pool(2);
  mf::FactorModel gpu_model(p.spec.m, p.spec.n, sgd.k);
  util::Rng rng2(9);
  gpu_model.init_random(rng2, 3.0f);
  mf::BatchedTrainer batched(sgd, pool, 4);
  const auto gpu_trace =
      mf::train_and_trace(batched, gpu_model, p.train, p.test, sgd.epochs);

  // Quality: same convergence regime (Figure 7a).
  EXPECT_NEAR(hcc.epochs.back().test_rmse, fpsgd_trace.back(), 0.12);
  EXPECT_NEAR(hcc.epochs.back().test_rmse, gpu_trace.back(), 0.12);

  // Speed: the virtual collaborative platform beats each single device
  // (Figure 7d's 2.3x over CuMF_SGD / 5.75x over FPSGD regime).
  const sim::DatasetShape shape{p.spec.name, p.spec.m, p.spec.n, p.spec.nnz,
                                sgd.k};
  const double cpu_alone =
      sgd.epochs * sim::compute_seconds(sim::xeon_6242_24t(), shape, 1.0);
  const double gpu_alone =
      sgd.epochs * sim::compute_seconds(sim::rtx_2080s(), shape, 1.0);
  EXPECT_LT(hcc.total_virtual_s, gpu_alone);
  EXPECT_LT(hcc.total_virtual_s, cpu_alone);
  EXPECT_GT(cpu_alone / hcc.total_virtual_s, 3.0);  // >> FPSGD
}

TEST(Integration, Dp1BeatsDp0OnComputeBoundShape) {
  // Section 4.3 / Figure 8(a-d): on Netflix and R2 (sync negligible), DP1's
  // epoch time is no worse than DP0's — the paper measures ~10-12% better.
  core::HccMfConfig config;
  config.sgd.epochs = 20;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  config.dataset_name = "netflix";
  const sim::DatasetShape shape{"netflix", 480190, 17771, 99072112, 128};

  config.partition = core::PartitionStrategy::kDp0;
  const double dp0 = core::HccMf(config).simulate(shape).total_virtual_s;
  config.partition = core::PartitionStrategy::kDp1;
  const double dp1 = core::HccMf(config).simulate(shape).total_virtual_s;
  EXPECT_LT(dp1, dp0 * 1.01);
}

TEST(Integration, Dp2BeatsDp1OnSyncBoundShape) {
  // Section 4.3 / Figure 8(e-f): on R1* (sync matters), DP2 hides sync and
  // ends the epoch sooner than DP1 (~12% in the paper).
  core::HccMfConfig config;
  config.sgd.epochs = 20;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  config.dataset_name = "r1star";
  const sim::DatasetShape shape{"r1star", 1948883, 1101750, 199999997, 128};

  config.partition = core::PartitionStrategy::kDp1;
  const double dp1 = core::HccMf(config).simulate(shape).total_virtual_s;
  config.partition = core::PartitionStrategy::kDp2;
  const double dp2 = core::HccMf(config).simulate(shape).total_virtual_s;
  EXPECT_LT(dp2, dp1);
}

TEST(Integration, EvenPartitionShowsShortBoardEffect) {
  // Figure 3(a) "unbalanced data": an even split on the heterogeneous
  // platform is visibly slower than DP1.
  core::HccMfConfig config;
  config.sgd.epochs = 20;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  config.dataset_name = "netflix";
  const sim::DatasetShape shape{"netflix", 480190, 17771, 99072112, 128};

  config.partition = core::PartitionStrategy::kEven;
  const double even = core::HccMf(config).simulate(shape).total_virtual_s;
  config.partition = core::PartitionStrategy::kDp1;
  const double dp1 = core::HccMf(config).simulate(shape).total_virtual_s;
  EXPECT_GT(even, 1.5 * dp1);
}

TEST(Integration, StreamsHelpCommBoundShape) {
  // Strategy 3 on a square-ish matrix (MovieLens-like): async streams
  // shorten the epoch by hiding transfers.
  core::HccMfConfig config;
  config.sgd.epochs = 20;
  config.platform = sim::combo("2GPUs", {"2080S", "2080"});
  config.dataset_name = "movielens";
  config.comm.codec = comm::CodecKind::kFp32;
  const sim::DatasetShape shape{"movielens", 138494, 131263, 20000260, 128};

  config.comm.streams = 1;
  const double s1 = core::HccMf(config).simulate(shape).total_virtual_s;
  config.comm.streams = 4;
  const double s4 = core::HccMf(config).simulate(shape).total_virtual_s;
  EXPECT_LT(s4, s1);
}

TEST(Integration, BrokerBackendInflatesCommTime) {
  // Table 5: COMM-P is several times slower at equal payload.
  core::HccMfConfig config;
  config.sgd.epochs = 20;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  config.dataset_name = "netflix";
  const sim::DatasetShape shape{"netflix", 480190, 17771, 99072112, 128};

  const double shm =
      core::HccMf(config).simulate(shape).comm_virtual_s;
  config.comm.backend = comm::BackendKind::kBroker;
  const double broker =
      core::HccMf(config).simulate(shape).comm_virtual_s;
  EXPECT_NEAR(broker / shm, config.comm.broker_penalty, 0.3);
}

TEST(Integration, UtilizationDropsOnCommBoundDataset) {
  // Table 4's pattern: Netflix/R2 utilize >85%, MovieLens ~46%.
  core::HccMfConfig config;
  config.sgd.epochs = 20;
  config.platform = sim::paper_workstation_overall();

  config.dataset_name = "netflix";
  const auto nf = core::HccMf(config).simulate(
      {"netflix", 480190, 17771, 99072112, 128});
  config.dataset_name = "movielens";
  const auto ml = core::HccMf(config).simulate(
      {"movielens", 138494, 131263, 20000260, 128});
  EXPECT_GT(nf.utilization, 0.75);
  EXPECT_LT(ml.utilization, 0.75);
  EXPECT_GT(nf.utilization, ml.utilization);
}

}  // namespace
}  // namespace hcc
