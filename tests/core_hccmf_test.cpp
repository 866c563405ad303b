// Tests for the HccMf facade: functional collaborative training plus
// simulated timing.
#include "core/hccmf.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "mf/metrics.hpp"
#include "mf/trainer.hpp"

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

HccMfConfig base_config(const data::DatasetSpec& spec) {
  HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 8;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  // Toy-scale functional runs: the fixed per-epoch management cost would
  // dominate a sub-millisecond epoch and distort the partition profiling.
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = spec.name;
  return config;
}

TEST(HccMf, FunctionalTrainingConverges) {
  const SmallProblem pr = netflix_small();
  HccMf framework(base_config(pr.spec));
  const TrainReport report = framework.train(pr.train, &pr.test);
  ASSERT_TRUE(report.model.has_value());
  ASSERT_EQ(report.epochs.size(), 8u);
  const double first = report.epochs.front().test_rmse;
  const double last = report.epochs.back().test_rmse;
  EXPECT_LT(last, first);
  EXPECT_LT(last, 1.1);
}

TEST(HccMf, ConvergenceComparableToSerialBaseline) {
  // Figure 7(a-c)'s claim: HCC-MF's per-epoch convergence matches the
  // single-processor baselines.
  const SmallProblem pr = netflix_small();
  HccMfConfig config = base_config(pr.spec);
  HccMf framework(config);
  const TrainReport report = framework.train(pr.train, &pr.test);

  mf::FactorModel serial_model(pr.train.rows(), pr.train.cols(),
                               config.sgd.k);
  util::Rng rng(7);
  serial_model.init_random(rng, 3.0f);
  mf::SerialSgd serial(config.sgd);
  const auto serial_trace = mf::train_and_trace(
      serial, serial_model, pr.train, pr.test, config.sgd.epochs);

  EXPECT_NEAR(report.epochs.back().test_rmse, serial_trace.back(), 0.1);
}

TEST(HccMf, VirtualSpeedupOverSingleDevice) {
  // The whole point: collaborative computing beats the best single device
  // on compute-heavy datasets (virtual clock).
  const SmallProblem pr = netflix_small();
  HccMfConfig multi = base_config(pr.spec);
  HccMf framework(multi);
  const TrainReport collab = framework.train(pr.train);

  HccMfConfig single = base_config(pr.spec);
  single.platform = sim::single_device(sim::rtx_2080s());
  single.platform.workers[0].epoch_overhead_s = 0.0;
  HccMf single_fw(single);
  const TrainReport alone = single_fw.train(pr.train);

  EXPECT_LT(collab.total_virtual_s, alone.total_virtual_s);
  EXPECT_GT(collab.updates_per_s, alone.updates_per_s);
}

TEST(HccMf, UtilizationIsAFraction) {
  const SmallProblem pr = netflix_small();
  HccMf framework(base_config(pr.spec));
  const TrainReport report = framework.train(pr.train);
  EXPECT_GT(report.utilization, 0.3);
  EXPECT_LE(report.utilization, 1.0);
  EXPECT_GT(report.ideal_updates_per_s, report.updates_per_s);
}

TEST(HccMf, CommStatsAccumulateAcrossWorkersAndEpochs) {
  const SmallProblem pr = netflix_small();
  HccMfConfig config = base_config(pr.spec);
  HccMf framework(config);
  const TrainReport report = framework.train(pr.train);
  // 4 workers x 8 epochs x (pull + push) = 64 wire copies with 1 stream.
  EXPECT_EQ(report.comm_totals.copies, 64u);
  const std::uint64_t q_bytes =
      std::uint64_t(pr.train.cols()) * config.sgd.k * 4;
  EXPECT_EQ(report.comm_totals.wire_bytes, 64u * q_bytes);
}

TEST(HccMf, Fp16HalvesFunctionalWireBytes) {
  const SmallProblem pr = netflix_small();
  HccMfConfig fp32 = base_config(pr.spec);
  HccMfConfig fp16 = base_config(pr.spec);
  fp16.comm.codec = comm::CodecKind::kFp16;
  const TrainReport r32 = HccMf(fp32).train(pr.train);
  const TrainReport r16 = HccMf(fp16).train(pr.train);
  EXPECT_EQ(r32.comm_totals.wire_bytes, 2u * r16.comm_totals.wire_bytes);
}

TEST(HccMf, Fp16DoesNotHurtConvergence) {
  // Strategy 2's claim: FP16 transmission does not affect training quality.
  const SmallProblem pr = netflix_small();
  HccMfConfig fp32 = base_config(pr.spec);
  HccMfConfig fp16 = base_config(pr.spec);
  fp16.comm.codec = comm::CodecKind::kFp16;
  const TrainReport r32 = HccMf(fp32).train(pr.train, &pr.test);
  const TrainReport r16 = HccMf(fp16).train(pr.train, &pr.test);
  EXPECT_NEAR(r16.epochs.back().test_rmse, r32.epochs.back().test_rmse, 0.05);
}

TEST(HccMf, WideMatrixIsTransposedTransparently) {
  // More items than users: column grid / "Transmitting P only".
  SmallProblem pr = netflix_small();
  const data::RatingMatrix wide = pr.train.transposed();
  const data::RatingMatrix wide_test = pr.test.transposed();
  HccMfConfig config = base_config(pr.spec);
  HccMf framework(config);
  const TrainReport report = framework.train(wide, &wide_test);
  EXPECT_LT(report.epochs.back().test_rmse, report.epochs.front().test_rmse);
  ASSERT_TRUE(report.model.has_value());
  // The returned model lives in the transposed orientation: users of the
  // wide matrix are its rows.
  EXPECT_EQ(report.model->items(), wide.rows());
}

TEST(HccMf, SimulateMatchesPaperScaleWithoutData) {
  HccMfConfig config;
  config.sgd.epochs = 20;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  config.dataset_name = "netflix";
  HccMf framework(config);
  const TrainReport report =
      framework.simulate({"netflix", 480190, 17771, 99072112, 128});
  EXPECT_FALSE(report.model.has_value());
  EXPECT_EQ(report.epochs.size(), 20u);
  // 20-epoch Netflix on the full virtual workstation: around 1 second
  // (Figure 8(b) region), far under the single-CPU ~7s.
  EXPECT_GT(report.total_virtual_s, 0.3);
  EXPECT_LT(report.total_virtual_s, 3.0);
  EXPECT_GT(report.utilization, 0.5);
}

TEST(HccMf, EpochReportsAreCumulative) {
  const SmallProblem pr = netflix_small();
  HccMf framework(base_config(pr.spec));
  const TrainReport report = framework.train(pr.train);
  double cum = 0.0;
  for (const auto& e : report.epochs) {
    cum += e.virtual_s;
    EXPECT_NEAR(e.cumulative_virtual_s, cum, 1e-9);
    EXPECT_GT(e.virtual_s, 0.0);
  }
  EXPECT_NEAR(report.total_virtual_s, cum, 1e-9);
}

TEST(HccMf, PlanForExposesDecision) {
  HccMfConfig config;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  HccMf framework(config);
  const Plan plan = framework.plan_for({"r1", 1948883, 1101750, 115579437, 128});
  EXPECT_EQ(plan.chosen, PartitionStrategy::kDp2);
}

TEST(HccMf, EmptyPlatformFallsBackToPaperWorkstation) {
  HccMfConfig config;
  config.platform.workers.clear();
  HccMf framework(config);
  EXPECT_EQ(framework.config().platform.workers.size(), 4u);
}

}  // namespace
}  // namespace hcc::core
