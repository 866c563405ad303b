// End-to-end tests for the cache-aware rating scheduler wired through
// HccMf: the kAsIs bit-identical contract, RMSE parity across policies
// (any visit-order permutation preserves SGD convergence in distribution),
// determinism of reordered runs, the pinned parallel executor (the TSan CI
// target), and the sched.* observability surface.
#include <gtest/gtest.h>

#include <cmath>

#include "core/hccmf.hpp"
#include "obs/metrics.hpp"

namespace hcc::core {
namespace {

struct Problem {
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
  data::DatasetSpec spec;
};

Problem small_problem(double scale = 0.002) {
  Problem pr;
  pr.spec = data::netflix_spec().scaled(scale);
  data::GeneratorConfig gen;
  gen.seed = 11;
  gen.planted_rank = 4;
  const auto full = data::generate(pr.spec, gen);
  util::Rng rng(12);
  auto [train, test] = data::train_test_split(full, 0.1, rng);
  pr.train = std::move(train);
  pr.test = std::move(test);
  return pr;
}

HccMfConfig base_config(const data::DatasetSpec& spec) {
  HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 6;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = spec.name;
  return config;
}

double train_rmse(const Problem& pr, const HccMfConfig& config) {
  HccMf framework(config);
  const TrainReport report = framework.train(pr.train, &pr.test);
  return report.epochs.back().test_rmse;
}

TEST(ScheduleTrain, AsIsIsBitIdenticalToDefault) {
  // The default config never names the scheduler; setting kAsIs explicitly
  // must produce the exact same model, parameter for parameter.
  const Problem pr = small_problem();
  HccMfConfig plain = base_config(pr.spec);
  HccMfConfig asis = base_config(pr.spec);
  asis.schedule.policy = data::SchedulePolicy::kAsIs;

  const TrainReport a = HccMf(plain).train(pr.train);
  const TrainReport b = HccMf(asis).train(pr.train);
  ASSERT_TRUE(a.model.has_value());
  ASSERT_TRUE(b.model.has_value());
  const auto qa = a.model->q_data();
  const auto qb = b.model->q_data();
  ASSERT_EQ(qa.size(), qb.size());
  for (std::size_t j = 0; j < qa.size(); ++j) {
    ASSERT_EQ(qa[j], qb[j]) << "Q diverged at " << j;
  }
  const auto pa = a.model->p_data();
  const auto pb = b.model->p_data();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t j = 0; j < pa.size(); ++j) {
    ASSERT_EQ(pa[j], pb[j]) << "P diverged at " << j;
  }
}

TEST(ScheduleTrain, ReorderedRunsAreDeterministic) {
  // Same config, same seeds -> same trajectory, for both reordering
  // policies (the per-epoch permutation is derived, not sampled).
  const Problem pr = small_problem();
  for (const data::SchedulePolicy policy :
       {data::SchedulePolicy::kShuffled, data::SchedulePolicy::kTiled}) {
    HccMfConfig config = base_config(pr.spec);
    config.schedule.policy = policy;
    config.schedule.tile_kb = 64;
    const TrainReport a = HccMf(config).train(pr.train);
    const TrainReport b = HccMf(config).train(pr.train);
    ASSERT_TRUE(a.model.has_value() && b.model.has_value());
    const auto qa = a.model->q_data();
    const auto qb = b.model->q_data();
    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t j = 0; j < qa.size(); ++j) {
      ASSERT_EQ(qa[j], qb[j])
          << data::schedule_name(policy) << " diverged at " << j;
    }
  }
}

TEST(ScheduleTrain, RmseParityAcrossPolicies) {
  // SGD's visit order is arbitrary; every policy must land at statistically
  // the same test RMSE.  Converged RMSE on this planted-rank problem sits
  // near 0.95-1.0 with run-to-run jitter well under 0.05, so a 0.1 band is
  // a real parity check, not a tautology.
  const Problem pr = small_problem();
  HccMfConfig config = base_config(pr.spec);
  const double asis = train_rmse(pr, config);

  config.schedule.policy = data::SchedulePolicy::kShuffled;
  const double shuffled = train_rmse(pr, config);

  config.schedule.policy = data::SchedulePolicy::kTiled;
  config.schedule.tile_kb = 64;
  const double tiled = train_rmse(pr, config);

  config.schedule.zorder = true;
  const double zorder = train_rmse(pr, config);

  EXPECT_NEAR(shuffled, asis, 0.1);
  EXPECT_NEAR(tiled, asis, 0.1);
  EXPECT_NEAR(zorder, asis, 0.1);
  for (const double rmse : {asis, shuffled, tiled, zorder}) {
    EXPECT_TRUE(std::isfinite(rmse));
    EXPECT_LT(rmse, 1.2);
  }
}

TEST(ScheduleTrain, ParallelPinnedTiledConverges) {
  // The TSan CI target: tiled reordering on the workers' own threads,
  // round-robin pinned, inside the parallel chunk phases.
  const Problem pr = small_problem();
  HccMfConfig config = base_config(pr.spec);
  config.exec.mode = ExecMode::kParallel;
  config.exec.pin_threads = true;
  config.schedule.policy = data::SchedulePolicy::kTiled;
  config.schedule.tile_kb = 64;
  const TrainReport report = HccMf(config).train(pr.train, &pr.test);
  ASSERT_EQ(report.epochs.size(), 6u);
  const double first = report.epochs.front().test_rmse;
  const double last = report.epochs.back().test_rmse;
  EXPECT_TRUE(std::isfinite(last));
  EXPECT_LT(last, first);
}

TEST(ScheduleTrain, ParallelShuffledMatchesItsSerialSelf) {
  // The schedule must not interact with exec mode beyond timing: the same
  // policy converges in both modes (values differ — merge order differs —
  // but RMSE parity holds).
  const Problem pr = small_problem();
  HccMfConfig serial = base_config(pr.spec);
  serial.schedule.policy = data::SchedulePolicy::kShuffled;
  const double serial_rmse = train_rmse(pr, serial);

  HccMfConfig parallel = serial;
  parallel.exec.mode = ExecMode::kParallel;
  parallel.exec.pin_threads = true;
  const double parallel_rmse = train_rmse(pr, parallel);
  EXPECT_NEAR(parallel_rmse, serial_rmse, 0.1);
}

TEST(ScheduleTrain, PublishesSchedMetrics) {
  const Problem pr = small_problem();
  HccMfConfig config = base_config(pr.spec);
  config.schedule.policy = data::SchedulePolicy::kTiled;
  config.schedule.tile_kb = 64;
  (void)HccMf(config).train(pr.train);
  auto& reg = obs::registry();
  EXPECT_EQ(reg.gauge("sched.policy").value(),
            static_cast<double>(
                static_cast<int>(data::SchedulePolicy::kTiled)));
  EXPECT_EQ(reg.gauge("sched.tile_kb").value(), 64.0);
  EXPECT_GE(reg.gauge("sched.tiles").value(), 1.0);
  EXPECT_GT(reg.gauge("sched.reorder_ms").value(), 0.0);
  EXPECT_GT(reg.gauge("sched.effective_gbps").value(), 0.0);
}

TEST(ScheduleTrain, ValidateRejectsZeroTileBudget) {
  HccMfConfig config = base_config(data::netflix_spec().scaled(0.002));
  config.schedule.policy = data::SchedulePolicy::kTiled;
  config.schedule.tile_kb = 0;
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, ConfigErrorCode::kBadTileKb);
  // A zero budget is fine when the tiled policy is off.
  config.schedule.policy = data::SchedulePolicy::kAsIs;
  EXPECT_TRUE(config.validate().empty());
}

}  // namespace
}  // namespace hcc::core
