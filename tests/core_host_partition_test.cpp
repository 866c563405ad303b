// Tests for the kParallel grid on measured host rates (suite HostPartition):
// the pure rates -> shares function, the probe on the executor's threads,
// and end-to-end training — balance on identical cores, kSerial's untouched
// plan-share grid, death redistribution over the host shares, and deadline
// detection against the probed rates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/epoch_executor.hpp"
#include "core/hccmf.hpp"
#include "core/partition.hpp"
#include "data/datasets.hpp"
#include "data/grid.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "sim/platform.hpp"

namespace hcc::core {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// ---------------------------------------------------------------------------
// The pure rates -> shares function.

TEST(HostPartition, EqualRatesGiveEvenShares) {
  const std::vector<double> plan = {0.37, 0.14, 0.43, 0.06};
  const auto shares = host_shares(plan, {12.0, 12.0, 12.0, 12.0});
  ASSERT_EQ(shares.size(), 4u);
  for (const double s : shares) EXPECT_NEAR(s, 0.25, 1e-12);
  EXPECT_NEAR(sum(shares), 1.0, 1e-12);
}

TEST(HostPartition, RatesSetTheRatio) {
  const auto shares = host_shares({0.5, 0.5}, {20.0, 10.0});
  EXPECT_NEAR(shares[0] / shares[1], 2.0, 1e-12);
  EXPECT_NEAR(sum(shares), 1.0, 1e-12);
}

TEST(HostPartition, RatesWithinAnOctaveGiveEvenShares) {
  // Above half the fastest rate a worker counts as the fastest...
  const auto even = host_shares({0.3, 0.3, 0.4}, {30.0, 15.5, 29.0});
  for (const double s : even) EXPECT_EQ(s, even[0]);
  EXPECT_NEAR(even[0], 1.0 / 3.0, 1e-12);
  // ...and below it, as the power-of-two fraction just above its rate.
  EXPECT_EQ(host_shares({0.5, 0.5}, {30.0, 14.0}),
            host_shares({0.5, 0.5}, {30.0, 15.0}));
  const auto quarter = host_shares({0.5, 0.5}, {30.0, 7.0});
  EXPECT_NEAR(quarter[0] / quarter[1], 4.0, 1e-12);
}

TEST(HostPartition, PrunedAndDeadWorkersStayAtZero) {
  // w1 pruned by the plan, w3 dead (share zeroed by redistribution); w2 has
  // no rate.  Only w0 and w4 take part.
  const std::vector<double> plan = {0.3, 0.0, 0.2, 0.0, 0.5};
  const std::vector<double> gbps = {6.0, 8.0, 0.0, 8.0, 24.0};
  const auto shares = host_shares(plan, gbps);
  EXPECT_EQ(shares[1], 0.0);
  EXPECT_EQ(shares[2], 0.0);
  EXPECT_EQ(shares[3], 0.0);
  EXPECT_NEAR(shares[0], 0.2, 1e-12);
  EXPECT_NEAR(shares[4], 0.8, 1e-12);
  EXPECT_NEAR(sum(shares), 1.0, 1e-12);
}

TEST(HostPartition, RejectsMismatchAndNoParticipant) {
  EXPECT_THROW((void)host_shares({0.5, 0.5}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)host_shares({0.0, 1.0}, {1.0, 0.0}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The probe on the executor's threads.

TEST(HostPartition, ProbeRatesOnlyTheKeptThreads) {
  ExecOptions opts;
  opts.mode = ExecMode::kParallel;
  EpochExecutor exec(opts, 3);
  const auto gbps = exec.probe_gbps({true, false, true}, 32);
  ASSERT_EQ(gbps.size(), 3u);
  EXPECT_GT(gbps[0], 0.0);
  EXPECT_EQ(gbps[1], 0.0);
  EXPECT_GT(gbps[2], 0.0);
  EXPECT_TRUE(std::isfinite(gbps[0]) && std::isfinite(gbps[2]));
  EXPECT_THROW((void)exec.probe_gbps({true, true}, 32), std::invalid_argument);
  // The threads the probe spawned serve the epochs afterwards.
  int runs = 0;
  exec.run_parallel({false, true, false}, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

// ---------------------------------------------------------------------------
// End to end.

struct SmallProblem {
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
  data::DatasetSpec spec;
};

SmallProblem netflix_small() {
  SmallProblem pr;
  pr.spec = data::netflix_spec().scaled(0.002);
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

/// The paper workstation's four heterogeneous workers, whose virtual plan
/// splits the ratings roughly 37/14/43/6.
HccMfConfig workstation_config(const data::DatasetSpec& spec,
                               ExecMode mode) {
  HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 6;
  config.comm.fp16 = false;
  config.platform = sim::paper_workstation_hetero();
  config.dataset_name = spec.name;
  config.exec.mode = mode;
  return config;
}

/// kSerial's worker_nnz for workstation_config on netflix_small, recorded
/// from the build before the host probe existed.
constexpr std::size_t kSerialPlanNnz[4] = {74798, 26005, 66101, 11427};

TrainReport train(const HccMfConfig& config, const SmallProblem& pr) {
  return HccMf(config).train(pr.train, &pr.test);
}

double nnz_spread(const std::vector<std::size_t>& nnz) {
  std::size_t lo = SIZE_MAX;
  std::size_t hi = 0;
  for (const std::size_t n : nnz) {
    if (n == 0) continue;
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  return static_cast<double>(hi) / static_cast<double>(lo);
}

/// The probe measures the host as it is.  A thread sharing its CPU, or a
/// virtual CPU whose physical core is busy with another process, can probe
/// at under half the others' rate, and the grid then rightly gives it
/// less.  The properties below hold on alike, quiet cores, so each gets
/// this many runs to find the host that way.
constexpr int kHostAttempts = 5;

/// Max over min of the probed rates of the last train() call.
double probe_spread() {
  double lo = 1e300;
  double hi = 0.0;
  for (std::size_t w = 0; w < 4; ++w) {
    const obs::Gauge* rate = obs::registry().find_gauge(
        "worker" + std::to_string(w) + ".probe_gbps");
    if (rate == nullptr || !(rate->value() > 0.0)) return 1e300;
    lo = std::min(lo, rate->value());
    hi = std::max(hi, rate->value());
  }
  return hi / lo;
}

TEST(HostPartition, ParallelGridFollowsTheProbe) {
  const SmallProblem pr = netflix_small();
  const HccMfConfig config = workstation_config(pr.spec, ExecMode::kParallel);
  const TrainReport report = train(config, pr);

  // The virtual plan still drives the timing path...
  ASSERT_EQ(report.plan.shares.size(), 4u);
  EXPECT_GT(*std::max_element(report.plan.shares.begin(),
                              report.plan.shares.end()),
            4.0 * *std::min_element(report.plan.shares.begin(),
                                    report.plan.shares.end()));
  // ...while the grid is DP0 over the rates probed on the worker threads.
  std::vector<double> gbps;
  for (std::size_t w = 0; w < 4; ++w) {
    const std::string worker = "worker" + std::to_string(w);
    const obs::Gauge* rate = obs::registry().find_gauge(worker + ".probe_gbps");
    const obs::Gauge* share = obs::registry().find_gauge(worker + ".share");
    ASSERT_NE(rate, nullptr);
    ASSERT_NE(share, nullptr);
    EXPECT_GT(rate->value(), 0.0);
    EXPECT_EQ(share->value(), report.host_shares[w]);
    gbps.push_back(rate->value());
  }
  EXPECT_EQ(report.host_shares, host_shares(report.plan.shares, gbps));
  // Each slice holds its share of the ratings, to row granularity: each of
  // its two boundaries lands within half a row of the target.
  const double nnz = static_cast<double>(pr.train.nnz());
  const auto rows = pr.train.row_counts();
  const double row = static_cast<double>(
      *std::max_element(rows.begin(), rows.end()));
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_NEAR(static_cast<double>(report.fault.worker_nnz[w]) / nnz,
                report.host_shares[w], row / nnz)
        << "worker " << w;
  }
  EXPECT_LT(report.epochs.back().test_rmse, 0.5);
}

TEST(HostPartition, ParallelGridBalancesAlikeCores) {
  const SmallProblem pr = netflix_small();
  const HccMfConfig config = workstation_config(pr.spec, ExecMode::kParallel);
  std::string probed;
  for (int attempt = 0; attempt < kHostAttempts; ++attempt) {
    const TrainReport report = train(config, pr);
    const double rates = probe_spread();
    if (rates >= 2.0) {
      probed += " " + std::to_string(rates);
      continue;
    }
    // The virtual plan would put max/min at ~6.6 here.
    EXPECT_LE(nnz_spread(report.fault.worker_nnz), 1.5)
        << "probed rates max/min " << rates;
    return;
  }
  GTEST_SKIP() << "no run probed alike cores (rates max/min:" << probed
               << "); ParallelGridFollowsTheProbe still checks the grid";
}

TEST(HostPartition, SerialGridIsThePlanShareGrid) {
  const SmallProblem pr = netflix_small();
  const TrainReport report =
      train(workstation_config(pr.spec, ExecMode::kSerial), pr);
  EXPECT_EQ(report.host_shares, report.plan.shares);

  // The same grid make_grid cuts from the plan's shares...
  const auto grid =
      data::make_grid(pr.train, data::GridKind::kRow, report.plan.shares);
  ASSERT_EQ(grid.size(), report.fault.worker_nnz.size());
  for (std::size_t w = 0; w < grid.size(); ++w) {
    EXPECT_EQ(report.fault.worker_nnz[w], grid[w].nnz) << "worker " << w;
  }
  // ...which is exactly what kSerial gridded before the host probe existed.
  EXPECT_EQ(report.fault.worker_nnz,
            std::vector<std::size_t>(std::begin(kSerialPlanNnz),
                                     std::end(kSerialPlanNnz)));
}

TEST(HostPartition, KillRedistributesOverTheHostShares) {
  const SmallProblem pr = netflix_small();
  HccMfConfig config = workstation_config(pr.spec, ExecMode::kParallel);
  config.fault.plan = fault::FaultPlan::parse("kill:w1@e2");
  const TrainReport report = train(config, pr);

  ASSERT_EQ(report.fault.dead_workers, std::vector<std::uint32_t>{1});
  EXPECT_EQ(report.fault.worker_nnz[1], 0u);
  const double nnz = static_cast<double>(pr.train.nnz());
  EXPECT_EQ(std::accumulate(report.fault.worker_nnz.begin(),
                            report.fault.worker_nnz.end(), std::size_t{0}),
            pr.train.nnz());
  // Each survivor holds its host share renormalized over the survivors, to
  // row granularity: the grid and the redistribution each cut on rows.
  const auto rows = pr.train.row_counts();
  const double row = static_cast<double>(
      *std::max_element(rows.begin(), rows.end()));
  const double survivors = 1.0 - report.host_shares[1];
  for (const std::size_t w : {0u, 2u, 3u}) {
    EXPECT_NEAR(static_cast<double>(report.fault.worker_nnz[w]) / nnz,
                report.host_shares[w] / survivors, 2.0 * row / nnz)
        << "worker " << w;
  }
  EXPECT_TRUE(std::isfinite(report.epochs.back().test_rmse));
}

TEST(HostPartition, CleanParallelRunFlagsNoStragglers) {
  const SmallProblem pr = netflix_small();
  HccMfConfig config = workstation_config(pr.spec, ExecMode::kParallel);
  // An active plan arms deadline detection; its one event never fires.
  config.fault.plan = fault::FaultPlan::parse("stall:w0@e99x2");
  std::uint64_t fewest = UINT64_MAX;
  for (int attempt = 0; attempt < kHostAttempts && fewest > 0; ++attempt) {
    const TrainReport report = train(config, pr);
    EXPECT_EQ(report.fault.injected, 0u);
    fewest = std::min(fewest, report.fault.stragglers);
  }
  EXPECT_EQ(fewest, 0u);
}

TEST(HostPartition, RealStallFlagsTheStalledWorker) {
  const SmallProblem pr = netflix_small();
  HccMfConfig config = workstation_config(pr.spec, ExecMode::kParallel);
  config.fault.plan = fault::FaultPlan::parse("stall:w0@e2x16");
  config.fault.real_stalls = true;
  const TrainReport report = train(config, pr);
  const std::vector<std::uint32_t>& flagged = report.epochs[2].stragglers;
  EXPECT_NE(std::find(flagged.begin(), flagged.end(), 0u), flagged.end());
}

}  // namespace
}  // namespace hcc::core
