// Cache-aware rating scheduler baseline: epoch compute throughput per
// schedule policy, plus RMSE parity.
//
// Section "compute" isolates the bandwidth-bound term of Eq. 2: one
// worker-shaped slice (sorted by row, like assign_slices delivers), a
// P/Q factor pair at k=128, and the exact ASGD inner loop the TrainWorker
// runs (dispatched SIMD update + the prefetch-ahead hints), timed per
// visit-order policy.  `asis` sweeps each user row across the whole item
// range — every Q row falls out of L2 between touches — while `tiled`
// confines the working set to a cache-sized 2-D block, so the delta is
// exactly the effective-bandwidth gain the schedule buys.
//
// Section "parity" trains full HccMf runs per policy across seeds and
// records the final test RMSE: any visit order must converge statistically
// alike (docs/locality.md).
//
// `--json-out BENCH_locality.json` persists the recorded baseline; CI
// re-runs this on a multi-core runner and asserts tiled >= as-is compute
// throughput with RMSE parity.
//
// Flags: --json-out=PATH     machine-readable output (JsonReport format)
//        --scale=S           movielens scale for the compute section (1.0)
//        --k=K               latent dimension (default 128, the paper's)
//        --reps=N            timed passes per policy (default 3)
//        --tile-kb=KB        tile working-set budget (default 2048)
//        --parity-scale=S    movielens scale for the parity runs (0.02)
//        --parity-epochs=N   epochs per parity run (default 6)
//        --seeds=N           parity seeds per policy (default 2)
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/hccmf.hpp"
#include "data/datasets.hpp"
#include "data/schedule.hpp"
#include "mf/kernels.hpp"
#include "mf/model.hpp"
#include "util/cli.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace hcc;

namespace {

struct PolicyConfig {
  std::string label;
  data::ScheduleOptions options;
};

struct ComputeResult {
  std::string label;
  double mupdates_s = 0.0;
  double effective_gbps = 0.0;   ///< Eq. 2's B solved from the compute time
  double reorder_ms = 0.0;       ///< avg per-epoch reorder cost
  std::uint32_t tiles = 1;
  double speedup = 1.0;          ///< vs the as-is row
};

/// The TrainWorker inner loop, verbatim: prefetch-ahead + dispatched SGD.
double timed_pass(std::span<const data::Rating> entries, mf::FactorModel& model,
                  float lr, float reg) {
  const std::uint32_t k = model.k();
  const std::span<float> q = model.q_data();
  constexpr std::size_t kPrefetchAhead = 4;
  util::Stopwatch watch;
  for (std::size_t idx = 0; idx < entries.size(); ++idx) {
    if (idx + kPrefetchAhead < entries.size()) {
      const auto& f = entries[idx + kPrefetchAhead];
      mf::sgd_prefetch_rows(model.p(f.u), &q[std::size_t(f.i) * k], k);
    }
    const auto& e = entries[idx];
    mf::sgd_update_dispatch(model.p(e.u), &q[std::size_t(e.i) * k], k, e.r,
                            lr, reg, reg);
  }
  return watch.seconds();
}

ComputeResult run_compute(const PolicyConfig& policy,
                          const data::RatingMatrix& base, std::uint32_t k,
                          std::uint32_t reps) {
  data::RatingMatrix slice = base;  // fresh copy: policies must not compound
  const data::RatingScheduler sched(policy.options, k);
  mf::FactorModel model(slice.rows(), slice.cols(), k);
  util::Rng rng(17);
  model.init_random(rng, 3.5f);

  ComputeResult r;
  r.label = policy.label;
  double compute_s = 0.0;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    util::Stopwatch reorder;
    const data::ScheduleStats stats = sched.prepare(slice, rep);
    r.reorder_ms += reorder.seconds() * 1e3;
    if (stats.tiles > 0) r.tiles = stats.tiles;
    compute_s += timed_pass(slice.entries(), model, 0.005f, 0.01f);
  }
  const double updates = static_cast<double>(slice.nnz()) * reps;
  r.mupdates_s = compute_s > 0.0 ? updates / compute_s / 1e6 : 0.0;
  r.effective_gbps =
      compute_s > 0.0 ? updates * (16.0 * k + 4.0) / compute_s / 1e9 : 0.0;
  r.reorder_ms /= reps;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double scale = cli.get("scale", 1.0);
  const std::uint32_t k =
      static_cast<std::uint32_t>(cli.get("k", std::int64_t{128}));
  const std::uint32_t reps =
      static_cast<std::uint32_t>(cli.get("reps", std::int64_t{3}));
  const std::uint32_t tile_kb =
      static_cast<std::uint32_t>(cli.get("tile-kb", std::int64_t{2048}));
  const double parity_scale = cli.get("parity-scale", 0.02);
  const std::uint32_t parity_epochs =
      static_cast<std::uint32_t>(cli.get("parity-epochs", std::int64_t{6}));
  const std::uint32_t seeds =
      static_cast<std::uint32_t>(cli.get("seeds", std::int64_t{2}));

  bench::banner(
      "Cache-aware rating schedule: epoch compute throughput per policy",
      "tiled traversal vs the legacy row-sorted order (docs/locality.md)");

  std::vector<PolicyConfig> policies;
  policies.push_back({"asis", {}});
  {
    data::ScheduleOptions o;
    o.policy = data::SchedulePolicy::kShuffled;
    policies.push_back({"shuffled", o});
  }
  {
    data::ScheduleOptions o;
    o.policy = data::SchedulePolicy::kTiled;
    o.tile_kb = tile_kb;
    policies.push_back({"tiled", o});
  }
  {
    data::ScheduleOptions o;
    o.policy = data::SchedulePolicy::kTiled;
    o.tile_kb = tile_kb;
    o.zorder = true;
    policies.push_back({"tiled+z", o});
  }

  // One worker-shaped slice: MovieLens-scale, sorted by row — exactly what
  // assign_slices hands a worker (the `asis` baseline order).
  const data::DatasetSpec spec = data::movielens20m_spec().scaled(scale);
  data::GeneratorConfig gen;
  gen.seed = 5;
  gen.planted_rank = 4;
  data::RatingMatrix base = data::generate(spec, gen);
  base.sort_by_row();
  const double q_mb = static_cast<double>(base.cols()) * k * 4.0 / 1e6;
  std::cout << "slice: " << spec.name << "  " << base.rows() << " x "
            << base.cols() << ", " << base.nnz() << " ratings, Q = "
            << util::Table::num(q_mb, 1) << " MB at k=" << k << "\n\n";

  bench::JsonReport report(argc, argv, "locality");
  report.meta("dataset", spec.name);
  report.meta("nnz", static_cast<double>(base.nnz()));
  report.meta("k", static_cast<double>(k));
  report.meta("reps", static_cast<double>(reps));
  report.meta("q_mb", q_mb);

  std::vector<ComputeResult> results;
  for (const auto& policy : policies) {
    results.push_back(run_compute(policy, base, k, reps));
  }
  const double asis_rate = results.front().mupdates_s;
  for (auto& r : results) {
    r.speedup = asis_rate > 0.0 ? r.mupdates_s / asis_rate : 0.0;
  }

  util::Table table({"schedule", "Mupd/s", "eff GB/s", "speedup vs asis",
                     "tiles", "reorder ms/epoch"});
  for (const auto& r : results) {
    table.add_row({r.label, util::Table::num(r.mupdates_s, 1),
                   util::Table::num(r.effective_gbps, 2),
                   util::Table::num(r.speedup, 3) + "x",
                   std::to_string(r.tiles),
                   util::Table::num(r.reorder_ms, 2)});
    report.add_row(
        "compute",
        {{"schedule", bench::JsonReport::quote(r.label)},
         {"mupdates_s", bench::JsonReport::number(r.mupdates_s)},
         {"effective_gbps", bench::JsonReport::number(r.effective_gbps)},
         {"speedup_vs_asis", bench::JsonReport::number(r.speedup)},
         {"tiles", bench::JsonReport::number(static_cast<double>(r.tiles))},
         {"reorder_ms", bench::JsonReport::number(r.reorder_ms)}});
  }
  table.print(std::cout);

  // RMSE parity: full trainings per policy across seeds; the visit order
  // must not change where SGD converges.
  std::cout << "\nparity (full HccMf runs, scale=" << parity_scale << ", "
            << parity_epochs << " epochs):\n";
  const data::DatasetSpec pspec = data::movielens20m_spec().scaled(parity_scale);
  util::Table parity({"schedule", "seed", "final rmse"});
  for (const auto& policy : policies) {
    for (std::uint32_t seed = 0; seed < seeds; ++seed) {
      data::GeneratorConfig pgen;
      pgen.seed = 100 + seed;
      pgen.planted_rank = 4;
      const auto full = data::generate(pspec, pgen);
      util::Rng split_rng(200 + seed);
      const auto [train, test] = data::train_test_split(full, 0.1, split_rng);

      core::HccMfConfig config;
      config.sgd = mf::SgdConfig::for_dataset(pspec.reg_lambda, 0.01f, 16);
      config.sgd.epochs = parity_epochs;
      config.sgd.seed = 300 + seed;
      config.comm.codec = comm::CodecKind::kFp32;
      config.platform = sim::paper_workstation_hetero();
      for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
      config.dataset_name = pspec.name;
      config.schedule = policy.options;
      const core::TrainReport run =
          core::HccMf(config).train(train, &test);
      const double rmse = run.epochs.back().test_rmse;
      parity.add_row({policy.label, std::to_string(seed),
                      util::Table::num(rmse, 4)});
      report.add_row("parity",
                     {{"schedule", bench::JsonReport::quote(policy.label)},
                      {"seed", bench::JsonReport::number(seed)},
                      {"final_rmse", bench::JsonReport::number(rmse)}});
    }
  }
  parity.print(std::cout);

  std::cout << "\nnote: the tiled speedup needs Q (" << util::Table::num(q_mb, 1)
            << " MB) to exceed the private cache; shrink --scale and the "
               "policies converge\n";
  return 0;
}
