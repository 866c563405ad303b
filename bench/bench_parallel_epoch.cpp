// Epoch engine baseline: serial vs parallel wall clock.
//
// Runs the same functional training problem under ExecMode::kSerial (every
// chunk phase inline on one host thread) and ExecMode::kParallel (each
// phase on one thread per worker; see docs/parallel_execution.md).  Both
// merge the pushes in worker order on the calling thread.
// `--json-out BENCH_parallel.json` persists the numbers as the repo's
// recorded baseline, stamped with the host's CPU count and SIMD ISA; CI
// re-runs this on a multi-core runner and asserts parallel beats serial.
//
// Flags: --json-out=PATH   machine-readable output (JsonReport format)
//        --scale=S         netflix scale factor (default 0.01)
//        --epochs=N        training epochs (default 4)
//        --k=K             latent dimension (default 32)
//        --workers=N       homogeneous CPU workers (default 4)
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/hccmf.hpp"
#include "data/datasets.hpp"
#include "sim/platform.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hcc;

namespace {

struct RunResult {
  std::string label;
  double wall_s = 0.0;
  double final_rmse = 0.0;
  double speedup = 1.0;  ///< serial wall / this wall
};

RunResult run_once(const std::string& label, core::HccMfConfig config,
                   const data::RatingMatrix& train,
                   const data::RatingMatrix& test) {
  core::HccMf framework(std::move(config));
  const auto t0 = std::chrono::steady_clock::now();
  const core::TrainReport report = framework.train(train, &test);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RunResult r;
  r.label = label;
  r.wall_s = wall;
  r.final_rmse = report.epochs.back().test_rmse;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double scale = cli.get("scale", 0.01);
  const std::uint32_t epochs =
      static_cast<std::uint32_t>(cli.get("epochs", std::int64_t{4}));
  const std::uint32_t k =
      static_cast<std::uint32_t>(cli.get("k", std::int64_t{32}));
  const std::uint32_t n_workers =
      static_cast<std::uint32_t>(cli.get("workers", std::int64_t{4}));

  bench::banner("Epoch engine: serial vs parallel wall clock",
                "chunk phases on one thread per worker, merges in worker "
                "order (docs/parallel_execution.md)");

  const data::DatasetSpec spec = data::netflix_spec().scaled(scale);
  data::GeneratorConfig gen;
  gen.seed = 5;
  gen.planted_rank = 4;
  const auto full = data::generate(spec, gen);
  util::Rng rng(6);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);

  auto base_config = [&] {
    core::HccMfConfig config;
    config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, k);
    config.sgd.epochs = epochs;
    config.comm.codec = comm::CodecKind::kFp32;
    config.platform = sim::combo(
        "bench-homog",
        std::vector<std::string>(n_workers, "6242-24T"));
    for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
    config.dataset_name = spec.name;
    return config;
  };

  bench::JsonReport report(argc, argv, "parallel_epoch");
  report.meta("dataset", spec.name);
  report.meta("nnz", static_cast<double>(train.nnz()));
  report.meta("k", static_cast<double>(k));
  report.meta("epochs", static_cast<double>(epochs));
  report.meta("workers", static_cast<double>(n_workers));

  std::vector<RunResult> results;
  results.push_back(run_once("serial", base_config(), train, test));
  {
    core::HccMfConfig config = base_config();
    config.exec.mode = core::ExecMode::kParallel;
    results.push_back(run_once("parallel", std::move(config), train, test));
  }

  const double serial_wall = results.front().wall_s;
  for (auto& r : results) {
    r.speedup = r.wall_s > 0.0 ? serial_wall / r.wall_s : 0.0;
  }

  util::Table table({"mode", "wall s", "speedup vs serial", "final rmse"});
  for (const auto& r : results) {
    table.add_row({r.label, util::Table::num(r.wall_s, 3),
                   util::Table::num(r.speedup, 2) + "x",
                   util::Table::num(r.final_rmse, 4)});
    report.add_row("runs",
                   {{"mode", bench::JsonReport::quote(r.label)},
                    {"wall_s", bench::JsonReport::number(r.wall_s)},
                    {"speedup_vs_serial", bench::JsonReport::number(r.speedup)},
                    {"final_rmse", bench::JsonReport::number(r.final_rmse)}});
  }
  table.print(std::cout);

  std::cout << "\nnote: the speedup needs real cores; a 1-CPU host records "
               "thread-switching overhead, not concurrency\n";
  return 0;
}
