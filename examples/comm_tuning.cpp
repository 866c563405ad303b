// Communication tuning: how each Section 3.4 strategy changes the epoch.
//
// Sweeps the 2^2 x {1,4} space of {payload reduction, FP16, streams} plus
// the COMM vs COMM-P backend choice for one dataset shape, printing the
// exposed communication time, total epoch time and the share of the epoch
// spent communicating — the analysis behind the paper's claim that
// nnz/(m+n) < 1e3 marks communication-bound datasets.
//
//   ./comm_tuning [--dataset=movielens] [--epochs=20]
#include <iostream>

#include "core/hccmf.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hcc;
  const util::Cli cli(argc, argv);
  const std::string dataset_name =
      cli.get("dataset", std::string("movielens"));
  const data::DatasetSpec spec = data::dataset_by_name(dataset_name);
  const sim::DatasetShape shape{spec.name, spec.m, spec.n, spec.nnz, 128};

  std::cout << "dataset " << spec.name << ", nnz/(m+n) = "
            << util::Table::num(spec.nnz_per_dim(), 1)
            << (spec.nnz_per_dim() < 1e3
                    ? "  (< 1e3: communication matters, Section 3.4)"
                    : "  (>= 1e3: compute-bound)")
            << "\n\n";

  struct Variant {
    std::string label;
    bool reduce;
    comm::CodecKind codec;
    std::uint32_t streams;
    comm::BackendKind backend;
  };
  constexpr comm::CodecKind kFp32 = comm::CodecKind::kFp32;
  constexpr comm::CodecKind kFp16 = comm::CodecKind::kFp16;
  const std::vector<Variant> variants = {
      {"P&Q fp32 (no optimization)", false, kFp32, 1, comm::BackendKind::kShm},
      {"Q-only (Strategy 1)", true, kFp32, 1, comm::BackendKind::kShm},
      {"half-Q (Strategies 1+2)", true, kFp16, 1, comm::BackendKind::kShm},
      {"half-Q + 4 streams (1+2+3)", true, kFp16, 4, comm::BackendKind::kShm},
      {"P&Q over COMM-P (ps-lite)", false, kFp32, 1,
       comm::BackendKind::kBroker},
      {"half-Q over COMM-P", true, kFp16, 1, comm::BackendKind::kBroker},
  };

  const std::uint32_t epochs =
      static_cast<std::uint32_t>(cli.get("epochs", std::int64_t{20}));
  util::Table table({"configuration", "comm time (s)", "total (s)",
                     "comm share", "payload"});
  double baseline_total = 0.0;
  for (const auto& v : variants) {
    core::HccMfConfig config;
    config.sgd.epochs = epochs;
    config.platform = sim::paper_workstation_hetero();
    config.dataset_name = spec.name;
    config.comm.reduce_payload = v.reduce;
    config.comm.codec = v.codec;
    config.comm.streams = v.streams;
    config.comm.backend = v.backend;
    const core::TrainReport report = core::HccMf(config).simulate(shape);
    if (baseline_total == 0.0) baseline_total = report.total_virtual_s;
    // comm_virtual_s sums over all workers; per-worker exposure relative to
    // the wall-clock epoch is the meaningful share.
    const double per_worker_comm =
        report.comm_virtual_s /
        static_cast<double>(config.platform.workers.size());
    table.add_row(
        {v.label, util::Table::num(report.comm_virtual_s, 4),
         util::Table::num(report.total_virtual_s, 4),
         util::Table::num(100 * per_worker_comm / report.total_virtual_s, 1) +
             "%",
         comm::payload_mode_name(comm::effective_mode(config.comm, shape))});
  }
  table.print(std::cout);
  std::cout << "\nTip: Strategy 3 helps exactly when payload reduction "
               "cannot (m ~ n); see Section 3.4 and Table 6.\n";
  return 0;
}
