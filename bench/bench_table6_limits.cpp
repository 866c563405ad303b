// Table 6 (Section 4.6, limitations): MovieLens-20m per-epoch pull /
// computing / push on a single 2080S vs the 2080S-2080 pair, plus the
// CuMF_SGD single-GPU reference.
//
// Expected shape: adding the second GPU halves the computing time but pull
// and push stay put (communication scales with the matrix dimensions, not
// with the worker count), so the total barely moves — HCC-MF cannot
// accelerate datasets whose communication cost rivals their compute cost.
#include <iostream>

#include "bench_common.hpp"
#include "core/hccmf.hpp"
#include "util/table.hpp"

using namespace hcc;

namespace {

struct WorkerRow {
  std::string label;
  double pull = 0.0;
  double compute = 0.0;
  double push = 0.0;
  double total = 0.0;
};

std::vector<WorkerRow> run(const sim::PlatformSpec& platform,
                           const sim::DatasetShape& shape) {
  comm::CommConfig comm;
  comm.streams = 4;
  // The paper's Table 6 pull/push magnitudes correspond to FP32 transfers
  // (~67 MB of Q at PCIe rates); match that configuration.
  comm.codec = comm::CodecKind::kFp32;
  core::DataManager manager(platform, shape, comm);
  const core::Plan plan = manager.plan(core::PartitionStrategy::kAuto);

  std::vector<WorkerRow> rows(platform.workers.size());
  double total = 0.0;
  for (std::uint32_t e = 0; e < 20; ++e) {
    sim::EpochConfig cfg = manager.epoch_config(plan, e == 19);
    cfg.seed = 900 + e;
    const sim::EpochTiming t = sim::simulate_epoch(cfg);
    total += t.epoch_s;
    for (std::size_t w = 0; w < rows.size(); ++w) {
      rows[w].label = platform.workers[w].name;
      rows[w].pull += t.workers[w].pull_s;
      rows[w].compute += t.workers[w].compute_s;
      rows[w].push += t.workers[w].push_s + t.workers[w].sync_s;
    }
  }
  for (auto& r : rows) r.total = total;
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json_out(argc, argv, "table6_limits");
  bench::banner("Table 6: the MovieLens-20m limitation",
                "paper Table 6; per-20-epoch pull/computing/push, seconds");

  const sim::DatasetShape shape = bench::shape_of(data::movielens20m_spec());

  util::Table table({"config", "worker", "pull", "computing", "push",
                     "cost"});

  const auto single = run(sim::single_device(sim::rtx_2080s()), shape);
  for (const auto& r : single) {
    table.add_row({"HCC 2080S", r.label, util::Table::num(r.pull, 3),
                   util::Table::num(r.compute, 3),
                   util::Table::num(r.push, 3),
                   util::Table::num(r.total, 3)});
  }

  const auto pair = run(sim::combo("2080S-2080", {"2080S", "2080"}), shape);
  for (const auto& r : pair) {
    table.add_row({"HCC 2080S-2080", r.label, util::Table::num(r.pull, 3),
                   util::Table::num(r.compute, 3),
                   util::Table::num(r.push, 3),
                   util::Table::num(r.total, 3)});
  }

  // CuMF_SGD on the 2080S alone: pure compute, no framework transfers.
  const double cumf = 20.0 * (sim::compute_seconds(sim::rtx_2080s(), shape, 1.0) +
                              sim::rtx_2080s().epoch_overhead_s);
  table.add_row({"CuMF_SGD", "2080S", "N/A", "N/A", "N/A",
                 util::Table::num(cumf, 3)});
  json_out.add_table("table6", table);
  table.print(std::cout);

  const double gain = (single[0].total - pair[0].total) / single[0].total;
  std::cout << "\nadding a second GPU improves the total by only "
            << util::Table::num(100 * gain, 1)
            << "% — computing halves, but pull/push are dimension-bound "
               "(paper: 0.559s -> 0.449s)\n";
  return 0;
}
