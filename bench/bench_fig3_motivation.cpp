// Figure 3 (Section 2.3-2.4, motivation): 20-epoch Netflix training time on
// single processors vs good and bad multi-CPU/GPU collaborations, plus the
// platform price list (Figure 3b).
//
// Shape expected from the paper: every good collaboration beats its single
// devices; 6242-2080S lands close to a Tesla V100 at well under half the
// price; bad configurations (no comm optimization, unbalanced data, bad
// thread configuration) squander the collaboration.
#include <iostream>

#include "bench_common.hpp"
#include "core/hccmf.hpp"
#include "util/table.hpp"

using namespace hcc;

namespace {

struct Row {
  std::string label;
  double seconds;
  double price;
  std::string kind;
};

core::HccMfConfig config_for(const sim::PlatformSpec& platform) {
  core::HccMfConfig config;
  config.sgd.epochs = 20;
  config.platform = platform;
  config.dataset_name = "netflix";
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json_out(argc, argv, "fig3_motivation");
  bench::banner("Figure 3: SGD-based MF on different platforms (Netflix, 20 epochs)",
                "paper Figure 3a/3b; CPU bar = Xeon 6242, collaborations good & bad");
  const sim::DatasetShape shape = bench::shape_of(data::netflix_spec());

  std::vector<Row> rows;
  auto run = [&](const std::string& label, const sim::PlatformSpec& platform,
                 const std::string& kind,
                 core::HccMfConfig config) {
    const core::TrainReport report = core::HccMf(config).simulate(shape);
    rows.push_back(
        {label, report.total_virtual_s, platform.total_price_usd(), kind});
  };

  // Single processors (the independent FPSGD / CuMF_SGD runs).
  for (const char* name : {"6242-24T", "2080", "2080S", "V100"}) {
    const auto platform = sim::single_device(sim::device_by_name(name));
    run(name, platform, name[0] == '6' ? "CPU" : "GPU", config_for(platform));
  }

  // Good collaborations: full HCC-MF (auto partition, all comm strategies).
  for (const auto& [label, devices] :
       std::vector<std::pair<std::string, std::vector<std::string>>>{
           {"6242-2080", {"6242-24T", "2080"}},
           {"6242-2080S", {"6242-24T", "2080S"}},
           {"2080-2080S", {"2080S", "2080"}}}) {
    const auto platform = sim::combo(label, devices);
    run(label, platform, "good collaboration", config_for(platform));
  }

  // Bad collaboration 1: no communication optimization (full P&Q in FP32
  // through the ps-lite style broker; Section 2.4 "Bad communication").
  {
    const auto platform = sim::combo("6242-2080S", {"6242-24T", "2080S"});
    core::HccMfConfig config = config_for(platform);
    config.comm.reduce_payload = false;
    config.comm.codec = comm::CodecKind::kFp32;
    config.comm.backend = comm::BackendKind::kBroker;
    run("6242-2080S (bad communication)", platform, "bad collaboration",
        config);
  }

  // Bad collaboration 2: unbalanced data (even split ignores heterogeneity;
  // the CPU drags the GPU down — the short-board effect).
  {
    const auto platform = sim::combo("6242-2080S", {"6242-24T", "2080S"});
    core::HccMfConfig config = config_for(platform);
    config.partition = core::PartitionStrategy::kEven;
    run("6242-2080S (unbalanced data)", platform, "bad collaboration",
        config);
  }

  // Bad collaboration 3: bad thread configuration — the CPU worker is left
  // at 10 threads but the partition assumes full 24-thread performance.
  {
    auto platform = sim::combo("6242-2080S", {"6242-10T", "2080S"});
    platform.workers[0].calibrated_rates =
        sim::xeon_6242_10t().calibrated_rates;
    core::HccMfConfig config = config_for(platform);
    // DP0 computed against the 24T profile, applied to the 10T reality:
    const double t_cpu_assumed =
        sim::compute_seconds(sim::xeon_6242_24t(), shape, 1.0);
    const double t_gpu =
        sim::compute_seconds(sim::rtx_2080s(), shape, 1.0);
    core::DataManager manager(platform, shape, config.comm, config.manager);
    core::Plan plan = manager.plan(core::PartitionStrategy::kDp0);
    plan.shares = core::dp0_partition({t_cpu_assumed, t_gpu});
    double total = 0.0;
    for (std::uint32_t e = 0; e < 20; ++e) {
      auto cfg = manager.epoch_config(plan, e == 19);
      cfg.seed = 100 + e;
      total += sim::simulate_epoch(cfg).epoch_s;
    }
    rows.push_back({"6242-2080S (bad threads conf)", total,
                    platform.total_price_usd(), "bad collaboration"});
  }

  util::Table table({"platform", "time (s)", "kind", "price ($)"});
  for (const auto& r : rows) {
    table.add_row({r.label, util::Table::num(r.seconds, 3), r.kind,
                   util::Table::num(r.price, 0)});
  }
  json_out.add_table("fig3", table);
  table.print(std::cout);

  const double v100 = rows[3].seconds;          // "V100"
  const double combo_6242_2080s = rows[5].seconds;  // "6242-2080S"
  std::cout << "\nheadline: 6242-2080S reaches "
            << util::Table::num(100 * v100 / combo_6242_2080s, 1)
            << "% of a Tesla V100's speed at "
            << util::Table::num(100 * rows[5].price / rows[3].price, 0)
            << "% of its price (paper: 'close ... less than 1/3 of its price')\n";
  return 0;
}
