// Figure 5 (Section 3.2): the three epoch timing sequences —
//   left:   original, no optimization (even partition, P&Q FP32),
//   middle: optimized, sync negligible (DP1, Netflix),
//   right:  optimized with sync consideration (DP2, R1*).
// Rendered as ASCII Gantt charts of one epoch per configuration.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/hccmf.hpp"
#include "sim/trace_export.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace hcc;

namespace {

std::string g_csv_dir;  // set from --csv_dir; empty = no export
int g_csv_counter = 0;

// Renders one epoch's per-worker spans as a proportional ASCII bar.
void draw_timeline(const std::string& title, const sim::EpochConfig& config) {
  sim::EpochConfig cfg = config;
  cfg.jitter = 0.0;
  const sim::EpochTiming t = sim::simulate_epoch(cfg);
  std::cout << "\n--- " << title << " (epoch = "
            << util::Table::num(t.epoch_s * 1e3, 2) << " ms) ---\n";
  constexpr int kWidth = 64;
  const double scale = kWidth / t.epoch_s;
  for (std::size_t w = 0; w < t.workers.size(); ++w) {
    const auto& wt = t.workers[w];
    const int pull = std::max(
        wt.pull_s > 0 ? 1 : 0, static_cast<int>(wt.pull_s * scale));
    const int comp = std::max(
        wt.compute_s > 0 ? 1 : 0, static_cast<int>(wt.compute_s * scale));
    const int push = std::max(
        wt.push_s > 0 ? 1 : 0, static_cast<int>(wt.push_s * scale));
    const int sync_gap = std::max(
        0, static_cast<int>((wt.sync_end_s - wt.finish_s) * scale));
    std::string bar = std::string(pull, 'p') + std::string(comp, '#') +
                      std::string(push, 'u') + std::string(sync_gap, 's');
    if (static_cast<int>(bar.size()) > kWidth) bar.resize(kWidth);
    std::printf("  %-10s |%s\n", cfg.workers[w].device.name.c_str(),
                bar.c_str());
  }
  std::cout << "  legend: p=pull  #=compute  u=push  s=waiting-for-sync\n";
  std::cout << "  server sync busy: "
            << util::Table::num(t.server_busy_s * 1e3, 2) << " ms\n";
  if (!g_csv_dir.empty()) {
    std::vector<std::string> names;
    for (const auto& w : cfg.workers) names.push_back(w.device.name);
    const std::string path = g_csv_dir + "/fig5_timeline_" +
                             std::to_string(g_csv_counter++) + ".csv";
    if (sim::export_epoch_csv(t, names, path)) {
      std::cout << "  (timeline written to " << path << ")\n";
    }
  }
}

sim::EpochConfig epoch_of(const core::HccMfConfig& config,
                          const sim::DatasetShape& shape,
                          core::PartitionStrategy strategy) {
  core::DataManager manager(config.platform, shape, config.comm,
                            config.manager);
  return manager.epoch_config(manager.plan(strategy));
}

}  // namespace

int main(int argc, char** argv) {
  const hcc::util::Cli cli(argc, argv);
  g_csv_dir = cli.get("csv_dir", std::string());
  bench::banner("Figure 5: timing sequences of a training epoch",
                "paper Figure 5; left/middle/right sub-figures");

  const sim::DatasetShape netflix = bench::shape_of(data::netflix_spec());
  const sim::DatasetShape r1star = bench::shape_of(data::yahoo_r1_star_spec());

  // Left: original sequence — even partition, all matrices, FP32.
  {
    core::HccMfConfig config;
    config.platform = sim::paper_workstation_hetero();
    config.comm.reduce_payload = false;
    config.comm.codec = comm::CodecKind::kFp32;
    config.dataset_name = "netflix";
    draw_timeline("original (even partition, P&Q FP32) — Netflix",
                  epoch_of(config, netflix, core::PartitionStrategy::kEven));
  }

  // Middle: optimized, synchronization negligible — DP1 on Netflix.
  {
    core::HccMfConfig config;
    config.platform = sim::paper_workstation_hetero();
    config.dataset_name = "netflix";
    draw_timeline("optimized, sync negligible (DP1) — Netflix",
                  epoch_of(config, netflix, core::PartitionStrategy::kDp1));
  }

  // Right: optimized with synchronization considered — DP2 on R1*.
  {
    core::HccMfConfig config;
    config.platform = sim::paper_workstation_hetero();
    config.dataset_name = "r1star";
    draw_timeline("optimized, sync considered (DP2) — R1*",
                  epoch_of(config, r1star, core::PartitionStrategy::kDp2));
    core::HccMfConfig dp1 = config;
    draw_timeline("for contrast: DP1 on R1* (syncs pile up at the end)",
                  epoch_of(dp1, r1star, core::PartitionStrategy::kDp1));
  }
  return 0;
}
