#include "cluster/hierarchical.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "comm/payload.hpp"
#include "core/partition.hpp"
#include "core/training_loop.hpp"
#include "mf/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace hcc::cluster {

std::vector<core::ConfigError> HierarchicalConfig::validate() const {
  std::vector<core::ConfigError> errors = TrainingOptions::validate();
  if (cluster.nodes.empty()) {
    errors.push_back(
        {core::ConfigErrorCode::kNoWorkers, "cluster has no nodes"});
  }
  if (local_epochs == 0) {
    errors.push_back({core::ConfigErrorCode::kZeroLocalEpochs,
                      "local_epochs is 0"});
  }
  return errors;
}

HierarchicalHcc::HierarchicalHcc(HierarchicalConfig config)
    : config_(std::move(config)) {}

std::vector<double> HierarchicalHcc::node_shares(
    const sim::DatasetShape& shape) const {
  std::vector<double> times;
  times.reserve(config_.cluster.nodes.size());
  for (const auto& node : config_.cluster.nodes) {
    times.push_back(static_cast<double>(shape.nnz) /
                    node.platform.ideal_update_rate(shape));
  }
  return core::dp0_partition(times);
}

GlobalEpochTiming HierarchicalHcc::time_global_epoch(
    const sim::DatasetShape& shape, const std::vector<double>& shares,
    bool last) const {
  GlobalEpochTiming timing;

  // Level 1: node-local epochs run in parallel across nodes.
  for (std::size_t n = 0; n < config_.cluster.nodes.size(); ++n) {
    sim::DatasetShape node_shape = shape;
    node_shape.m = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(shape.m * shares[n])));
    node_shape.nnz = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(
               static_cast<double>(shape.nnz) * shares[n])));

    core::HccMfConfig node_config;
    node_config.sgd = config_.sgd;
    node_config.sgd.epochs = config_.local_epochs;
    node_config.comm = config_.comm;
    node_config.platform = config_.cluster.nodes[n].platform;
    node_config.manager = config_.manager;
    node_config.dataset_name = config_.dataset_name;
    const double node_s =
        core::HccMf(node_config).simulate(node_shape).total_virtual_s;
    timing.node_max_s = std::max(timing.node_max_s, node_s);
  }

  // Level 2: global Q exchange over the network (links are parallel, so
  // the per-node transfer time is the exposed one) ...
  const std::uint64_t q_elements = shape.n * shape.k;
  const comm::CodecKind kind = config_.comm.codec;
  // One Q pull plus one Q push per node; the directions may ride different
  // codecs (2-bit compresses only the push stream).
  double wire =
      comm::wire_bytes(q_elements, comm::pull_codec_kind(config_.comm),
                       shape.k) +
      comm::wire_bytes(q_elements, kind, shape.k);
  if (last) {
    // ... the final global push also delivers every node's P rows.
    wire += comm::wire_bytes(shape.m * shape.k, kind, shape.k);
  }
  timing.network_s = wire / (config_.cluster.network.bandwidth_gbs * 1e9) +
                     2.0 * config_.cluster.network.latency_s;

  // ... plus the serial global merge, one multiply-add per Q parameter per
  // node (Eq. 3 one level up).
  const double sync_bytes = static_cast<double>(q_elements) * 4.0;
  const double per_node_sync =
      3.0 * sync_bytes / (config_.cluster.global_server.mem_bandwidth_gbs * 1e9) +
      (sync_bytes / 4.0) / (config_.cluster.global_server.compute_gflops * 1e9);
  timing.global_sync_s =
      per_node_sync * static_cast<double>(config_.cluster.nodes.size());

  timing.total_s = timing.node_max_s + timing.network_s + timing.global_sync_s;
  return timing;
}

ClusterReport HierarchicalHcc::simulate(const sim::DatasetShape& shape) {
  ClusterReport report;
  report.node_shares = node_shares(shape);
  const std::uint32_t global_epochs = config_.sgd.epochs;
  // The per-epoch timings are precomputed constants (so a functional
  // run's post-rollback replay leaves them as they are).
  const GlobalEpochTiming mid =
      time_global_epoch(shape, report.node_shares, false);
  const GlobalEpochTiming last =
      time_global_epoch(shape, report.node_shares, true);
  for (std::uint32_t e = 0; e < global_epochs; ++e) {
    const GlobalEpochTiming& t = (e + 1 == global_epochs) ? last : mid;
    report.epochs.push_back(t);
    report.total_virtual_s += t.total_s;
  }
  const double updates = static_cast<double>(shape.nnz) *
                         config_.local_epochs * global_epochs;
  report.updates_per_s =
      report.total_virtual_s > 0 ? updates / report.total_virtual_s : 0.0;
  report.ideal_updates_per_s = config_.cluster.ideal_update_rate(shape);
  report.utilization = report.ideal_updates_per_s > 0
                           ? report.updates_per_s / report.ideal_updates_per_s
                           : 0.0;
  return report;
}

ClusterReport HierarchicalHcc::train(const data::RatingMatrix& train_ratings,
                                     const data::RatingMatrix* test_ratings) {
  core::throw_if_invalid(config_.validate(), "HierarchicalConfig");
  const data::GridKind grid = data::choose_grid(train_ratings);
  const sim::DatasetShape shape = core::shape_of(
      train_ratings, grid, config_.dataset_name, config_.sgd.k);

  ClusterReport report = simulate(shape);

  // Row-grid the data across nodes; each node is one loop worker whose
  // local epochs are SGD passes between its pull and its push.
  std::vector<core::WorkerSpec> specs;
  for (const auto& node : config_.cluster.nodes) {
    specs.push_back({node.name, /*streams=*/1, config_.local_epochs});
  }
  core::TrainingLoop loop(config_, shape, train_ratings, grid,
                          report.node_shares, std::move(specs));
  MembershipTable members(config_.cluster.nodes.size());
  // Test ratings in the trained matrix's row order (see HccMf::train).
  data::RatingMatrix test_rows;
  if (test_ratings != nullptr) {
    obs::ScopedSpan span("test order", obs::kTrainCategory);
    test_rows = data::grid_ordered(*test_ratings, grid);
    report.test_rmse.assign(config_.sgd.epochs, 0.0);
  }

  // Each scripted join fires exactly once per run: a rolled-back replay of
  // its epoch must not re-admit (and re-repartition) the node again.
  const fault::FaultPlan& plan = loop.options().fault.plan;
  std::vector<bool> join_latched(plan.events.size(), false);

  core::TrainingLoop::Hooks hooks;
  hooks.begin_epoch = [&](std::uint32_t epoch) {
    // Scripted joins due this epoch: re-admit the node, rebuild the
    // partition from the pristine matrix over the active set, roll back
    // to the last consistent checkpoint and resume from there.
    bool rejoined = false;
    for (std::size_t ei = 0; ei < plan.events.size(); ++ei) {
      const fault::FaultEvent& ev = plan.events[ei];
      if (ev.kind != fault::FaultKind::kJoin || ev.epoch != epoch ||
          join_latched[ei]) {
        continue;
      }
      join_latched[ei] = true;
      if (ev.worker >= members.size() || members.is_active(ev.worker)) {
        continue;
      }
      members.mark_joined(ev.worker, epoch);
      report.joined_nodes.push_back(ev.worker);
      rejoined = true;
      util::log_kv(util::LogLevel::kWarn, "cluster.join",
                   {util::kv("node", ev.worker), util::kv("epoch", epoch)});
    }
    if (!rejoined) return false;
    const std::vector<bool> active = members.active_mask();
    std::vector<double> fractions = report.node_shares;
    double sum = 0.0;
    for (std::size_t n = 0; n < fractions.size(); ++n) {
      if (!active[n]) fractions[n] = 0.0;
      sum += fractions[n];
    }
    for (double& f : fractions) f /= sum;
    loop.repartition(std::move(fractions), active);
    loop.roll_back();
    return true;
  };
  hooks.end_epoch = [&](std::uint32_t epoch, obs::ScopedSpan&) {
    if (test_ratings != nullptr) {
      obs::ScopedSpan span("test rmse", obs::kTrainCategory);
      report.test_rmse[epoch] = mf::rmse(loop.server().model(), test_rows);
    }
  };
  hooks.worker_lost = [&](std::uint32_t node, std::uint32_t epoch) {
    members.mark_dead(node, epoch);
  };
  loop.run(hooks);

  report.dead_nodes = loop.dead_workers();
  report.recoveries = report.dead_nodes.size();
  report.rollbacks = loop.rollbacks();
  report.model = std::move(loop.server().model());
  return report;
}

}  // namespace hcc::cluster
