// Hierarchical (two-level) HCC-MF across a cluster (extension).
//
// Level 1: inside each node, plain HCC-MF — a local parameter server, DP
// partitioning over the node's CPUs/GPUs, COMM over PCIe/UPI.
// Level 2: across nodes, the same parameter-server pattern once more — the
// rating matrix's rows are split across nodes (so each node's P rows stay
// node-local, Strategy 1 applies at cluster scope too), and a global server
// on node 0 merges the nodes' Q deltas over the network each global epoch.
//
// Timing: node epochs run in parallel (each from the intra-node engine);
// the global exchange adds network transfer (parallel links) plus a serial
// global sync — the same Eq. 1 structure one level up.  `local_epochs`
// trades global communication against staleness, the standard knob this
// architecture adds over single-node HCC.
//
// Functionally each node behaves exactly like one HCC worker against the
// global server (pull Q, `local_epochs` passes over the node's slice, push
// a per-item-weighted delta), so the functional path is core::TrainingLoop
// with one worker per node — the same epoch engine, recovery and rollback
// as HccMf.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/membership.hpp"
#include "core/hccmf.hpp"
#include "fault/plan.hpp"

namespace hcc::cluster {

/// Configuration of a hierarchical run: the shared TrainingOptions plus the
/// cluster fields.  `comm` is used at both levels (codec etc.).  `exec`
/// runs the global epoch: kSerial runs the nodes' pull/train on one thread,
/// kParallel each node's on its own thread — the closest functional
/// analogue of real cluster nodes; either way the global server merges the
/// pushes in node order on one thread.
/// `fault` is elastic membership at cluster scope: kill events address
/// *nodes*, `join:w<N>@e<E>` re-admits one, chaos transport events drive
/// each node's link to the global server, and node death (kill or an
/// exhausted link) triggers repartition + checkpoint rollback.
struct HierarchicalConfig : core::TrainingOptions {
  ClusterSpec cluster;
  std::uint32_t local_epochs = 1;  ///< node-local epochs per global epoch
  core::DataManagerOptions manager;
  std::string dataset_name;

  /// The shared checks plus the cluster's own (empty = valid).
  std::vector<core::ConfigError> validate() const;
};

/// Per-global-epoch timing decomposition.
struct GlobalEpochTiming {
  double node_max_s = 0.0;      ///< slowest node's local epoch(s)
  double network_s = 0.0;       ///< global pull+push over the interconnect
  double global_sync_s = 0.0;   ///< serial Q merge on the global server
  double total_s = 0.0;
};

/// The result of a hierarchical run.
struct ClusterReport {
  std::vector<double> node_shares;       ///< data split across nodes
  std::vector<GlobalEpochTiming> epochs; ///< one per *global* epoch
  double total_virtual_s = 0.0;
  double updates_per_s = 0.0;
  double ideal_updates_per_s = 0.0;
  double utilization = 0.0;
  std::vector<double> test_rmse;         ///< per global epoch (functional)
  std::optional<mf::FactorModel> model;
  /// Elastic-membership tallies (empty / zero on a fault-free run).
  std::vector<std::uint32_t> dead_nodes;    ///< ids, in order of death
  std::vector<std::uint32_t> joined_nodes;  ///< ids, in order of (re)join
  std::uint64_t recoveries = 0;             ///< node deaths survived
  std::uint64_t rollbacks = 0;              ///< divergence rollbacks
};

/// Two-level HCC-MF.
class HierarchicalHcc {
 public:
  explicit HierarchicalHcc(HierarchicalConfig config);

  /// Timing-only run at `shape` (paper-scale what-if).
  ClusterReport simulate(const sim::DatasetShape& shape);

  /// Functional training: real SGD on each node's slice, real Q merges at
  /// both levels.  `sgd.epochs` counts *global* epochs.
  ClusterReport train(const data::RatingMatrix& train_ratings,
                      const data::RatingMatrix* test_ratings = nullptr);

  /// Data split across nodes: DP0 over the nodes' aggregate ideal rates
  /// (a node is "one big worker" at cluster level).
  std::vector<double> node_shares(const sim::DatasetShape& shape) const;

 private:
  GlobalEpochTiming time_global_epoch(const sim::DatasetShape& shape,
                                      const std::vector<double>& shares,
                                      bool last) const;

  HierarchicalConfig config_;
};

}  // namespace hcc::cluster
