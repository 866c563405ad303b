// The server's DataManager (Section 3.3): turns a platform + dataset into a
// concrete collaborative-computing plan — grid orientation, data partition,
// and per-worker communication plans — using the time cost model to select
// between DP1 and DP2 (Eq. 5's lambda rule).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/strategy.hpp"
#include "core/cost_model.hpp"
#include "core/partition.hpp"
#include "data/grid.hpp"
#include "sim/platform.hpp"
#include "sim/timing.hpp"

namespace hcc::core {

/// A fully resolved collaborative-computing plan for one training run.
struct Plan {
  PartitionStrategy requested = PartitionStrategy::kAuto;
  PartitionStrategy chosen = PartitionStrategy::kAuto;  ///< auto resolved
  std::vector<double> shares;                ///< x, sums to 1
  data::GridKind grid = data::GridKind::kRow;
  comm::PayloadMode payload = comm::PayloadMode::kQOnly;
  CostPrediction prediction;                 ///< cost model at `shares`
  std::uint32_t dp1_rounds = 0;              ///< Algorithm 1 iterations used

  /// Human-readable account of the decision chain (what the paper's
  /// framework logs); examples print this.
  std::string explanation;
};

/// DataManager options.
struct DataManagerOptions {
  double lambda = 10.0;         ///< Eq. 5 threshold (paper's value)
  double measure_jitter = 0.03; ///< run-to-run noise of profiling epochs
  std::uint64_t seed = 7;
  Dp1Options dp1;
  /// When set, the DataManager drops workers whose marginal contribution is
  /// negative — on sync-bound datasets a weak worker's synchronization and
  /// communication can cost more than its compute is worth (the effect
  /// behind the paper showing R1 with only three workers in Figure 9c and
  /// idling the server's CPU under Strategy 3).  Dropped workers get share
  /// zero and no communication plan.
  bool prune_unhelpful_workers = false;
};

/// Plans partitions and builds timing configurations.
class DataManager {
 public:
  DataManager(sim::PlatformSpec platform, sim::DatasetShape shape,
              comm::CommConfig comm, DataManagerOptions options = {});

  /// Resolves the requested strategy into a concrete plan.  With
  /// prune_unhelpful_workers set, may leave some workers at share zero.
  Plan plan(PartitionStrategy request = PartitionStrategy::kAuto) const;

  /// Deterministic simulated epoch seconds for a plan (jitter-free); the
  /// comparator used by worker pruning.
  double simulated_epoch_seconds(const Plan& plan) const;

  /// Builds the timing-engine input for a plan (per-epoch).
  sim::EpochConfig epoch_config(const Plan& plan,
                                bool last_epoch = false) const;

  /// Independent ("IW") epoch seconds per worker — the DP0 inputs.
  std::vector<double> independent_seconds() const;

  const sim::PlatformSpec& platform() const noexcept { return platform_; }
  const sim::DatasetShape& shape() const noexcept { return shape_; }

 private:
  /// Profiles one epoch at `shares` and returns per-worker compute seconds
  /// (Algorithm 1's sgd_update measurement), with deterministic jitter.
  std::vector<double> measure_compute(const std::vector<double>& shares,
                                      std::uint64_t round) const;

  /// Plans over the subset of workers with active[i] == true; inactive
  /// workers get share zero.
  Plan plan_masked(PartitionStrategy request,
                   const std::vector<bool>& active) const;

  sim::PlatformSpec platform_;
  sim::DatasetShape shape_;
  comm::CommConfig comm_;
  DataManagerOptions options_;
};

}  // namespace hcc::core
