// HCC-MF: the public facade.
//
// Two entry points:
//  - train():    functional collaborative training on a real rating matrix —
//                real SGD math, real COMM transfers, real convergence —
//                with every epoch also timed on the virtual platform.
//  - simulate(): timing-only run for paper-scale dataset shapes (regenerates
//                the evaluation tables/figures without materializing 100M
//                ratings).
//
// Both share the same DataManager plan, so the partition / strategy
// decisions are identical across the functional and timing paths.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/strategy.hpp"
#include "core/adaptive.hpp"
#include "core/data_manager.hpp"
#include "core/training_loop.hpp"
#include "data/datasets.hpp"
#include "data/schedule.hpp"
#include "fault/plan.hpp"
#include "mf/model.hpp"
#include "obs/drift.hpp"
#include "serve/snapshot.hpp"
#include "sim/platform.hpp"

namespace hcc::core {

/// Everything configurable about a run: the shared TrainingOptions (sgd,
/// comm, host_threads, exec, schedule, fault) plus the node-level fields.
struct HccMfConfig : TrainingOptions {
  PartitionStrategy partition = PartitionStrategy::kAuto;
  sim::PlatformSpec platform;
  DataManagerOptions manager;
  /// Dataset name for the simulator's calibration lookup ("netflix", "r1",
  /// ...; scaled names like "netflix@0.05" match their base).  Empty uses
  /// the analytic device model.
  std::string dataset_name;
  /// Evaluate test RMSE after every epoch (functional runs only).
  bool evaluate_each_epoch = true;

  /// Runtime adaptation (extension, see core/adaptive.hpp): rebalance the
  /// partition between epochs when measured compute times drift apart.
  bool adaptive_repartition = false;
  AdaptiveOptions adaptive;
  /// Test hook for the timing layer: per-(epoch, worker) update-rate scale
  /// emulating throttling / co-tenancy (1.0 = nominal; empty = none).
  std::function<double(std::uint32_t epoch, std::size_t worker)>
      rate_disturbance;

  /// Online serving (src/serve/, docs/serving.md): when `snapshots` is set
  /// and `publish_every` > 0, train() publishes an immutable snapshot of
  /// P/Q encoded as `publish_store` after every publish_every-th epoch
  /// (plus the final model after the P codec roundtrip), at the epoch
  /// barrier where every factor row is quiescent.  Query threads read the
  /// registry concurrently without ever blocking training.  Defaults (no
  /// registry) change nothing.
  std::uint32_t publish_every = 0;
  serve::StoreKind publish_store = serve::StoreKind::kFp32;
  std::shared_ptr<serve::SnapshotRegistry> snapshots;

  /// Checks the whole config once and returns every violation (empty =
  /// valid).  train()/simulate() throw std::invalid_argument with the
  /// joined messages when there is any.
  std::vector<ConfigError> validate() const;
};

/// Per-epoch record.
struct EpochReport {
  std::uint32_t epoch = 0;
  double virtual_s = 0.0;             ///< simulated wall time of this epoch
  double cumulative_virtual_s = 0.0;
  double test_rmse = 0.0;             ///< NaN when not evaluated
  sim::EpochTiming timing;            ///< full pull/compute/push/sync detail
  /// Cost-model drift: simulated ("measured") phase times of this epoch vs
  /// the Eq. 1-5 predictions for the live plan — the verification signal
  /// behind DP1/DP2 and the adaptive controller.
  obs::DriftReport drift;
  /// Wall-clock phase times of the functional workers this epoch (real
  /// measured spans; empty for simulate()-only runs).  Same shape as
  /// `timing`, so every exporter that renders simulated epochs renders
  /// measured ones too.
  sim::EpochTiming measured;
  /// Fault-tolerance observations for this epoch's (last) execution: how
  /// many injections and transfer retries it absorbed, and which workers
  /// blew their cost-model deadline.  All zero/empty when the subsystem is
  /// idle.
  std::uint32_t fault_injected = 0;
  std::uint32_t fault_retries = 0;
  std::vector<std::uint32_t> stragglers;
};

/// Run-level fault-tolerance summary (see fault/recovery.hpp).
struct FaultSummary {
  std::uint64_t injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t checksum_failures = 0;
  std::uint64_t recoveries = 0;             ///< worker deaths survived
  std::uint64_t divergence_rollbacks = 0;
  std::uint64_t stragglers = 0;             ///< deadline violations flagged
  double recovery_wall_s = 0.0;             ///< total time spent recovering
  std::vector<std::uint32_t> dead_workers;  ///< ids, in order of death
  std::vector<std::size_t> worker_nnz;      ///< final assignment (0 = dead)
};

/// The result of a run.
struct TrainReport {
  /// The virtual platform's plan: drives the timing path and the paper's
  /// tables, and under kSerial the functional grid too.
  Plan plan;
  /// The shares train() gridded the ratings by: plan.shares under kSerial,
  /// host_shares() over the probed host rates under kParallel (see
  /// core/training_loop.hpp).  Empty for simulate().
  std::vector<double> host_shares;
  std::vector<EpochReport> epochs;
  double total_virtual_s = 0.0;
  double updates_per_s = 0.0;        ///< "computing power" (Eq. 8)
  double ideal_updates_per_s = 0.0;  ///< sum of workers' IW rates (Table 4)
  double utilization = 0.0;          ///< updates_per_s / ideal
  double comm_virtual_s = 0.0;       ///< cumulative pull+push time (Table 5)
  comm::TransferStats comm_totals;   ///< functional wire accounting
  std::uint32_t repartitions = 0;    ///< adaptive rebalances performed
  FaultSummary fault;                ///< fault-tolerance tallies for the run
  std::optional<mf::FactorModel> model;  ///< final model (functional runs)
};

/// The framework.
class HccMf {
 public:
  explicit HccMf(HccMfConfig config);

  /// Functional collaborative training.  `test` (optional) supplies the
  /// held-out ratings for per-epoch RMSE.  If the matrix has more columns
  /// than rows it is transposed internally (column grid / "Transmitting P
  /// only"), transparently to the caller.
  TrainReport train(const data::RatingMatrix& train_ratings,
                    const data::RatingMatrix* test_ratings = nullptr);

  /// Timing-only run over a dataset shape (paper-scale experiments).
  TrainReport simulate(const sim::DatasetShape& shape);

  /// The resolved plan for a shape, without running anything.
  Plan plan_for(const sim::DatasetShape& shape) const;

  const HccMfConfig& config() const noexcept { return config_; }

 private:
  /// `injector` (optional) composes scripted stalls/kills into the virtual
  /// timing path: a killed worker's share redistributes from its death
  /// epoch, a stalled worker's rates drop by its stall factor.
  void accumulate_timing(TrainReport& report, const DataManager& manager,
                         const Plan& plan,
                         const fault::FaultInjector* injector = nullptr);

  HccMfConfig config_;
};

}  // namespace hcc::core
