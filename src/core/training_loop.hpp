// The one training loop behind both facades.
//
// HCC-MF is one parameter-server pattern — pull, compute, push, then the
// server sync of Eq. 1 — whether its workers are the CPUs/GPUs of one node
// (HccMf) or whole nodes of a cluster (cluster::HierarchicalHcc).  The
// TrainingLoop owns everything that pattern needs at run time:
//  - the Server, built from the row-grid slices (mean-rating init), and
//    every worker's per-item merge weights;
//  - the fault runtime, the checkpoint store and the EpochExecutor;
//  - under kParallel, the grid itself: DP0 over each worker thread's
//    probed host rate (the virtual plan keeps driving the timing path);
//  - the epoch loop, worker-death recovery (redistribute the dead worker's
//    rows, absorb them, roll back) and divergence rollback;
//  - the closing P codec roundtrip.
// The facades supply the worker set and do their per-epoch reporting
// through Hooks.  kSerial trajectories are pinned by the golden tests
// (tests/golden_trajectory_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/strategy.hpp"
#include "core/epoch_executor.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "data/grid.hpp"
#include "data/rating_matrix.hpp"
#include "data/schedule.hpp"
#include "fault/checkpoint.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "mf/model.hpp"
#include "obs/span.hpp"
#include "sim/perf_model.hpp"
#include "util/thread_pool.hpp"

namespace hcc::core {

/// What a config's validate() can object to.
enum class ConfigErrorCode {
  kNoWorkers,
  kZeroLatentDim,
  kZeroEpochs,
  kBadLearnRate,
  kBadRegularization,
  kBadDecay,
  kZeroStreams,
  kBadAdaptiveGain,
  kBadDeadlineFactor,
  kBadBackoff,
  kZeroCheckpointCadence,
  kBadTileKb,
  kStealNeedsParallel,
  kBadHeartbeat,
  kBadTransportTimeout,
  kZeroReconnectBudget,
  kBadTransportLink,
  kPublishNeedsRegistry,
  kBadPipelineDepth,
  kZeroLocalEpochs,
  kStealNeedsOneLocalEpoch,
};

struct ConfigError {
  ConfigErrorCode code;
  std::string message;
};

/// Throws std::invalid_argument("invalid <what>: msg; msg; ...") when
/// `errors` is non-empty.
void throw_if_invalid(const std::vector<ConfigError>& errors,
                      const std::string& what);

/// The settings every training run shares; HccMfConfig and
/// cluster::HierarchicalConfig extend it.
struct TrainingOptions {
  mf::SgdConfig sgd;
  comm::CommConfig comm;
  /// Host threads for each worker's ASGD (0 = single-threaded).
  std::uint32_t host_threads = 0;
  /// How an epoch executes across the workers (core/epoch_executor.hpp):
  /// kSerial (default) is the deterministic single-thread order; kParallel
  /// runs each worker's pipeline on its own thread against a striped
  /// server.
  ExecOptions exec;
  /// Cache-aware visit order for each worker's slice (data/schedule.hpp);
  /// kAsIs (default) never touches the slice.
  data::ScheduleOptions schedule;
  /// Fault tolerance (fault/plan.hpp, docs/fault_tolerance.md): scripted
  /// failure injection, checkpointing, detection and recovery.  With no
  /// plan and no checkpoint dir the wire format is unchanged; the
  /// divergence guard (on by default) is detection-only.
  fault::FaultOptions fault;

  /// Every violation of the shared fields (empty = valid).
  std::vector<ConfigError> validate() const;
};

/// The row-grid shape of `matrix` at rank `k`: under a column grid, the
/// shape of its transpose.
sim::DatasetShape shape_of(const data::RatingMatrix& matrix,
                           data::GridKind grid, std::string name,
                           std::uint32_t k);

/// One worker of the loop: a device of a node, or a whole cluster node.
struct WorkerSpec {
  std::string name;
  std::uint32_t streams = 1;  ///< pipeline chunks per epoch
  std::uint32_t passes = 1;   ///< SGD passes over each chunk
};

class TrainingLoop {
 public:
  /// The facades' per-epoch hooks (each optional).
  struct Hooks {
    /// At every epoch start, after the injector's cursor moved.  Returns
    /// true when it changed the worker set and rolled back (repartition()
    /// + roll_back()); the loop then restarts at the rolled-back epoch.
    std::function<bool(std::uint32_t epoch)> begin_epoch;
    /// After a completed epoch (lr already decayed), before its
    /// checkpoint; `span` is the epoch's still-open span.
    std::function<void(std::uint32_t epoch, obs::ScopedSpan& span)>
        end_epoch;
    /// After a dead worker's rows were absorbed and the model rolled back;
    /// `epoch` is the epoch it died in.
    std::function<void(std::uint32_t worker, std::uint32_t epoch)>
        worker_lost;
  };

  /// Grids `matrix` by `shares`, one worker per spec.  Under kParallel the
  /// shares only say which workers run: the grid is host_shares() over the
  /// rates EpochExecutor::probe_gbps measures on the executor's threads,
  /// before slicing (kSerial grids `shares` as given).  Under a column grid
  /// the loop trains the transpose ("Transmitting P only" is Q-only on the
  /// transpose), read straight out of `matrix`: the slices are its only
  /// copy, unless the plan has a join, which keeps the input.  A chaos
  /// link and the fault injector run one plan: whichever side is
  /// configured feeds the other.
  TrainingLoop(TrainingOptions options, const sim::DatasetShape& shape,
               const data::RatingMatrix& matrix, data::GridKind grid,
               std::vector<double> shares, std::vector<WorkerSpec> specs);

  // The hooks and the executor's threads hold references into the loop.
  TrainingLoop(const TrainingLoop&) = delete;
  TrainingLoop& operator=(const TrainingLoop&) = delete;

  /// Trains every epoch, recovering from worker deaths and divergence, then
  /// runs the closing P codec roundtrip.  With no survivor left to absorb a
  /// dead worker's rows the fault::WorkerFault propagates.
  void run(const Hooks& hooks);

  /// Re-grids the pristine matrix over `shares` (dead workers at 0; under
  /// kParallel, host_shares() of them over the probed rates) and rebuilds
  /// every worker — a scripted join's repartition.  Only plans with a join
  /// event keep the pristine matrix.
  void repartition(std::vector<double> shares, std::vector<bool> alive);

  /// Rewinds the model, learning rate and epoch cursor to the latest
  /// checkpoint (a no-op without one).
  void roll_back();

  const TrainingOptions& options() const noexcept { return options_; }
  Server& server() noexcept { return *server_; }
  std::vector<TrainWorker>& workers() noexcept { return workers_; }
  const std::vector<bool>& alive() const noexcept { return alive_; }
  /// The shares the ratings are gridded by (under kParallel the host-probe
  /// partition), after any dead worker's share was redistributed.
  const std::vector<double>& live_shares() const noexcept {
    return live_shares_;
  }
  /// Each worker's probed Eq. 2 effective bandwidth in GB/s (0 for workers
  /// the plan pruned); empty under kSerial, which runs no probe.
  const std::vector<double>& probe_gbps() const noexcept {
    return probe_gbps_;
  }
  fault::FaultRuntime& fault_runtime() noexcept { return fault_rt_; }
  std::uint32_t epoch() const noexcept { return epoch_; }
  std::uint32_t rollbacks() const noexcept { return rollbacks_; }
  /// Worker ids in order of death.
  const std::vector<std::uint32_t>& dead_workers() const noexcept {
    return dead_;
  }

 private:
  void build_workers(std::vector<data::RatingMatrix> slices);
  /// Per-item merge weights: worker w's fraction of each item's ratings
  /// among the alive workers.  Items rated inside a single slice merge at
  /// weight 1 (the serial update, exactly); contested items combine
  /// proportionally.
  void refresh_item_weights();
  /// Drops a failed epoch's phase times and rating counts.
  void drain_measurements();
  /// Degraded mode: hands the dead worker's rows to the survivors and
  /// rolls back.  False when nothing is left to degrade to.
  bool absorb_death(std::uint32_t victim, const Hooks& hooks);
  /// Rolls back with a halved learning rate (persisted by re-saving the
  /// checkpoint); throws TrainingDivergedError past max_rollbacks.
  void roll_back_diverged(std::uint32_t worker);

  TrainingOptions options_;
  sim::DatasetShape shape_;
  std::vector<WorkerSpec> specs_;
  data::GridKind grid_;
  data::RatingMatrix pristine_{0, 0};
  fault::FaultRuntime fault_rt_;
  fault::CheckpointStore ckpts_;
  bool checkpointing_ = false;
  /// Lossy codec on a P&Q payload: P travels (and quantizes) every epoch,
  /// not just in the closing push.
  bool p_roundtrip_each_epoch_ = false;
  std::unique_ptr<Server> server_;
  std::vector<TrainWorker> workers_;
  std::vector<bool> alive_;
  std::vector<double> live_shares_;
  std::vector<double> probe_gbps_;
  std::vector<std::uint32_t> dead_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<EpochExecutor> executor_;
  float lr_ = 0.0f;
  double reorder_ms_ = 0.0;  ///< schedule reorder cost, whole run
  std::uint32_t epoch_ = 0;
  std::uint32_t rollbacks_ = 0;
};

}  // namespace hcc::core
