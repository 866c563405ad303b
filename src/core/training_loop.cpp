#include "core/training_loop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/adaptive.hpp"
#include "core/partition.hpp"
#include "fault/errors.hpp"
#include "obs/metrics.hpp"
#include "sim/platform.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace hcc::core {

namespace {

/// A chaos link and the fault injector run one schedule: whichever side
/// was configured feeds the other, so the wire faults, the epoch cursor
/// and the recovery machinery all see the same plan.
TrainingOptions share_fault_plan(TrainingOptions options) {
  if (options.comm.transport.kind == comm::TransportKind::kChaos) {
    if (options.comm.transport.plan.empty()) {
      options.comm.transport.plan = options.fault.plan;
    } else if (options.fault.plan.empty()) {
      options.fault.plan = options.comm.transport.plan;
    }
  }
  return options;
}

std::vector<data::RatingMatrix> grid_slices(const data::RatingMatrix& matrix,
                                            data::GridKind kind,
                                            const std::vector<double>& shares) {
  obs::ScopedSpan span("grid slices", obs::kTrainCategory);
  return data::assign_slices(matrix, kind,
                             data::make_grid(matrix, kind, shares));
}

}  // namespace

void throw_if_invalid(const std::vector<ConfigError>& errors,
                      const std::string& what) {
  if (errors.empty()) return;
  std::string joined = "invalid " + what + ":";
  for (const auto& err : errors) {
    joined += ' ';
    joined += err.message;
    joined += ';';
  }
  joined.pop_back();
  throw std::invalid_argument(joined);
}

sim::DatasetShape shape_of(const data::RatingMatrix& matrix,
                           data::GridKind grid, std::string name,
                           std::uint32_t k) {
  const bool row = grid == data::GridKind::kRow;
  return {std::move(name), row ? matrix.rows() : matrix.cols(),
          row ? matrix.cols() : matrix.rows(), matrix.nnz(), k};
}

std::vector<ConfigError> TrainingOptions::validate() const {
  std::vector<ConfigError> errors;
  auto reject = [&errors](ConfigErrorCode code, std::string message) {
    errors.push_back({code, std::move(message)});
  };
  if (sgd.k == 0) {
    reject(ConfigErrorCode::kZeroLatentDim, "latent dimension k is 0");
  }
  if (sgd.epochs == 0) {
    reject(ConfigErrorCode::kZeroEpochs, "epochs is 0");
  }
  if (!(sgd.learn_rate > 0.0f) || !std::isfinite(sgd.learn_rate)) {
    reject(ConfigErrorCode::kBadLearnRate,
           "learn_rate must be finite and > 0");
  }
  if (!(sgd.reg_p >= 0.0f) || !std::isfinite(sgd.reg_p) ||
      !(sgd.reg_q >= 0.0f) || !std::isfinite(sgd.reg_q)) {
    reject(ConfigErrorCode::kBadRegularization,
           "regularization must be finite and >= 0");
  }
  if (!(sgd.lr_decay > 0.0f) || !std::isfinite(sgd.lr_decay)) {
    reject(ConfigErrorCode::kBadDecay, "lr_decay must be finite and > 0");
  }
  if (comm.streams == 0) {
    reject(ConfigErrorCode::kZeroStreams, "comm.streams is 0");
  }
  if (comm.pipeline_depth == 0 || comm.pipeline_depth > 64) {
    reject(ConfigErrorCode::kBadPipelineDepth,
           "comm.pipeline_depth must be in [1, 64] (1 = single-shot "
           "transfers)");
  }
  if (!(fault.deadline_factor > 0.0) ||
      !std::isfinite(fault.deadline_factor)) {
    reject(ConfigErrorCode::kBadDeadlineFactor,
           "fault.deadline_factor must be finite and > 0");
  }
  if (!(fault.backoff_base_s >= 0.0) || !std::isfinite(fault.backoff_base_s)) {
    reject(ConfigErrorCode::kBadBackoff,
           "fault.backoff_base_s must be finite and >= 0");
  }
  if (fault.checkpoint_every == 0) {
    reject(ConfigErrorCode::kZeroCheckpointCadence,
           "fault.checkpoint_every is 0");
  }
  if (schedule.policy == data::SchedulePolicy::kTiled &&
      schedule.tile_kb == 0) {
    reject(ConfigErrorCode::kBadTileKb,
           "schedule.tile_kb must be > 0 under the tiled schedule");
  }
  // Transport settings: a zero heartbeat would spin the session pump, a
  // timeout at or under the heartbeat interval declares every silence a
  // dead link, and a zero reconnect budget can never re-establish one.
  const comm::TransportConfig& tp = comm.transport;
  if (!(tp.heartbeat_ms > 0.0) || !std::isfinite(tp.heartbeat_ms)) {
    reject(ConfigErrorCode::kBadHeartbeat,
           "comm.transport.heartbeat_ms must be finite and > 0");
  }
  if (!(tp.timeout_ms >= 0.0) || !std::isfinite(tp.timeout_ms)) {
    reject(ConfigErrorCode::kBadTransportTimeout,
           "comm.transport.timeout_ms must be finite and >= 0 (0 derives "
           "it from the cost model)");
  } else if (tp.timeout_ms > 0.0 && tp.timeout_ms <= tp.heartbeat_ms) {
    reject(ConfigErrorCode::kBadTransportTimeout,
           "comm.transport.timeout_ms must exceed heartbeat_ms (or be 0 "
           "to derive from the cost model)");
  }
  if (!(tp.backoff_base_ms >= 0.0) || !std::isfinite(tp.backoff_base_ms)) {
    reject(ConfigErrorCode::kBadBackoff,
           "comm.transport.backoff_base_ms must be finite and >= 0");
  }
  if (tp.reconnect_budget == 0) {
    reject(ConfigErrorCode::kZeroReconnectBudget,
           "comm.transport.reconnect_budget must be >= 1");
  }
  if (tp.kind != comm::TransportKind::kInProcess) {
    try {
      (void)sim::link_by_name(tp.link);
    } catch (const std::invalid_argument& bad) {
      reject(ConfigErrorCode::kBadTransportLink, bad.what());
    }
  }
  return errors;
}

TrainingLoop::TrainingLoop(TrainingOptions options,
                           const sim::DatasetShape& shape,
                           const data::RatingMatrix& matrix,
                           data::GridKind grid, std::vector<double> shares,
                           std::vector<WorkerSpec> specs)
    : options_(share_fault_plan(std::move(options))),
      shape_(shape),
      specs_(std::move(specs)),
      grid_(grid),
      fault_rt_(options_.fault),
      ckpts_(options_.fault.checkpoint_dir),
      // Checkpoints back both worker-death recovery and the divergence
      // guard.  The copy happens outside the phase spans.
      checkpointing_(fault_rt_.active() || options_.fault.divergence_guard),
      p_roundtrip_each_epoch_(
          options_.comm.codec != comm::CodecKind::kFp32 &&
          comm::effective_mode(options_.comm, shape) == comm::PayloadMode::kPQ),
      alive_(specs_.size(), true),
      live_shares_(std::move(shares)),
      lr_(options_.sgd.learn_rate) {
  // A scripted join re-grids from scratch, so keep the pristine matrix.
  for (const fault::FaultEvent& ev : options_.fault.plan.events) {
    if (ev.kind == fault::FaultKind::kJoin) {
      pristine_ = matrix;
      break;
    }
  }
  // One executor serves the whole run.  Under kParallel its per-worker
  // threads spawn here, for the host probe, and park between epochs.
  executor_ = std::make_unique<EpochExecutor>(options_.exec, specs_.size());
  if (options_.exec.mode == ExecMode::kParallel) {
    // The virtual plan picks which workers run; each one's functional share
    // is DP0 over what its own thread sustains on this host.
    obs::ScopedSpan span("host probe", obs::kTrainCategory);
    std::vector<bool> kept(live_shares_.size());
    for (std::size_t w = 0; w < kept.size(); ++w) {
      kept[w] = live_shares_[w] > 0.0;
    }
    probe_gbps_ = executor_->probe_gbps(kept, shape_.k);
    live_shares_ = host_shares(live_shares_, probe_gbps_);
  }
  auto slices = grid_slices(matrix, grid_, live_shares_);

  obs::ScopedSpan init_span("model init", obs::kTrainCategory);
  // Mean rating for model init.
  double mean = 0.0;
  std::size_t nnz = 0;
  for (const auto& s : slices) {
    for (const auto& e : s.entries()) mean += e.r;
    nnz += s.nnz();
  }
  mean = nnz > 0 ? mean / static_cast<double>(nnz) : 1.0;
  util::Rng rng(options_.sgd.seed);
  mf::FactorModel model(shape_.m, shape_.n, shape_.k);
  model.init_random(rng, static_cast<float>(mean));
  server_ = std::make_unique<Server>(std::move(model), options_.comm);
  init_span.stop();

  build_workers(std::move(slices));
  refresh_item_weights();

  auto& reg = obs::registry();
  for (std::size_t w = 0; w < live_shares_.size(); ++w) {
    const std::string worker = "worker" + std::to_string(w);
    reg.gauge(worker + ".share").set(live_shares_[w]);
    if (!probe_gbps_.empty()) {
      reg.gauge(worker + ".probe_gbps").set(probe_gbps_[w]);
    }
  }
  reg.gauge("exec.mode").set(
      options_.exec.mode == ExecMode::kParallel ? 1.0 : 0.0);
  reg.gauge("sched.policy").set(
      static_cast<double>(static_cast<int>(options_.schedule.policy)));
  reg.gauge("sched.tile_kb").set(
      static_cast<double>(options_.schedule.tile_kb));

  if (checkpointing_) {
    ckpts_.save({0, lr_, options_.sgd.seed, server_->model()});
  }
}

void TrainingLoop::build_workers(std::vector<data::RatingMatrix> slices) {
  workers_.clear();
  workers_.reserve(slices.size());
  for (std::size_t i = 0; i < slices.size(); ++i) {
    TrainWorker& w = workers_.emplace_back(
        static_cast<std::uint32_t>(i), specs_[i].name, std::move(slices[i]),
        options_.comm, specs_[i].streams);
    w.set_passes(specs_[i].passes);
    w.set_fault_runtime(&fault_rt_);
    w.set_schedule(options_.schedule, options_.sgd.k);
    w.set_real_stalls(options_.fault.real_stalls);
  }
}

void TrainingLoop::refresh_item_weights() {
  obs::ScopedSpan span("item weights", obs::kTrainCategory);
  const std::size_t items = shape_.n;
  std::vector<std::size_t> totals(items, 0);
  std::vector<std::vector<std::size_t>> counts(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!alive_[w]) continue;
    counts[w] = workers_[w].slice().col_counts();
    for (std::size_t i = 0; i < items; ++i) totals[i] += counts[w][i];
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!alive_[w]) continue;
    std::vector<float> weights(items, 0.0f);
    for (std::size_t i = 0; i < items; ++i) {
      if (totals[i] > 0) {
        weights[i] = static_cast<float>(counts[w][i]) /
                     static_cast<float>(totals[i]);
      }
    }
    workers_[w].set_item_weights(std::move(weights));
  }
}

void TrainingLoop::repartition(std::vector<double> shares,
                               std::vector<bool> alive) {
  alive_ = std::move(alive);
  live_shares_ = probe_gbps_.empty() ? std::move(shares)
                                     : host_shares(shares, probe_gbps_);
  build_workers(grid_slices(pristine_, grid_, live_shares_));
  refresh_item_weights();
}

void TrainingLoop::roll_back() {
  if (!ckpts_.has_checkpoint()) return;
  const fault::Checkpoint& ck = ckpts_.latest();
  server_->model() = ck.model;
  lr_ = ck.lr;
  epoch_ = ck.next_epoch;
}

void TrainingLoop::drain_measurements() {
  for (auto& w : workers_) (void)w.take_measured();
}

void TrainingLoop::run(const Hooks& hooks) {
  const mf::SgdConfig& sgd = options_.sgd;
  while (epoch_ < sgd.epochs) {
    fault_rt_.injector().begin_epoch(epoch_);
    if (hooks.begin_epoch && hooks.begin_epoch(epoch_)) continue;
    try {
      obs::ScopedSpan span("epoch " + std::to_string(epoch_),
                           obs::kEpochCategory);
      if (fault_rt_.active()) {
        for (auto& w : workers_) {
          w.set_stall_factor(fault_rt_.injector().stall_factor(w.id(), epoch_));
        }
      }
      // pull -> compute -> push per worker (Figure 6's pipelines).  A fault
      // in a phase is rethrown here, after the phase barrier, in either
      // mode, so both share the recovery paths below.
      executor_->run_epoch(workers_, alive_, *server_, lr_, sgd.reg_p,
                           sgd.reg_q);
      if (p_roundtrip_each_epoch_) server_->roundtrip_p_through_codec();
      lr_ *= sgd.lr_decay;
      // Schedule observability, aggregated on this thread after the
      // barrier: occupied tiles across workers, cumulative reorder cost.
      double tiles = 0.0;
      for (const auto& w : workers_) {
        tiles += static_cast<double>(w.schedule_stats().tiles);
        reorder_ms_ += w.schedule_stats().reorder_ms;
      }
      obs::registry().gauge("sched.tiles").set(tiles);
      obs::registry().gauge("sched.reorder_ms").set(reorder_ms_);
      if (hooks.end_epoch) hooks.end_epoch(epoch_, span);
      ++epoch_;
      if (checkpointing_ && epoch_ % options_.fault.checkpoint_every == 0) {
        ckpts_.save({epoch_, lr_, sgd.seed, server_->model()});
      }
    } catch (const fault::WorkerFault& dead) {
      if (!absorb_death(dead.worker(), hooks)) throw;
    } catch (const fault::DivergenceError& div) {
      roll_back_diverged(div.worker());
    }
  }
  // The final push transmits P as well (Strategy 1's closing P&Q push).
  if (options_.comm.codec != comm::CodecKind::kFp32 &&
      !p_roundtrip_each_epoch_) {
    server_->roundtrip_p_through_codec();
  }
}

bool TrainingLoop::absorb_death(std::uint32_t victim, const Hooks& hooks) {
  // Degraded mode: mark the worker dead, hand its rows to the survivors
  // (DP1's multiplicative compensation, at row granularity), roll the
  // model back to the last consistent checkpoint and resume.
  obs::ScopedSpan span("fault recovery", obs::kEpochCategory);
  util::Stopwatch watch;
  drain_measurements();
  bool survivor = false;
  for (std::size_t w = 0; w < alive_.size(); ++w) {
    survivor = survivor || (w != victim && alive_[w]);
  }
  if (victim >= workers_.size() || !alive_[victim] || !survivor ||
      !ckpts_.has_checkpoint()) {
    return false;
  }
  alive_[victim] = false;
  dead_.push_back(victim);
  live_shares_ = redistribute_dead_share(live_shares_, victim);
  const auto batches =
      fault::split_entries_by_shares(workers_[victim].slice(), live_shares_);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (w != victim && !batches[w].empty()) {
      workers_[w].absorb_entries(batches[w]);
    }
  }
  refresh_item_weights();
  const std::uint32_t died_in = epoch_;
  roll_back();
  fault_rt_.count_recovery(watch.seconds());
  util::log_kv(util::LogLevel::kWarn, "fault.recovery",
               {util::kv("worker", victim), util::kv("resume_epoch", epoch_),
                util::kv("wall_s", watch.seconds())});
  if (hooks.worker_lost) hooks.worker_lost(victim, died_in);
  return true;
}

void TrainingLoop::roll_back_diverged(std::uint32_t worker) {
  drain_measurements();
  if (rollbacks_ >= options_.fault.max_rollbacks ||
      !ckpts_.has_checkpoint()) {
    throw fault::TrainingDivergedError(rollbacks_);
  }
  ++rollbacks_;
  roll_back();
  lr_ *= 0.5f;
  ckpts_.save({epoch_, lr_, options_.sgd.seed, server_->model()});
  fault_rt_.count_rollback();
  util::log_kv(util::LogLevel::kWarn, "fault.rollback",
               {util::kv("worker", worker), util::kv("resume_epoch", epoch_),
                util::kv("lr", lr_)});
}

}  // namespace hcc::core
