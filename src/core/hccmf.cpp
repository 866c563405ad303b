#include "core/hccmf.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "fault/recovery.hpp"
#include "mf/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/metrics.hpp"
#include "util/log.hpp"

namespace hcc::core {

namespace {

/// Eq. 1-5 phase predictions for every worker of an epoch config.  Workers
/// the timing engine skips (no share, no communication) predict zero so
/// they do not register as drift.
std::vector<obs::PhaseTimes> predicted_phases(const sim::EpochConfig& cfg) {
  std::vector<obs::PhaseTimes> predicted(cfg.workers.size());
  for (std::size_t w = 0; w < cfg.workers.size(); ++w) {
    const sim::WorkerPlan& plan = cfg.workers[w];
    if (plan.share <= 0.0 && plan.comm.pull_bytes <= 0.0) continue;
    const PhaseCost cost = predicted_phase_cost(
        plan.device, cfg.shape, plan.share, plan.comm, cfg.server);
    predicted[w] = {cost.pull_s, cost.compute_s, cost.push_s, cost.sync_s};
  }
  return predicted;
}

/// The kParallel counterpart of predicted_phases(): every worker is a host
/// thread, so its compute is Eq. 2 at its probed bandwidth B_i (its share
/// of the epoch's nnz (16k + 4) bytes over B_i), and its pull and push move
/// their raw bytes through host memory at the same rate.
std::vector<obs::PhaseTimes> host_predicted_phases(
    const sim::EpochConfig& cfg, const std::vector<double>& gbps) {
  std::vector<obs::PhaseTimes> predicted = predicted_phases(cfg);
  const double epoch_bytes = static_cast<double>(cfg.shape.nnz) *
                             (16.0 * cfg.shape.k + 4.0);
  for (std::size_t w = 0; w < predicted.size(); ++w) {
    const sim::WorkerPlan& plan = cfg.workers[w];
    const double rate = gbps[w] * 1e9;
    if (plan.share <= 0.0 || !(rate > 0.0)) {
      predicted[w] = {};
      continue;
    }
    predicted[w].pull_s = plan.comm.pull_raw_bytes / rate;
    predicted[w].compute_s = plan.share * epoch_bytes / rate;
    predicted[w].push_s = plan.comm.push_raw_bytes / rate;
  }
  return predicted;
}

std::vector<obs::PhaseTimes> timing_phases(const sim::EpochTiming& timing) {
  std::vector<obs::PhaseTimes> measured(timing.workers.size());
  for (std::size_t w = 0; w < timing.workers.size(); ++w) {
    const sim::WorkerTiming& t = timing.workers[w];
    measured[w] = {t.pull_s, t.compute_s, t.push_s, t.sync_s};
  }
  return measured;
}

}  // namespace

std::vector<ConfigError> HccMfConfig::validate() const {
  std::vector<ConfigError> errors = TrainingOptions::validate();
  if (platform.workers.empty()) {
    errors.push_back({ConfigErrorCode::kNoWorkers, "platform has no workers"});
  }
  if (adaptive_repartition &&
      (adaptive.gain <= 0.0 || adaptive.gain > 1.0)) {
    errors.push_back({ConfigErrorCode::kBadAdaptiveGain,
                      "adaptive.gain must be in (0, 1]"});
  }
  if (publish_every > 0 && snapshots == nullptr) {
    errors.push_back(
        {ConfigErrorCode::kPublishNeedsRegistry,
         "publish_every > 0 needs a snapshots registry to publish into"});
  }
  return errors;
}

HccMf::HccMf(HccMfConfig config) : config_(std::move(config)) {
  if (config_.platform.workers.empty()) {
    config_.platform = sim::paper_workstation_hetero();
  }
}

Plan HccMf::plan_for(const sim::DatasetShape& shape) const {
  DataManager manager(config_.platform, shape, config_.comm, config_.manager);
  return manager.plan(config_.partition);
}

void HccMf::accumulate_timing(TrainReport& report, const DataManager& manager,
                              const Plan& plan,
                              const fault::FaultInjector* injector) {
  const std::uint32_t epochs = config_.sgd.epochs;
  report.epochs.reserve(epochs);

  // Adaptive repartitioning (optional): track shares across epochs and
  // rebalance when measured compute times drift apart.
  Plan live_plan = plan;
  std::optional<AdaptiveController> controller;
  if (config_.adaptive_repartition) {
    controller.emplace(plan.shares, config_.adaptive);
  }
  const bool injecting = injector != nullptr && !injector->plan().empty();
  std::vector<bool> alive(live_plan.shares.size(), true);

  for (std::uint32_t e = 0; e < epochs; ++e) {
    // Fault composition on the virtual platform: a killed worker's share is
    // redistributed from its death epoch on (the timing-path mirror of the
    // functional recovery), a stalled worker's update/transfer rate drops
    // by its stall factor.
    if (injecting) {
      for (std::size_t w = 0; w < live_plan.shares.size(); ++w) {
        if (alive[w] &&
            injector->kill_scheduled(static_cast<std::uint32_t>(w), e)) {
          alive[w] = false;
          live_plan.shares = redistribute_dead_share(live_plan.shares, w);
        }
      }
    }
    sim::EpochConfig cfg = manager.epoch_config(live_plan, e + 1 == epochs);
    cfg.seed = config_.manager.seed + 17 * (e + 1);
    for (std::size_t w = 0; w < cfg.workers.size(); ++w) {
      double scale = 1.0;
      if (config_.rate_disturbance) scale = config_.rate_disturbance(e, w);
      if (injecting) {
        scale /= injector->stall_factor(static_cast<std::uint32_t>(w), e);
      }
      cfg.workers[w].rate_scale = scale;
    }
    EpochReport er;
    er.epoch = e;
    er.timing = sim::simulate_epoch(cfg);
    er.virtual_s = er.timing.epoch_s;
    report.total_virtual_s += er.virtual_s;
    er.cumulative_virtual_s = report.total_virtual_s;
    er.test_rmse = std::numeric_limits<double>::quiet_NaN();
    for (const auto& w : er.timing.workers) {
      report.comm_virtual_s += w.pull_s + w.push_s;
    }

    // Cost-model drift: what the epoch actually took (timing engine) vs
    // what Eq. 1-5 predicted for the live plan.  Published as gauges each
    // epoch so the registry always holds the freshest verification signal.
    er.drift = obs::compute_drift(predicted_phases(cfg),
                                  timing_phases(er.timing));
    obs::publish_drift(obs::registry(), er.drift);
    util::log_kv(util::LogLevel::kDebug, "epoch_drift",
                 {util::kv("epoch", e),
                  util::kv("max_abs_rel_err", er.drift.max_abs_rel_err),
                  util::kv("mean_abs_rel_err", er.drift.mean_abs_rel_err)});
    if (controller) {
      std::vector<double> compute;
      compute.reserve(er.timing.workers.size());
      for (const auto& w : er.timing.workers) compute.push_back(w.compute_s);
      if (controller->observe(compute)) {
        live_plan.shares = controller->shares();
      }
    }
    report.epochs.push_back(std::move(er));
  }
  if (controller) report.repartitions = controller->repartitions();
}

TrainReport HccMf::simulate(const sim::DatasetShape& shape) {
  throw_if_invalid(config_.validate(), "HccMfConfig");
  DataManager manager(config_.platform, shape, config_.comm, config_.manager);
  TrainReport report;
  report.plan = manager.plan(config_.partition);
  fault::FaultInjector injector(config_.fault.plan);
  accumulate_timing(report, manager, report.plan, &injector);
  const double updates = static_cast<double>(shape.nnz) * config_.sgd.epochs;
  report.updates_per_s =
      report.total_virtual_s > 0.0 ? updates / report.total_virtual_s : 0.0;
  report.ideal_updates_per_s = config_.platform.ideal_update_rate(shape);
  report.utilization = report.ideal_updates_per_s > 0.0
                           ? report.updates_per_s / report.ideal_updates_per_s
                           : 0.0;
  return report;
}

TrainReport HccMf::train(const data::RatingMatrix& train_ratings,
                         const data::RatingMatrix* test_ratings) {
  throw_if_invalid(config_.validate(), "HccMfConfig");
  // Column-grid case: the loop trains the transpose, so the rest of the
  // pipeline is always row-grid.
  const data::GridKind grid = data::choose_grid(train_ratings);
  const sim::DatasetShape shape =
      shape_of(train_ratings, grid, config_.dataset_name, config_.sgd.k);
  DataManager manager(config_.platform, shape, config_.comm, config_.manager);

  TrainReport report;
  report.plan = manager.plan(config_.partition);
  HCC_LOG_INFO() << "HCC-MF plan: " << report.plan.explanation;

  // Steps 2-3 of Figure 4: grid the data, hand each worker its slice.
  std::vector<WorkerSpec> specs;
  for (const auto& device : config_.platform.workers) {
    specs.push_back(
        {device.name, comm::effective_streams(config_.comm, device)});
  }
  TrainingLoop loop(config_, shape, train_ratings, grid, report.plan.shares,
                    std::move(specs));
  report.host_shares = loop.live_shares();
  Server& server = loop.server();
  fault::FaultRuntime& fault_rt = loop.fault_runtime();
  std::vector<TrainWorker>& workers = loop.workers();
  const std::vector<bool>& alive = loop.alive();

  // Serving hook: snapshots publish at the epoch barrier, where the
  // workers are parked and every factor row is quiescent.
  const bool publishing =
      config_.snapshots != nullptr && config_.publish_every > 0;
  if (publishing) {
    server.attach_snapshots(config_.snapshots.get(), config_.publish_store);
  }
  std::uint32_t last_publish_epoch = 0;

  // Evaluate on the test ratings in the trained matrix's row order, so
  // each evaluation streams P rows; built after slicing, off its peak.
  const bool evaluating =
      test_ratings != nullptr && config_.evaluate_each_epoch;
  data::RatingMatrix test_rows;
  if (evaluating) {
    obs::ScopedSpan span("test order", obs::kTrainCategory);
    test_rows = data::grid_ordered(*test_ratings, grid);
  }
  const auto test_rmse = [&] {
    obs::ScopedSpan span("test rmse", obs::kTrainCategory);
    return mf::rmse(server.model(), test_rows);
  };

  // Timing runs alongside the functional loop but is fully decoupled.
  accumulate_timing(report, manager, report.plan, &fault_rt.injector());

  double sync_before = 0.0;
  std::uint64_t injected_before = 0;
  std::uint64_t retries_before = 0;

  TrainingLoop::Hooks hooks;
  hooks.begin_epoch = [&](std::uint32_t) {
    sync_before = server.measured_sync_s();
    injected_before = fault_rt.injector().injected();
    retries_before = fault_rt.retries();
    return false;
  };
  hooks.end_epoch = [&](std::uint32_t epoch, obs::ScopedSpan& epoch_span) {
    // Harvest the instrumented wall-clock phase times into the same
    // EpochTiming shape the sim layer renders (CSV / Chrome trace).
    EpochReport& er = report.epochs[epoch];
    er.measured.workers.assign(workers.size(), {});
    std::vector<obs::PhaseTimes> measured(workers.size());
    // The effective bandwidth each worker sustained — Eq. 2's B_i solved
    // from the measured compute time (the quantity the cache-aware
    // schedule exists to raise).
    double min_gbps = 0.0;
    double max_gbps = 0.0;
    double sum_gbps = 0.0;
    std::size_t gbps_n = 0;
    double max_compute = 0.0;
    double sum_compute = 0.0;
    std::size_t compute_n = 0;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      const obs::PhaseTimes t = workers[w].take_measured();
      // Under work stealing a worker's throughput is measured over what
      // it actually computed (own chunks + steals), not what the grid
      // assigned it; without stealing the two are identical.
      const std::size_t done = workers[w].take_computed();
      measured[w] = t;
      if (alive[w] && t.compute_s > 0.0 && done > 0) {
        const double bytes =
            static_cast<double>(done) * (16.0 * shape.k + 4.0);
        const double gbps = bytes / t.compute_s / 1e9;
        obs::registry()
            .gauge("worker" + std::to_string(w) + ".effective_gbps")
            .set(gbps);
        min_gbps = gbps_n == 0 ? gbps : std::min(min_gbps, gbps);
        max_gbps = std::max(max_gbps, gbps);
        sum_gbps += gbps;
        ++gbps_n;
      }
      if (alive[w] && t.compute_s > 0.0) {
        max_compute = std::max(max_compute, t.compute_s);
        sum_compute += t.compute_s;
        ++compute_n;
      }
      er.measured.workers[w].pull_s = t.pull_s;
      er.measured.workers[w].compute_s = t.compute_s;
      er.measured.workers[w].push_s = t.push_s;
      er.measured.workers[w].sync_s = t.sync_s;
      util::log_kv(util::LogLevel::kDebug, "epoch_timing",
                   {util::kv("epoch", epoch),
                    util::kv("worker", static_cast<std::uint32_t>(w)),
                    util::kv("pull_s", t.pull_s),
                    util::kv("compute_s", t.compute_s),
                    util::kv("push_s", t.push_s),
                    util::kv("sync_s", t.sync_s)});
    }
    // Min/mean/max across the alive workers — the spread *is* the
    // imbalance signal stealing and DP1 exist to close.  The unsuffixed
    // gauge keeps its historical max semantics.
    obs::registry().gauge("sched.effective_gbps").set(max_gbps);
    obs::registry().gauge("sched.effective_gbps_min").set(min_gbps);
    obs::registry()
        .gauge("sched.effective_gbps_mean")
        .set(gbps_n > 0 ? sum_gbps / static_cast<double>(gbps_n) : 0.0);
    obs::registry().gauge("sched.effective_gbps_max").set(max_gbps);
    // Slowest worker's compute time over the mean: 1.0 is perfectly
    // balanced, the straggler's stall factor when one worker lags.
    obs::registry()
        .gauge("sched.imbalance")
        .set(compute_n > 0 && sum_compute > 0.0
                 ? max_compute / (sum_compute / static_cast<double>(compute_n))
                 : 0.0);
    er.measured.server_busy_s = server.measured_sync_s() - sync_before;
    er.measured.epoch_s = epoch_span.stop();
    er.fault_injected = static_cast<std::uint32_t>(
        fault_rt.injector().injected() - injected_before);
    er.fault_retries =
        static_cast<std::uint32_t>(fault_rt.retries() - retries_before);

    // Deadline detection: measured wall clock vs the Eq. 1-5 prediction
    // for the live (possibly degraded) plan, median-normalized across the
    // surviving workers.  Under kParallel the workers are host threads,
    // so their phases are predicted from the probed host rates instead of
    // the virtual devices they stand in for.
    if (fault_rt.active()) {
      Plan live_plan = report.plan;
      live_plan.shares = loop.live_shares();
      const sim::EpochConfig cfg =
          manager.epoch_config(live_plan, epoch + 1 == config_.sgd.epochs);
      const std::vector<obs::PhaseTimes> predicted =
          loop.probe_gbps().empty()
              ? predicted_phases(cfg)
              : host_predicted_phases(cfg, loop.probe_gbps());
      er.stragglers.clear();
      const auto mask =
          fault::straggler_mask(measured, predicted,
                                config_.fault.deadline_factor, alive);
      for (std::size_t w = 0; w < mask.size(); ++w) {
        if (mask[w]) er.stragglers.push_back(static_cast<std::uint32_t>(w));
      }
      if (!er.stragglers.empty()) {
        fault_rt.count_stragglers(er.stragglers.size());
        util::log_kv(
            util::LogLevel::kWarn, "fault.stragglers",
            {util::kv("epoch", epoch),
             util::kv("count",
                      static_cast<std::uint64_t>(er.stragglers.size()))});
      }
    }

    if (evaluating) er.test_rmse = test_rmse();
    // Publish at the cadence boundary (the final epoch's snapshot waits
    // for the closing P roundtrip so it matches the delivered model);
    // queries on earlier snapshots keep their own references.
    if (publishing) {
      const std::uint32_t done = epoch + 1;
      if (done % config_.publish_every == 0 && done < config_.sgd.epochs) {
        server.publish_snapshot(done);
        last_publish_epoch = done;
      }
      // Rollback can rewind the epoch behind the last publish; age 0 then.
      serve::serve_metrics().snapshot_age_epochs->set(
          done > last_publish_epoch
              ? static_cast<double>(done - last_publish_epoch)
              : 0.0);
    }
  };
  loop.run(hooks);

  if (evaluating && !report.epochs.empty()) {
    report.epochs.back().test_rmse = test_rmse();
  }
  // Final quality as a gauge so metrics-only consumers (the CI straggler
  // smoke compares steal vs no-steal RMSE from the JSON dump) need no
  // report plumbing.
  if (!report.epochs.empty() &&
      std::isfinite(report.epochs.back().test_rmse)) {
    obs::registry()
        .gauge("train.final_rmse")
        .set(report.epochs.back().test_rmse);
  }
  // The delivered model (post P-roundtrip) always becomes the last
  // snapshot, so serving converges on exactly what train() returns.
  if (publishing) {
    server.publish_snapshot(loop.epoch());
    serve::serve_metrics().snapshot_age_epochs->set(0.0);
  }

  for (const auto& w : workers) report.comm_totals += w.comm_stats();

  report.fault.injected = fault_rt.injector().injected();
  report.fault.retries = fault_rt.retries();
  report.fault.checksum_failures = fault_rt.checksum_failures();
  report.fault.recoveries = fault_rt.recoveries();
  report.fault.divergence_rollbacks = fault_rt.rollbacks();
  report.fault.stragglers = fault_rt.stragglers();
  report.fault.recovery_wall_s = fault_rt.recovery_wall_s();
  report.fault.dead_workers = loop.dead_workers();
  report.fault.worker_nnz.resize(workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    report.fault.worker_nnz[w] = alive[w] ? workers[w].assigned_nnz() : 0;
  }

  const double updates = static_cast<double>(shape.nnz) * config_.sgd.epochs;
  report.updates_per_s =
      report.total_virtual_s > 0.0 ? updates / report.total_virtual_s : 0.0;
  report.ideal_updates_per_s = config_.platform.ideal_update_rate(shape);
  report.utilization = report.ideal_updates_per_s > 0.0
                           ? report.updates_per_s / report.ideal_updates_per_s
                           : 0.0;
  report.model = std::move(server.model());
  return report;
}

}  // namespace hcc::core
