// The two training workloads (see README.md for why each was chosen).
//
// Both follow one shape: set up the seeded dataset kSetups times (set-up
// time is their median), then call the facade's train() over and over until
// the run's seconds are spent, each call from a fresh facade on the same
// data.  A traced run alternates untraced and traced calls: the per-layer
// figures come from the traced ones, and the gap between the two kinds is
// the tracing overhead.
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "cluster/hierarchical.hpp"
#include "core/hccmf.hpp"
#include "fault/checkpoint.hpp"
#include "mf/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kEpochs = 10;
/// Test-RMSE target of both training workloads.  Across 15 seeds each,
/// 10 epochs end at 0.311-0.320 on train-node and 0.313-0.324 on
/// train-cluster, so the target sits just above the slowest seed.
constexpr double kTargetRmse = 0.33;
constexpr int kProbeRepeats = 3;  ///< timed rmse()/save() calls per traced rep

/// What one train() call produced, as the benchmark sees it from outside.
struct Rep {
  bool traced = false;
  bool threw = false;
  std::string error;
  double train_s = 0.0;
  double rmse = std::numeric_limits<double>::quiet_NaN();
  RegistrySnapshot delta;
  /// Per-epoch measured walls and phases (HccMf only).
  std::vector<hcc::sim::EpochTiming> measured;
  std::uint64_t recoveries = 0;
  std::vector<std::uint32_t> dead;
  /// Timed separately at the delivered model's shape (traced reps only).
  double rmse_eval_s = 0.0;
  double checkpoint_s = 0.0;
  /// Peak resident memory during the call (data set-up resident).
  double peak_rss_mb = 0.0;

  bool failed() const {
    return threw || !std::isfinite(rmse) || rmse > kTargetRmse;
  }
};

void set_tracing(bool on) {
  hcc::obs::trace().set_enabled(on);
  spans().set_enabled(on);
}

/// Times the library calls train() repeats between epochs, at the
/// delivered model's shape: one test-RMSE evaluation and one in-memory
/// checkpoint copy (medians of a few calls).
void time_epoch_tail(const hcc::mf::FactorModel& model,
                     const hcc::data::RatingMatrix& test, std::uint64_t parent,
                     Rep& rep) {
  std::vector<double> eval, save;
  hcc::fault::CheckpointStore store;
  for (int i = 0; i < kProbeRepeats; ++i) {
    Span e("mf::rmse", parent);
    const double r = hcc::mf::rmse(model, test);
    eval.push_back(e.stop());
    if (!std::isfinite(r)) rep.rmse = r;
    Span c("fault::CheckpointStore::save", parent);
    store.save({0, 0.0f, 0, model});
    save.push_back(c.stop());
  }
  rep.rmse_eval_s = median(eval);
  rep.checkpoint_s = median(save);
}

/// Set-up kSetups times and report the median; keeps the last dataset.
Dataset setup_dataset(const hcc::data::DatasetSpec& spec, std::uint64_t seed,
                      Result& result) {
  std::vector<double> setup, gen, split;
  Dataset ds;
  for (int i = 0; i < kSetups; ++i) {
    ds = Dataset{};  // release the previous copy before making the next
    ds = make_dataset(spec, seed);
    setup.push_back(ds.generate_s + ds.split_s);
    gen.push_back(ds.generate_s);
    split.push_back(ds.split_s);
  }
  result.metric("setup_s", median(setup));
  result.metric("data.generate_s", median(gen));
  result.metric("data.split_s", median(split));
  return ds;
}

/// Calls `train_once(traced)` until `seconds` are spent (at least
/// `min_reps` times; a traced run alternates untraced and traced calls).
template <class TrainOnce>
std::vector<Rep> repeat_training(const Args& args, std::size_t min_reps,
                                 TrainOnce&& train_once) {
  std::vector<Rep> reps;
  const double deadline = now_s() + args.seconds;
  while (reps.size() < min_reps || now_s() < deadline) {
    const bool traced = args.trace && reps.size() % 2 == 1;
    set_tracing(traced);
    Rep rep;
    rep.traced = traced;
    reset_peak_rss();
    const RegistrySnapshot before = RegistrySnapshot::take();
    try {
      train_once(rep);
    } catch (const std::exception& e) {
      rep.threw = true;
      rep.error = e.what();
    }
    rep.delta = RegistrySnapshot::take() - before;
    rep.peak_rss_mb = peak_rss_mb();
    reps.push_back(std::move(rep));
  }
  set_tracing(false);
  return reps;
}

/// End-to-end figures common to both training workloads.
void report_end_to_end(const std::vector<Rep>& reps, double nnz,
                       Result& result) {
  std::vector<double> train_s, rmse, rss;
  for (const Rep& r : reps) {
    result.attempt(r.failed());
    if (r.traced) continue;
    train_s.push_back(r.train_s);
    rmse.push_back(r.rmse);
    rss.push_back(r.peak_rss_mb);
  }
  const double t = median(train_s);
  result.metric("train_s", t);
  result.metric("final_rmse", median(rmse));
  // Per call the peak sits at one of two levels about 19 MiB apart on
  // train-node (and higher on the first calls), depending on the heap the
  // allocator kept from earlier calls' worker threads; the lowest peak is
  // what one train() needs.
  result.metric("peak_rss_mb", quantile(rss, 0.0));
  // A training request is one train() call to the epoch budget.
  std::vector<double> ms;
  for (const double s : train_s) ms.push_back(1e3 * s);
  report_latency(ms, result);
  result.metric("throughput_per_s", nnz * kEpochs / t);
  result.detail("train.calls", static_cast<double>(train_s.size()), "count");
  result.detail("train.rmse_max", quantile(rmse, 1.0), "rmse");
  result.detail("train.min_s", quantile(train_s, 0.0), "s");
  result.detail("train.max_s", quantile(train_s, 1.0), "s");

  bool ok = true;
  std::string what = "every train() reached test RMSE <= " +
                     std::to_string(kTargetRmse);
  for (const Rep& r : reps) {
    if (r.failed()) {
      ok = false;
      what = r.threw ? "train() threw: " + r.error
                     : "final RMSE " + std::to_string(r.rmse) +
                           " misses the target";
    }
  }
  result.check("rmse_target", ok, what);
}

/// Per-layer figures read from the registry deltas of the traced reps;
/// `walls` are the epoch walls each traced rep is reconciled against.
void report_layers(const std::vector<Rep>& reps,
                   const std::vector<double>& walls,
                   std::size_t rmse_evals, std::size_t checkpoints,
                   double nnz, Result& result) {
  std::vector<double> untraced, traced;
  std::vector<double> unaccounted, rmse_eval, ckpt, raw, wire, enc, dec,
      pull, push, stall, chunks, frames, retx, reconn, recovery, contention,
      updates;
  std::size_t wall_i = 0;
  for (const Rep& r : reps) {
    if (!r.traced) {
      untraced.push_back(r.train_s);
      continue;
    }
    traced.push_back(r.train_s);
    const RegistrySnapshot& d = r.delta;
    const double w = walls.at(wall_i++);
    unaccounted.push_back(unaccounted_s(r.train_s, w, rmse_evals,
                                        r.rmse_eval_s, checkpoints,
                                        r.checkpoint_s));
    rmse_eval.push_back(r.rmse_eval_s);
    ckpt.push_back(r.checkpoint_s * static_cast<double>(checkpoints));
    raw.push_back(d.counter("comm.codec.raw_bytes"));
    wire.push_back(d.counter("comm.codec.wire_bytes"));
    enc.push_back(d.hist_sum("comm.codec.encode_ms") / 1e3);
    dec.push_back(d.hist_sum("comm.codec.decode_ms") / 1e3);
    pull.push_back(d.hist_sum_matching("worker", ".pull_s"));
    push.push_back(d.hist_sum_matching("worker", ".push_s"));
    stall.push_back(d.hist_sum("comm.pipeline.stall_ms") / 1e3);
    chunks.push_back(d.counter("comm.pipeline.chunks"));
    frames.push_back(d.counter("transport.frames"));
    retx.push_back(d.counter("transport.retransmits"));
    reconn.push_back(d.counter("transport.reconnects"));
    recovery.push_back(d.hist_sum("fault.recovery_s"));
    const double locks = d.counter("server.stripe_locks");
    contention.push_back(
        locks > 0 ? d.counter("server.stripe_contention") / locks : 0.0);
    updates.push_back(d.counter("simd.sgd_updates") / (nnz * kEpochs));
  }
  result.metric("core.epoch_walls_s", median(walls));
  result.metric("core.unaccounted_s", median(unaccounted));
  result.metric("server.stripe_contention_ratio", median(contention));
  result.metric("mf.rmse_eval_s", median(rmse_eval));
  result.metric("simd.sgd_updates_ratio", median(updates));
  const auto* reorder = hcc::obs::registry().find_gauge("sched.reorder_ms");
  result.metric("sched.reorder_ms", reorder ? reorder->value() : 0.0);
  result.metric("comm.raw_bytes", median(raw));
  result.metric("comm.wire_bytes", median(wire));
  result.metric("comm.compression_ratio",
                median(wire) > 0 ? median(raw) / median(wire) : 0.0);
  result.metric("comm.encode_s", median(enc));
  result.metric("comm.decode_s", median(dec));
  result.metric("comm.pull_s", median(pull));
  result.metric("comm.push_s", median(push));
  result.metric("comm.pipeline.stall_s", median(stall));
  result.metric("comm.pipeline.chunks", median(chunks));
  result.metric("transport.frames", median(frames));
  result.metric("transport.retransmits", median(retx));
  result.metric("transport.reconnects", median(reconn));
  result.metric("transport.retransmit_ratio",
                median(frames) > 0 ? median(retx) / median(frames) : 0.0);
  result.metric("fault.checkpoint_s", median(ckpt));
  result.metric("fault.recovery_s", median(recovery));
  result.metric("bench.trace_overhead_pct",
                100.0 * (median(traced) / median(untraced) - 1.0));
  result.metric("bench.spans", static_cast<double>(spans().records().size()));
  result.detail("trace.untraced_train_s", median(untraced), "s");
  result.detail("trace.traced_train_s", median(traced), "s");
}

}  // namespace

Dataset make_dataset(const hcc::data::DatasetSpec& spec, std::uint64_t seed) {
  Dataset ds;
  Span setup("setup");
  hcc::data::GeneratorConfig gen;
  gen.seed = seed;
  Span g("data::generate", setup.id());
  const hcc::data::RatingMatrix full = hcc::data::generate(spec, gen);
  ds.generate_s = g.stop();
  hcc::util::Rng rng(seed + 1);
  Span s("data::train_test_split", setup.id());
  auto [train, test] = hcc::data::train_test_split(full, 0.1, rng);
  ds.split_s = s.stop();
  ds.train = std::move(train);
  ds.test = std::move(test);
  return ds;
}

void run_train_node(const Args& args, Result& result) {
  const hcc::data::DatasetSpec spec = hcc::data::netflix_spec().scaled(0.05);
  const Dataset ds = setup_dataset(spec, args.seed, result);
  const double nnz = static_cast<double>(ds.train.nnz());

  hcc::core::HccMfConfig config;
  config.sgd = hcc::mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, 128);
  config.sgd.epochs = kEpochs;
  config.sgd.seed = args.seed;
  config.platform = hcc::sim::paper_workstation_hetero();
  config.dataset_name = spec.name;
  config.exec.mode = hcc::core::ExecMode::kParallel;

  const auto reps = repeat_training(args, args.trace ? 2 : 1, [&](Rep& rep) {
    Span root("train-node call");
    hcc::core::HccMf framework(config);
    Span call("HccMf::train", root.id());
    const hcc::core::TrainReport report = framework.train(ds.train, &ds.test);
    rep.train_s = call.stop();
    if (!report.epochs.empty()) rep.rmse = report.epochs.back().test_rmse;
    for (const auto& e : report.epochs) rep.measured.push_back(e.measured);
    rep.recoveries = report.fault.recoveries;
    if (rep.traced && report.model) {
      time_epoch_tail(*report.model, ds.test, root.id(), rep);
    }
  });
  report_end_to_end(reps, nnz, result);

  bool updates_ok = true;
  for (const Rep& r : reps) {
    updates_ok &= r.delta.counter("simd.sgd_updates") == nnz * kEpochs;
  }
  result.check("sgd_updates", updates_ok,
               "simd.sgd_updates == nnz x epochs on every train()");

  if (args.trace) {
    // Epoch-level figures: per epoch of every traced call, then medians.
    std::vector<double> epoch_s, cmax, cmean, imbalance, idle, sync, walls,
        compute_total;
    for (const Rep& r : reps) {
      if (!r.traced) continue;
      double wall_sum = 0.0, compute_sum = 0.0;
      for (const auto& e : r.measured) {
        double mx = 0.0, sum = 0.0, idle_sum = 0.0;
        for (const auto& w : e.workers) {
          mx = std::max(mx, w.compute_s);
          sum += w.compute_s;
          idle_sum += e.epoch_s - (w.pull_s + w.compute_s + w.push_s);
        }
        const double mean = e.workers.empty() ? 0.0 : sum / e.workers.size();
        epoch_s.push_back(e.epoch_s);
        cmax.push_back(mx);
        cmean.push_back(mean);
        imbalance.push_back(mean > 0 ? mx / mean : 0.0);
        idle.push_back(idle_sum);
        sync.push_back(e.server_busy_s);
        wall_sum += e.epoch_s;
        compute_sum += sum;
      }
      walls.push_back(wall_sum);
      compute_total.push_back(compute_sum);
    }
    result.metric("core.epoch_s", median(epoch_s));
    result.metric("core.compute_max_s", median(cmax));
    result.metric("core.compute_mean_s", median(cmean));
    result.metric("core.imbalance", median(imbalance));
    result.metric("core.barrier_idle_s", median(idle));
    result.metric("core.server_sync_s", median(sync));
    result.metric("mf.updates_per_s", nnz * kEpochs / median(compute_total));
    // train() evaluates test RMSE after every epoch and once more at the
    // end; the divergence guard checkpoints before epoch 0 and after each.
    report_layers(reps, walls, kEpochs + 1, kEpochs + 1, nnz, result);
    std::vector<double> rec;
    for (const Rep& r : reps) rec.push_back(static_cast<double>(r.recoveries));
    result.metric("cluster.recoveries", median(rec));
  }
}

void run_train_cluster(const Args& args, Result& result) {
  const hcc::data::DatasetSpec spec =
      hcc::data::movielens20m_spec().scaled(0.1);
  const Dataset ds = setup_dataset(spec, args.seed, result);
  const double nnz = static_cast<double>(ds.train.nnz());

  hcc::cluster::HierarchicalConfig config;
  config.sgd = hcc::mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, 128);
  config.sgd.epochs = kEpochs;
  config.sgd.seed = args.seed;
  config.cluster =
      hcc::cluster::workstation_cluster(3, hcc::cluster::ethernet_10g());
  config.dataset_name = spec.name;
  config.exec.mode = hcc::core::ExecMode::kSerial;
  config.comm.codec = hcc::comm::CodecKind::kInt8;
  config.comm.pipeline_depth = 4;
  config.comm.transport.kind = hcc::comm::TransportKind::kChaos;
  config.comm.transport.link = "10GbE";
  config.fault.plan =
      hcc::fault::FaultPlan::parse("drop:w1@e2;disconnect:w0@e3;kill:w2@e5");
  constexpr std::uint32_t kKilledNode = 2;
  // ExecMode::kSerial leaves the chunk ring's executor to the pipeline,
  // which on a multi-core host runs a separate encoder thread; the inline
  // ring keeps the whole call on this thread.
  hcc::comm::StreamPipeline::set_threading(args.pipeline_threading);

  // Serial execution repeats exactly, so two calls let the run check it.
  const auto reps = repeat_training(args, 2, [&](Rep& rep) {
    Span root("train-cluster call");
    hcc::cluster::HierarchicalHcc hcc(config);
    Span call("HierarchicalHcc::train", root.id());
    const hcc::cluster::ClusterReport report = hcc.train(ds.train, &ds.test);
    rep.train_s = call.stop();
    if (!report.test_rmse.empty()) rep.rmse = report.test_rmse.back();
    rep.recoveries = report.recoveries;
    rep.dead = report.dead_nodes;
    if (rep.traced && report.model) {
      time_epoch_tail(*report.model, ds.test, root.id(), rep);
    }
  });
  report_end_to_end(reps, nnz, result);

  bool membership_ok = true;
  std::string mismatch;
  const Rep& first = reps.front();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    if (r.recoveries != 1 ||
        r.dead != std::vector<std::uint32_t>{kKilledNode}) {
      membership_ok = false;
    }
    for (const char* c : {"comm.codec.wire_bytes", "transport.frames",
                          "transport.retransmits"}) {
      if (r.delta.counter(c) != first.delta.counter(c)) {
        mismatch += " call " + std::to_string(i) + " " + c + " " +
                    std::to_string(r.delta.counter(c)) + " vs " +
                    std::to_string(first.delta.counter(c)) + ";";
      }
    }
    if (r.rmse != first.rmse) {
      mismatch += " call " + std::to_string(i) + " RMSE " +
                  std::to_string(r.rmse) + " vs " + std::to_string(first.rmse) +
                  ";";
    }
  }
  result.check("one_recovery", membership_ok,
               "exactly one recovery, dead nodes == {n2}, on every train()");
  result.check("exact_repeat", mismatch.empty(),
               std::to_string(reps.size()) +
                   " calls agree on wire bytes, frames, retransmits and RMSE" +
                   mismatch);

  if (args.trace) {
    // HierarchicalHcc reports no per-epoch walls; serial execution runs
    // the nodes' phases back to back, so an epoch's wall is their sum.
    std::vector<double> cmax, cmean, imbalance, sync, walls, compute_total,
        epoch_s, rec;
    for (const Rep& r : reps) {
      if (!r.traced) continue;
      double mx = 0.0, sum = 0.0;
      std::size_t nodes = 0;
      for (const auto& [name, s] : r.delta.hist_sums) {
        if (name.starts_with("worker") && name.ends_with(".compute_s")) {
          mx = std::max(mx, s);
          sum += s;
          ++nodes;
        }
      }
      const double phases = r.delta.hist_sum_matching("worker", "_s");
      const double mean = nodes ? sum / nodes : 0.0;
      cmax.push_back(mx / kEpochs);
      cmean.push_back(mean / kEpochs);
      imbalance.push_back(mean > 0 ? mx / mean : 0.0);
      sync.push_back(r.delta.hist_sum_matching("worker", ".sync_s") / kEpochs);
      walls.push_back(phases);
      epoch_s.push_back(phases / kEpochs);
      compute_total.push_back(sum);
      rec.push_back(static_cast<double>(r.recoveries));
    }
    result.metric("core.epoch_s", median(epoch_s));
    result.metric("core.compute_max_s", median(cmax));
    result.metric("core.compute_mean_s", median(cmean));
    result.metric("core.imbalance", median(imbalance));
    result.metric("core.server_sync_s", median(sync));
    result.metric("mf.updates_per_s", nnz * kEpochs / median(compute_total));
    // One test-RMSE evaluation per global epoch; membership checkpoints
    // before epoch 0 and after each.
    report_layers(reps, walls, kEpochs, kEpochs + 1, nnz, result);
    result.metric("cluster.recoveries", median(rec));
    const auto* active =
        hcc::obs::registry().find_gauge("cluster.active_nodes");
    result.metric("cluster.active_nodes", active ? active->value() : 0.0);
  }
}

}  // namespace perfbench
