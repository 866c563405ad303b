// Quickstart: train an SGD-based MF model with HCC-MF on a synthetic
// Netflix-shaped dataset, using every framework feature at its default —
// auto partition strategy, Q-only + FP16 communication, the paper's virtual
// multi-CPU/GPU workstation.
//
// With --trace-out the instrumented runtime records every pull / compute /
// push / sync span and writes a chrome://tracing JSON; --metrics-out dumps
// the metrics registry (per-worker phase histograms, wire counters, cost-
// model drift gauges) as JSON.
//
// --fault-plan scripts failures ("kill:w1@e3;stall:w0@e2x4;corrupt:w2@e1",
// see fault/plan.hpp; HCCMF_FAULT_PLAN works too) and --checkpoint-dir
// persists epoch-boundary checkpoints for crash recovery.
//
// --transport picks the pull/push link ("in-process" default, "sim-latency"
// for a calibrated link under a reliable session, "chaos" to run the fault
// plan's drop/dup/reorder/delay/disconnect events); --link names the
// sim::link_by_name preset, --heartbeat-ms / --timeout-ms /
// --reconnect-budget tune the session timers (timeout 0 derives
// max(4 x RTT, 3 x heartbeat) from the cost model).
//
// --exec-mode picks how the functional epoch runs (see
// docs/parallel_execution.md): "serial" (default, deterministic) or
// "parallel" (per-worker pipeline threads against a striped server merge;
// --stripes overrides the auto stripe count).
//
// --schedule picks each worker's visit order over its rating slice (see
// docs/locality.md): "asis" (default, bit-identical legacy order),
// "shuffled" (seeded per-epoch permutation) or "tiled" (cache-sized 2-D
// blocks; --tile-kb sets the per-tile working-set budget).  --pin pins the
// parallel executor's worker threads round-robin across CPUs (NUMA
// first-touch placement).
//
// --codec picks the wire encoding: "fp32", "fp16" (default), "int8" or
// "2bit" — the latter two are error-feedback quantizers (docs/
// observability.md lists their comm.codec.* metrics; 2bit compresses the
// push stream only and pulls at fp16).  Works with any --transport/--link.
//
// --pipeline-depth=N streams each pull/push as N row-aligned chunks in
// flight (comm/pipeline.hpp): chunk i's encode overlaps chunk i-1's wire
// transfer and decode-side commit.  1 (default) is the legacy single-shot
// path, bit-identical on the wire; deeper windows decode to the same
// floats, so the trajectory is unchanged either way.
//
// --publish-every=N publishes an immutable serving snapshot of the model
// every N epochs (docs/serving.md); --store picks its encoding (fp32,
// fp16 or int8).  The final model is always re-published after training.
//
//   ./quickstart [--scale=0.002] [--epochs=10] [--k=16] [--verbose]
//                [--publish-every=N] [--store=fp32|fp16|int8]
//                [--trace-out=trace.json] [--metrics-out=metrics.json]
//                [--codec=fp32|fp16|int8|2bit] [--pipeline-depth=N]
//                [--fault-plan=SPEC] [--checkpoint-dir=DIR]
//                [--transport=in-process|sim-latency|chaos] [--link=NAME]
//                [--heartbeat-ms=MS] [--timeout-ms=MS] [--reconnect-budget=N]
//                [--exec-mode=serial|parallel] [--stripes=N]
//                [--steal] [--chunk=N] [--real-stalls]
//                [--schedule=asis|shuffled|tiled] [--tile-kb=KB] [--pin]
#include <cstdio>
#include <iostream>

#include "hccmf.hpp"  // the umbrella header: the whole public API
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hcc;
  const util::Cli cli(argc, argv);
  if (cli.get("verbose", false)) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  const std::string trace_out = cli.get("trace-out", std::string());
  const std::string metrics_out = cli.get("metrics-out", std::string());
  if (!trace_out.empty()) obs::trace().set_enabled(true);

  // 1. A rating matrix.  Real applications call data::load_text(); here we
  //    synthesize one with the Netflix dataset's shape, scaled down.
  const double scale = cli.get("scale", 0.002);
  const data::DatasetSpec spec = data::netflix_spec().scaled(scale);
  data::GeneratorConfig gen;
  gen.seed = 42;
  const data::RatingMatrix full = data::generate(spec, gen);
  util::Rng rng(43);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);
  std::cout << "dataset: " << spec.name << "  " << spec.m << " x " << spec.n
            << ", " << train.nnz() << " train / " << test.nnz()
            << " test ratings\n";

  // 2. Configure the framework.
  core::HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(
      spec.reg_lambda, /*lr=*/0.01f,
      static_cast<std::uint32_t>(cli.get("k", std::int64_t{16})));
  config.sgd.epochs = static_cast<std::uint32_t>(
      cli.get("epochs", std::int64_t{10}));
  config.platform = sim::paper_workstation_hetero();
  // This demo trains a heavily scaled-down dataset whose epochs last
  // microseconds; drop the fixed per-epoch management cost so the virtual
  // timings reflect the data actually processed.
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = spec.name;

  // Fault tolerance: a scripted plan (CLI flag wins over HCCMF_FAULT_PLAN)
  // and/or a checkpoint directory arm the subsystem; absent both, training
  // is bit-identical to a build without it.
  const std::string fault_plan = cli.get("fault-plan", std::string());
  if (!fault_plan.empty()) {
    config.fault.plan = fault::FaultPlan::parse(fault_plan);
  } else {
    config.fault.plan = fault::plan_from_env();
  }
  config.fault.checkpoint_dir = cli.get("checkpoint-dir", std::string());

  // Wire codec (docs/observability.md): fp16 is the paper's Strategy 2;
  // int8 / 2bit are the error-feedback quantizers layered on top of it.
  const std::string codec_name = cli.get("codec", std::string("auto"));
  if (!comm::parse_codec_kind(codec_name, config.comm.codec)) {
    std::cerr << "unknown --codec '" << codec_name
              << "' (expected fp32, fp16, int8 or 2bit)\n";
    return 1;
  }

  // Chunked streaming (comm/pipeline.hpp): how many row-aligned chunks of
  // one transfer may be in flight at once.  1 = legacy single-shot.
  config.comm.pipeline_depth = static_cast<std::uint32_t>(
      cli.get("pipeline-depth", std::int64_t{config.comm.pipeline_depth}));

  // Elastic transport (docs/fault_tolerance.md): what kind of link the
  // pull/push wire is.  "in-process" (default) keeps the legacy backends
  // bit-identical; "sim-latency" interposes a reliable session over a
  // calibrated link; "chaos" additionally runs the fault plan's transport
  // events (drop/dup/reorder/delay/disconnect) against each worker's link.
  config.comm.transport.kind = comm::transport_kind_by_name(
      cli.get("transport", std::string("in-process")));
  config.comm.transport.link = cli.get("link", std::string("100GbE"));
  config.comm.transport.heartbeat_ms =
      cli.get("heartbeat-ms", config.comm.transport.heartbeat_ms);
  config.comm.transport.timeout_ms =
      cli.get("timeout-ms", config.comm.transport.timeout_ms);
  config.comm.transport.reconnect_budget = static_cast<std::uint32_t>(
      cli.get("reconnect-budget",
              std::int64_t{config.comm.transport.reconnect_budget}));

  // Execution mode: serial (deterministic legacy loop) or parallel
  // (per-worker pipeline threads + striped server merge).
  config.exec.mode =
      core::parse_exec_mode(cli.get("exec-mode", std::string("serial")));
  config.exec.stripes =
      static_cast<std::uint32_t>(cli.get("stripes", std::int64_t{0}));
  config.exec.pin_threads = cli.get("pin", false);

  // Work stealing (parallel mode only): chunk the rating order onto
  // per-worker deques so drained workers help stragglers mid-epoch.
  // --chunk overrides the auto chunk size (ratings per chunk);
  // --real-stalls makes scripted stall:* events actually sleep the compute
  // thread, so stealing has a wall-clock straggler to recover from.
  config.exec.steal = cli.get("steal", false);
  config.exec.chunk_ratings =
      static_cast<std::uint32_t>(cli.get("chunk", std::int64_t{0}));
  config.fault.real_stalls = cli.get("real-stalls", false);

  // Cache-aware rating schedule (docs/locality.md): visit order over each
  // worker's slice, and the tile working-set budget under "tiled".
  config.schedule.policy =
      data::parse_schedule(cli.get("schedule", std::string("asis")));
  config.schedule.tile_kb = static_cast<std::uint32_t>(
      cli.get("tile-kb", std::int64_t{config.schedule.tile_kb}));

  // Online serving (docs/serving.md): publish read-only model snapshots at
  // an epoch cadence; concurrent readers query them via serve::TopKEngine
  // without ever touching the training locks.
  config.publish_every = static_cast<std::uint32_t>(
      cli.get("publish-every", std::int64_t{0}));
  const std::string store_name = cli.get("store", std::string("fp32"));
  if (!serve::parse_store_kind(store_name, &config.publish_store)) {
    std::cerr << "unknown --store '" << store_name
              << "' (expected fp32, fp16 or int8)\n";
    return 1;
  }
  if (config.publish_every > 0) {
    config.snapshots = std::make_shared<serve::SnapshotRegistry>();
  }

  // 3. Train.
  core::HccMf framework(config);
  const core::TrainReport report = framework.train(train, &test);

  // 4. Inspect the result.
  std::cout << "\nplan: " << report.plan.explanation << "\n";
  // The virtual plan times the epochs; the shares below grid the ratings
  // (the plan's under serial, DP0 over probed host rates under parallel).
  std::cout << "host shares:";
  for (const double share : report.host_shares) {
    std::cout << ' ' << util::Table::num(share, 3);
  }
  std::cout << "\n\n";
  util::Table table({"epoch", "test RMSE", "virtual epoch (s)", "cumulative (s)"});
  for (const auto& e : report.epochs) {
    table.add_row({std::to_string(e.epoch), util::Table::num(e.test_rmse, 4),
                   util::Table::num(e.virtual_s, 6),
                   util::Table::num(e.cumulative_virtual_s, 6)});
  }
  table.print(std::cout);

  std::cout << "\ncomputing power: "
            << util::Table::num(report.updates_per_s / 1e6, 1)
            << " M updates/s (" << util::Table::num(100 * report.utilization, 1)
            << "% of the platform's ideal)\n";
  std::cout << "wire traffic: "
            << util::Table::num(
                   static_cast<double>(report.comm_totals.wire_bytes) / 1e6, 2)
            << " MB in " << report.comm_totals.copies << " transfers\n";

  // Achieved codec compression over the whole run: raw fp32 bytes handed to
  // encode() vs bytes that actually hit the wire (keyframes included, so
  // this is the honest end-to-end ratio, not the steady-state one).
  {
    auto& reg = obs::registry();
    const double raw =
        static_cast<double>(reg.counter("comm.codec.raw_bytes").value());
    const double wire =
        static_cast<double>(reg.counter("comm.codec.wire_bytes").value());
    if (wire > 0.0) {
      std::cout << "codec (" << comm::codec_kind_name(
                       comm::effective_codec(config.comm))
                << "): " << util::Table::num(raw / 1e6, 2) << " MB raw -> "
                << util::Table::num(wire / 1e6, 2) << " MB encoded ("
                << util::Table::num(raw / wire, 2) << "x compression)\n";
    }
    // Streaming-pipeline overlap: how much codec + commit work hid under
    // the wire.  overlap_ratio ~ 1 means serial (depth 1); -> 2 means the
    // encode/commit stages fully overlapped the transfers.
    const double chunks = reg.counter("comm.pipeline.chunks").value();
    if (config.comm.pipeline_depth > 1 && chunks > 0.0) {
      std::cout << "pipeline (depth " << config.comm.pipeline_depth
                << "): " << static_cast<std::uint64_t>(chunks)
                << " chunks, peak "
                << static_cast<std::uint64_t>(
                       reg.gauge("comm.pipeline.inflight_peak").value())
                << " in flight, overlap ratio "
                << util::Table::num(
                       reg.gauge("comm.pipeline.overlap_ratio").value(), 2)
                << "\n";
    }
  }

  const std::string drift = core::format_drift_table(report);
  if (!drift.empty()) std::cout << '\n' << drift;

  if (config.snapshots != nullptr) {
    const auto snapshot = config.snapshots->current();
    std::cout << "\nserving: " << config.snapshots->published()
              << " snapshots published (" << store_name << ", "
              << util::Table::num(
                     static_cast<double>(snapshot->store.store_bytes()) / 1e6,
                     2)
              << " MB); top-5 for user 0:";
    serve::TopKEngine engine;
    const mf::SeenIndex seen(train);
    for (const auto& rec : engine.top_k(*snapshot, 0, 5, &seen)) {
      std::cout << "  #" << rec.item << "="
                << util::Table::num(rec.score, 2);
    }
    std::cout << '\n';
  }

  if (config.fault.enabled()) {
    const core::FaultSummary& f = report.fault;
    std::cout << "\nfault tolerance: " << f.injected << " injected, "
              << f.retries << " retries, " << f.recoveries
              << " recoveries (" << util::Table::num(f.recovery_wall_s, 4)
              << " s), " << f.divergence_rollbacks << " rollbacks, "
              << f.stragglers << " straggler flags\n";
    if (!f.dead_workers.empty()) {
      std::cout << "dead workers:";
      for (const auto w : f.dead_workers) std::cout << " w" << w;
      std::cout << "  (rows redistributed to survivors)\n";
    }
  }

  if (config.comm.transport.kind != comm::TransportKind::kInProcess) {
    auto& reg = obs::registry();
    std::cout << "transport ("
              << comm::transport_kind_name(config.comm.transport.kind)
              << " over " << config.comm.transport.link << "): "
              << reg.counter("transport.frames").value() << " frames, "
              << reg.counter("transport.retransmits").value()
              << " retransmits, " << reg.counter("transport.reconnects").value()
              << " reconnects, " << reg.counter("transport.dup_discards").value()
              << " dups discarded, " << reg.counter("transport.drops").value()
              << " dropped in flight\n";
  }

  if (!trace_out.empty()) {
    if (obs::write_chrome_trace(obs::trace(), trace_out)) {
      std::cout << "\ntrace: " << obs::trace().size() << " spans -> "
                << trace_out << " (open in chrome://tracing)\n";
    } else {
      std::cerr << "failed to write trace to " << trace_out << '\n';
      return 1;
    }
  }
  if (!metrics_out.empty()) {
    if (obs::write_metrics_json(obs::registry(), metrics_out)) {
      std::cout << "metrics: " << metrics_out << '\n';
    } else {
      std::cerr << "failed to write metrics to " << metrics_out << '\n';
      return 1;
    }
  }
  return 0;
}
