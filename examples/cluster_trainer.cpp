// Hierarchical training across a virtual cluster (extension example).
//
// Trains a synthetic Netflix-shaped dataset on 1..N virtual workstations
// with the two-level HCC (see src/cluster/), printing per-global-epoch RMSE
// and the timing decomposition: node compute vs network vs global sync.
//
// --exec-mode=parallel runs each node's pull and local training on its own
// thread (the functional analogue of real cluster nodes working
// concurrently); the global server still merges the pushes in node order
// (see docs/parallel_execution.md).
//
// --schedule/--tile-kb pick each node's visit order over its slice (see
// docs/locality.md); --pin pins the parallel executor's node threads
// round-robin across CPUs.
//
// --fault-plan arms elastic membership (docs/fault_tolerance.md): kill:w<N>
// events address *nodes*, join:w<N>@e<E> re-admits one mid-run, and with
// --transport=chaos the plan's drop/dup/reorder/delay/disconnect events
// drive each node's link to the global server.  --link picks the
// sim::link_by_name preset, --heartbeat-ms / --timeout-ms /
// --reconnect-budget tune the session timers.
//
//   ./cluster_trainer [--nodes=3] [--scale=0.002] [--epochs=8]
//                     [--local_epochs=1] [--network=100g|10g|ib]
//                     [--codec=fp32|fp16|int8|2bit] [--pipeline-depth=N]
//                     [--fault-plan=SPEC] [--checkpoint-dir=DIR]
//                     [--transport=in-process|sim-latency|chaos] [--link=NAME]
//                     [--heartbeat-ms=MS] [--timeout-ms=MS]
//                     [--reconnect-budget=N]
//                     [--exec-mode=serial|parallel]
//                     [--schedule=asis|shuffled|tiled] [--tile-kb=KB] [--pin]
//                     [--trace-out=trace.json] [--metrics-out=metrics.json]
#include <iostream>

#include "cluster/hierarchical.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hcc;
  const util::Cli cli(argc, argv);
  const std::string trace_out = cli.get("trace-out", std::string());
  const std::string metrics_out = cli.get("metrics-out", std::string());
  if (!trace_out.empty()) obs::trace().set_enabled(true);

  const std::size_t nodes =
      static_cast<std::size_t>(cli.get("nodes", std::int64_t{3}));
  const std::string net_name = cli.get("network", std::string("100g"));
  const cluster::InterconnectSpec net =
      net_name == "ib"    ? cluster::infiniband_hdr()
      : net_name == "10g" ? cluster::ethernet_10g()
                          : cluster::ethernet_100g();

  const data::DatasetSpec spec =
      data::netflix_spec().scaled(cli.get("scale", 0.002));
  data::GeneratorConfig gen;
  gen.seed = 42;
  const data::RatingMatrix full = data::generate(spec, gen);
  util::Rng rng(43);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);

  cluster::HierarchicalConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, 16);
  config.sgd.epochs =
      static_cast<std::uint32_t>(cli.get("epochs", std::int64_t{8}));
  config.local_epochs =
      static_cast<std::uint32_t>(cli.get("local_epochs", std::int64_t{1}));
  config.cluster = cluster::workstation_cluster(nodes, net);
  config.dataset_name = spec.name;
  config.exec.mode =
      core::parse_exec_mode(cli.get("exec-mode", std::string("serial")));
  config.exec.pin_threads = cli.get("pin", false);
  config.schedule.policy =
      data::parse_schedule(cli.get("schedule", std::string("asis")));
  config.schedule.tile_kb = static_cast<std::uint32_t>(
      cli.get("tile-kb", std::int64_t{config.schedule.tile_kb}));
  for (auto& node : config.cluster.nodes) {
    for (auto& w : node.platform.workers) w.epoch_overhead_s = 0.0;
  }

  // Elastic membership + transport faults at cluster scope.
  const std::string fault_plan = cli.get("fault-plan", std::string());
  if (!fault_plan.empty()) {
    config.fault.plan = fault::FaultPlan::parse(fault_plan);
  } else {
    config.fault.plan = fault::plan_from_env();
  }
  config.fault.checkpoint_dir = cli.get("checkpoint-dir", std::string());
  // Wire codec: fp16 (default), or the error-feedback int8/2bit quantizers
  // (2bit compresses the node push stream only; pulls ride fp16).
  const std::string codec_name = cli.get("codec", std::string("fp16"));
  if (!comm::parse_codec_kind(codec_name, config.comm.codec)) {
    std::cerr << "unknown --codec '" << codec_name
              << "' (expected fp32, fp16, int8 or 2bit)\n";
    return 1;
  }
  // Chunked streaming on every node's pull/push (comm/pipeline.hpp);
  // 1 = legacy single-shot transfers.
  config.comm.pipeline_depth = static_cast<std::uint32_t>(
      cli.get("pipeline-depth", std::int64_t{config.comm.pipeline_depth}));
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

  std::cout << "cluster: " << config.cluster.name << " ("
            << config.cluster.total_workers() << " devices over " << nodes
            << " nodes)\ndataset: " << spec.name << ", " << train.nnz()
            << " train ratings\n\n";

  cluster::HierarchicalHcc hcc(config);
  const cluster::ClusterReport report = hcc.train(train, &test);

  util::Table table({"global epoch", "test RMSE", "node max (ms)",
                     "network (ms)", "global sync (ms)", "total (ms)"});
  for (std::size_t e = 0; e < report.epochs.size(); ++e) {
    const auto& t = report.epochs[e];
    table.add_row({std::to_string(e), util::Table::num(report.test_rmse[e], 4),
                   util::Table::num(1e3 * t.node_max_s, 3),
                   util::Table::num(1e3 * t.network_s, 3),
                   util::Table::num(1e3 * t.global_sync_s, 3),
                   util::Table::num(1e3 * t.total_s, 3)});
  }
  table.print(std::cout);

  std::cout << "\nnode shares:";
  for (double s : report.node_shares) {
    std::cout << " " << util::Table::num(s, 3);
  }
  std::cout << "\ncomputing power: "
            << util::Table::num(report.updates_per_s / 1e6, 1)
            << " Mupdates/s, utilization "
            << util::Table::num(100 * report.utilization, 1) << "%\n";

  if (!report.dead_nodes.empty() || !report.joined_nodes.empty()) {
    std::cout << "membership: " << report.recoveries << " recoveries;";
    for (const auto n : report.dead_nodes) std::cout << " dead:n" << n;
    for (const auto n : report.joined_nodes) std::cout << " joined:n" << n;
    std::cout << '\n';
  }
  if (config.comm.transport.kind != comm::TransportKind::kInProcess) {
    auto& reg = obs::registry();
    std::cout << "transport ("
              << comm::transport_kind_name(config.comm.transport.kind)
              << " over " << config.comm.transport.link << "): "
              << reg.counter("transport.frames").value() << " frames, "
              << reg.counter("transport.retransmits").value()
              << " retransmits, " << reg.counter("transport.reconnects").value()
              << " reconnects\n";
  }

  if (!trace_out.empty()) {
    if (obs::write_chrome_trace(obs::trace(), trace_out)) {
      std::cout << "trace: " << obs::trace().size() << " spans -> "
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
