// perfbench: the end-to-end benchmark binary of HCC-MF.
//
//   perfbench --workload train-node|train-cluster|serve-mixed --seed N
//             --seconds S --trace 0|1 [--results-dir DIR] [--commit REV]
//             [--pipeline-threading inline|threaded]
//
// Prints a human-readable report and, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced.  Exits 1 when a correctness check
// fails, 2 on bad arguments.  README.md documents the workloads and metrics.
#include <exception>
#include <iostream>

#include "bench.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const hcc::util::Cli cli(argc, argv);
  Args args;
  args.workload = cli.get("workload", std::string());
  args.seed = static_cast<std::uint64_t>(cli.get("seed", std::int64_t{-1}));
  args.seconds = cli.get("seconds", 0.0);
  args.trace = cli.get("trace", std::int64_t{0}) != 0;
  args.results_dir = cli.get("results-dir", std::string());
  args.commit = cli.get("commit", std::string());
  using Threading = hcc::comm::StreamPipeline::Threading;
  const std::string threading = cli.get("pipeline-threading",
                                        std::string("inline"));
  if (threading == "threaded") {
    args.pipeline_threading = Threading::kThreaded;
  } else if (threading != "inline") {
    std::cerr << "perfbench: unknown --pipeline-threading '" << threading
              << "' (inline, threaded)\n";
    return 2;
  }
  if (!cli.has("seed") || args.seconds <= 0.0) {
    std::cerr << "perfbench: --seed and a positive --seconds are required\n";
    return 2;
  }
  // The fault plan's injected failures log warnings by design; keep the
  // report readable.
  hcc::util::set_log_level(hcc::util::LogLevel::kError);
  (void)now_s();  // start the benchmark clock
  // A traced run records set-up too; the workloads switch tracing off
  // around the calls they use as the untraced reference.
  spans().set_enabled(args.trace);
  hcc::obs::trace().set_enabled(args.trace);

  Result result;
  try {
    if (args.workload == "train-node") {
      run_train_node(args, result);
    } else if (args.workload == "train-cluster") {
      run_train_cluster(args, result);
    } else if (args.workload == "serve-mixed") {
      run_serve_mixed(args, result);
    } else {
      std::cerr << "perfbench: unknown --workload '" << args.workload
                << "' (train-node, train-cluster, serve-mixed)\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return result.finish(args);
}
