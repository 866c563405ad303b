// Concurrent epoch executor (Figure 6, Strategy 3 — for real this time).
//
// The paper's headline claim is *collaborative* execution: every CPU/GPU
// worker runs its own pull -> compute -> push pipeline concurrently, with
// the server merge (Eq. 3's T_sync) either overlapped or hidden.  This
// executor provides the two execution modes behind that claim:
//
//  - kSerial   runs every worker on one host thread, interleaved phase by
//              phase, chunk by chunk, in worker order — deterministic, which
//              is why it stays the default (tests/golden_trajectory_test.cpp
//              pins its trajectories).
//  - kParallel gives each worker a dedicated thread running its *entire*
//              chunked pipeline independently (per-worker pipelines, in the
//              HogWild / FPSGD tradition adapted to our parameter-server
//              shape).  Workers join at an epoch barrier; exceptions
//              (fault::WorkerFault, fault::DivergenceError) are captured
//              per thread and the highest-priority one is rethrown at the
//              barrier, so the training loop's recovery/rollback paths
//              (core/training_loop.hpp) serve both modes.
//
// Under kParallel the Server's Q is partitioned into row-range stripes with
// per-stripe mutexes (see core/server.hpp) so merges from different workers
// proceed concurrently instead of serializing the whole T_sync term.
//
// The workers are the devices of one node under HccMf and whole nodes under
// cluster::HierarchicalHcc; a node's local epochs are SGD passes inside its
// chunk (TrainWorker::set_passes), so one engine runs both.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace hcc::util {
class ThreadPool;
}

namespace hcc::core {

class Server;
class TrainWorker;

/// How one functional epoch executes across the workers.
enum class ExecMode : std::uint8_t {
  kSerial,    ///< interleaved loop, one host thread, deterministic
  kParallel,  ///< per-worker pipeline threads + striped server merge
};

/// Everything configurable about the executor.
struct ExecOptions {
  ExecMode mode = ExecMode::kSerial;
  /// Q stripes for the server merge under kParallel (0 = auto: 8 per
  /// worker, clamped to the item count).  kSerial always runs 1 stripe so
  /// the merge arithmetic order is the worker order.
  std::uint32_t stripes = 0;
  /// Pin each worker's pipeline thread to a CPU (round-robin over the
  /// online set) under kParallel.  With pinning on, the worker's lazily
  /// sized buffers are first-touched on the thread that will stream them
  /// every epoch — on a NUMA host that keeps local Q, the snapshot and the
  /// staging buffers on the worker's own node (see util/affinity.hpp).
  bool pin_threads = false;
  /// Work stealing under kParallel (see core/steal_queue.hpp): each
  /// worker's prepared rating order is cut into chunks on a per-worker
  /// deque; a worker that drains its own deque steals from the tail of the
  /// fullest peer's, so a mid-epoch straggler sheds its backlog instead of
  /// holding the epoch barrier.  Supersedes the per-worker stream pipeline
  /// (one pull, a chunk-drain loop, one push per epoch).  Off by default.
  bool steal = false;
  /// Target ratings per chunk under `steal` (0 = auto: assigned_nnz / 16
  /// per worker, rescaled every epoch by the worker's measured
  /// effective_gbps relative to the mean — see resolve_chunk_target).
  std::uint32_t chunk_ratings = 0;
};

/// "serial" / "parallel" (CLI + logging).
const char* exec_mode_name(ExecMode mode);

/// Parses "serial" / "parallel"; throws std::invalid_argument otherwise.
ExecMode parse_exec_mode(const std::string& name);

/// Stripe count the server should run: 1 under kSerial; under kParallel
/// `opts.stripes`, or 8 per worker when 0 — always clamped to [1, items].
std::uint32_t resolve_stripes(const ExecOptions& opts, std::uint32_t items,
                              std::size_t workers);

/// Runs the workers of one epoch, in either mode.  One executor serves a
/// whole training run; its worker threads (kParallel) are spawned lazily on
/// the first epoch and parked on a barrier between epochs.
class EpochExecutor {
 public:
  /// `n_workers` fixes the thread-pool width (one thread per worker).
  EpochExecutor(const ExecOptions& options, std::size_t n_workers);

  EpochExecutor(const EpochExecutor&) = delete;
  EpochExecutor& operator=(const EpochExecutor&) = delete;

  ~EpochExecutor();

  ExecMode mode() const noexcept { return options_.mode; }
  const ExecOptions& options() const noexcept { return options_; }

  /// One full functional epoch over `workers`:
  ///  - kSerial: for each chunk, all pulls, then all computes, then all
  ///    pushes, in worker order.
  ///  - kParallel: each alive worker's TrainWorker::run_pipeline on its
  ///    dedicated thread, joined at the epoch barrier.
  void run_epoch(std::vector<TrainWorker>& workers,
                 const std::vector<bool>& alive, Server& server, float lr,
                 float reg_p, float reg_q, util::ThreadPool* pool);

  /// The host-rate probe behind the kParallel grid (host_shares() in
  /// core/partition.hpp).  Every thread i with `kept[i]`, all at once,
  /// times the dispatched SGD kernel at rank `k` on a private, fixed-seed
  /// synthetic block (under 1 MiB of scratch, first-touched on the thread)
  /// and returns its Eq. 2 effective bandwidth in GB/s: ratings x
  /// (16k + 4) bytes over the median of several timed rounds, started
  /// together.  Running on the pipeline threads themselves puts pinning,
  /// first-touch and the peers' memory traffic into the measurement.
  /// Touches no model and no slice; takes a few milliseconds.  Threads
  /// without `kept[i]` report 0.  `kept` must have one entry per worker.
  std::vector<double> probe_gbps(const std::vector<bool>& kept,
                                 std::uint32_t k);

  /// The generic barrier primitive behind kParallel (public for tests):
  /// runs fn(i) for every i with alive[i] on worker i's
  /// dedicated thread and blocks until all checked in.  Exceptions are
  /// captured per worker; after the barrier the highest-priority one is
  /// rethrown — fault::WorkerFault outranks fault::DivergenceError
  /// outranks anything else, ties broken by the lowest worker index — so
  /// concurrent failures surface deterministically.
  void run_parallel(const std::vector<bool>& alive,
                    const std::function<void(std::size_t)>& fn);

 private:
  void start_threads();
  void thread_loop(std::size_t index);
  /// Rethrows the winner of `errors_` (no-op when all null).
  void rethrow_barrier_error();

  ExecOptions options_;
  std::size_t n_;

  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  const std::vector<bool>* alive_ = nullptr;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace hcc::core
