// The epoch engine (Figure 6's pull -> compute -> push, Eq. 3's sync).
//
// One chunk-phase loop serves both execution modes.  For each chunk index,
// every alive worker that has that chunk runs pull and compute_chunk (plus
// prepare_epoch before chunk 0); after the phase barrier the caller runs
// every such worker's push — codec transfer and Server::sync_q — in worker
// order.  Nothing writes the global Q while a phase runs, so the pulls are
// plain reads and every Q element sees the same merge order, hence the
// same float arithmetic, at any thread count:
//
//  - kSerial   runs each phase inline on the caller's thread.
//  - kParallel runs each phase on one parked thread per worker.
//
// A fault thrown inside a phase (fault::WorkerFault, fault::DivergenceError,
// anything else) is captured per worker; the phase then merges nothing, and
// the highest-ranked exception is rethrown so the training loop's
// recovery/rollback paths (core/training_loop.hpp) serve both modes.  The
// inline dispatch captures and ranks the same way, so fault behaviour does
// not depend on the thread count either.
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

namespace hcc::core {

class Server;
class TrainWorker;

/// How one functional epoch executes across the workers.
enum class ExecMode : std::uint8_t {
  kSerial,    ///< every phase inline on the caller's thread
  kParallel,  ///< every phase on one thread per worker
};

/// Everything configurable about the executor.  Both modes compute the
/// same floats on the same grid; they differ in thread count and, in the
/// training loop, in the grid itself
/// (kSerial grids by the plan shares, kParallel by the probed host rates —
/// see TrainingLoop).
struct ExecOptions {
  ExecMode mode = ExecMode::kSerial;
  /// Pin each worker's thread to a CPU (round-robin over the online set)
  /// under kParallel.  With pinning on, the worker's lazily sized buffers
  /// are first-touched on the thread that will stream them every epoch —
  /// on a NUMA host that keeps local Q, the snapshot and the staging
  /// buffers on the worker's own node (see util/affinity.hpp).
  bool pin_threads = false;
};

/// "serial" / "parallel" (CLI + logging).
const char* exec_mode_name(ExecMode mode);

/// Parses "serial" / "parallel"; throws std::invalid_argument otherwise.
ExecMode parse_exec_mode(const std::string& name);

/// Runs the workers of one epoch, in either mode.  One executor serves a
/// whole training run; its worker threads (kParallel) are spawned lazily on
/// first use and parked on a barrier between phases.
class EpochExecutor {
 public:
  /// `n_workers` fixes the thread-pool width (one thread per worker).
  EpochExecutor(const ExecOptions& options, std::size_t n_workers);

  EpochExecutor(const EpochExecutor&) = delete;
  EpochExecutor& operator=(const EpochExecutor&) = delete;

  ~EpochExecutor();

  ExecMode mode() const noexcept { return options_.mode; }
  const ExecOptions& options() const noexcept { return options_; }

  /// One full functional epoch over `workers`, chunk phase by chunk phase
  /// (see the file comment).  A phase in which any worker threw merges
  /// nothing; its ranked winner propagates.  A push that throws propagates
  /// at once, leaving the later workers' pushes of that phase unmerged.
  void run_epoch(std::vector<TrainWorker>& workers,
                 const std::vector<bool>& alive, Server& server, float lr,
                 float reg_p, float reg_q);

  /// The host-rate probe behind the kParallel grid (host_shares() in
  /// core/partition.hpp).  Every thread i with `kept[i]`, all at once,
  /// times the dispatched SGD kernel at rank `k` on a private, fixed-seed
  /// synthetic block (under 1 MiB of scratch, first-touched on the thread)
  /// and returns its Eq. 2 effective bandwidth in GB/s: ratings x
  /// (16k + 4) bytes over the median of several timed rounds, started
  /// together.  Running on the worker threads themselves puts pinning,
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

  /// One phase in the executor's mode: run_parallel under kParallel;
  /// under kSerial fn(i) inline for every i with alive[i], in index order,
  /// with the same per-worker capture and ranked rethrow.
  void run_phase(const std::vector<bool>& alive,
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
