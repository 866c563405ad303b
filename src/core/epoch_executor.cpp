#include "core/epoch_executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/server.hpp"
#include "core/steal_queue.hpp"
#include "core/worker.hpp"
#include "data/rating_matrix.hpp"
#include "fault/errors.hpp"
#include "mf/kernels.hpp"
#include "obs/metrics.hpp"
#include "util/affinity.hpp"
#include "util/aligned.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace hcc::core {

namespace {

/// Barrier rethrow priority: a dead worker outranks a diverged one outranks
/// anything else, so concurrent failures resolve to the same recovery path
/// regardless of thread timing.
int error_rank(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const fault::WorkerFault&) {
    return 0;
  } catch (const fault::DivergenceError&) {
    return 1;
  } catch (...) {
    return 2;
  }
}

// Host-probe sizing: each thread runs SGD updates over kProbeRatings
// synthetic ratings on P and Q rows that fill kProbeFactorBytes (768 KiB +
// 96 KiB of ratings: under 1 MiB per thread for any k <= 6144).  A round is
// about kProbeRoundBytes of Eq. 2 traffic (a fraction of a millisecond on
// a current core), started on every probing thread at once; a thread's
// rate is the median of kProbeRounds rounds after one warm-up round.
// Fixed work, not fixed time: two threads sharing a CPU then take longer
// per round, instead of each timing a window it ran alone.
constexpr std::size_t kProbeRatings = 8192;
constexpr std::size_t kProbeFactorBytes = 768 * 1024;
constexpr double kProbeRoundBytes = 4.0 * 1024 * 1024;
constexpr std::size_t kProbeRounds = 5;
constexpr std::uint64_t kProbeSeed = 0x5eedb10c;

/// Lines up the probe's rounds across its threads.  It spins (yielding)
/// instead of sleeping: a parked thread can take milliseconds to be woken
/// on a virtualized host, which would stagger the rounds it aligns.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t count) : count_(count) {}

  void arrive_and_wait() {
    const std::size_t generation = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == count_) {
      arrived_.store(0, std::memory_order_relaxed);
      generation_.fetch_add(1, std::memory_order_release);
      return;
    }
    while (generation_.load(std::memory_order_acquire) == generation) {
      std::this_thread::yield();
    }
  }

 private:
  const std::size_t count_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::size_t> generation_{0};
};

/// One probing thread's private synthetic block.
class ProbeBlock {
 public:
  /// Sized and filled on the probing thread, so it is first-touched there.
  explicit ProbeBlock(std::uint32_t k)
      : k_(k),
        rows_(std::clamp<std::size_t>(
            kProbeFactorBytes / (2 * sizeof(float) * k), 16, 4096)),
        p_(rows_ * k),
        q_(rows_ * k),
        ratings_(kProbeRatings),
        updates_(std::clamp<std::size_t>(
            static_cast<std::size_t>(kProbeRoundBytes / (16.0 * k + 4.0)),
            256, 16384)) {
    // Factors start with <p, q> = 3, near the ratings, so the sweeps stay
    // in the normal float range.  A constant fill keeps the set-up cheap;
    // the kernel's cost does not depend on the values.
    const float init = std::sqrt(3.0f / static_cast<float>(k));
    std::fill(p_.begin(), p_.end(), init);
    std::fill(q_.begin(), q_.end(), init);
    util::Rng rng(kProbeSeed);
    for (data::Rating& e : ratings_) {
      e.u = static_cast<std::uint32_t>(rng.uniform_u64(rows_));
      e.i = static_cast<std::uint32_t>(rng.uniform_u64(rows_));
      e.r = static_cast<float>(1.0 + 4.0 * rng.uniform());
    }
  }

  /// Eq. 2 effective bandwidth (GB/s) of one round of updates.
  double round() {
    const util::Stopwatch watch;
    for (std::size_t done = 0; done < updates_;) {
      const std::size_t sweep = std::min(ratings_.size(), updates_ - done);
      for (std::size_t j = 0; j < sweep; ++j) {
        const data::Rating& e = ratings_[j];
        mf::sgd_update_dispatch(&p_[std::size_t(e.u) * k_],
                                &q_[std::size_t(e.i) * k_], k_, e.r, 0.005f,
                                0.05f, 0.05f);
      }
      done += sweep;
    }
    const double seconds = std::max(watch.seconds(), 1e-9);
    return static_cast<double>(updates_) * (16.0 * k_ + 4.0) / seconds / 1e9;
  }

 private:
  std::uint32_t k_;
  std::size_t rows_;
  util::AlignedFloats p_;
  util::AlignedFloats q_;
  std::vector<data::Rating> ratings_;
  std::size_t updates_;  ///< per round
};

}  // namespace

const char* exec_mode_name(ExecMode mode) {
  return mode == ExecMode::kParallel ? "parallel" : "serial";
}

ExecMode parse_exec_mode(const std::string& name) {
  if (name == "serial") return ExecMode::kSerial;
  if (name == "parallel") return ExecMode::kParallel;
  throw std::invalid_argument("unknown exec mode: \"" + name +
                              "\" (expected serial|parallel)");
}

std::uint32_t resolve_stripes(const ExecOptions& opts, std::uint32_t items,
                              std::size_t workers) {
  if (opts.mode == ExecMode::kSerial) return 1;
  const std::uint32_t want =
      opts.stripes > 0
          ? opts.stripes
          : 8 * static_cast<std::uint32_t>(std::max<std::size_t>(1, workers));
  return std::clamp(want, 1u, std::max(1u, items));
}

EpochExecutor::EpochExecutor(const ExecOptions& options, std::size_t n_workers)
    : options_(options), n_(n_workers), errors_(n_workers) {}

EpochExecutor::~EpochExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void EpochExecutor::start_threads() {
  if (!threads_.empty() || n_ == 0) return;
  threads_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    threads_.emplace_back([this, i] { thread_loop(i); });
  }
}

void EpochExecutor::thread_loop(std::size_t index) {
  if (options_.pin_threads &&
      util::pin_current_thread(static_cast<unsigned>(index))) {
    // Pin before the first barrier: every buffer the worker lazily sizes
    // (ensure_buffers at its first pull) is then first-touched — hence
    // NUMA-placed — on the CPU it will run on for the whole training.
    obs::registry().counter("sched.pinned_threads").add(1);
  }
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    bool live = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock,
                    [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      fn = fn_;
      live = alive_ == nullptr || index >= alive_->size() ||
             (*alive_)[index];
    }
    std::exception_ptr error;
    if (live && fn != nullptr) {
      try {
        (*fn)(index);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Move, don't copy: the local must not keep a reference past the
      // lock, or its destructor could do the exception object's *final*
      // release unsynchronized with the main thread still examining it.
      errors_[index] = std::move(error);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void EpochExecutor::run_parallel(const std::vector<bool>& alive,
                                 const std::function<void(std::size_t)>& fn) {
  if (n_ == 0) return;
  start_threads();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    alive_ = &alive;
    fn_ = &fn;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr());
    pending_ = n_;
    ++generation_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return pending_ == 0; });
    alive_ = nullptr;
    fn_ = nullptr;
  }
  rethrow_barrier_error();
}

std::vector<double> EpochExecutor::probe_gbps(const std::vector<bool>& kept,
                                              std::uint32_t k) {
  if (kept.size() != n_) {
    throw std::invalid_argument("probe_gbps: one kept flag per worker");
  }
  std::vector<double> gbps(n_, 0.0);
  const auto threads = std::count(kept.begin(), kept.end(), true);
  if (threads == 0 || k == 0) return gbps;
  SpinBarrier sync(static_cast<std::size_t>(threads));
  std::vector<std::array<double, kProbeRounds>> rounds(n_);
  run_parallel(kept, [&](std::size_t i) {
    // A thread that cannot build its block still keeps every barrier, so
    // its peers finish; the failure surfaces at the executor's barrier.
    std::optional<ProbeBlock> block;
    std::exception_ptr failed;
    try {
      block.emplace(k);
    } catch (...) {
      failed = std::current_exception();
    }
    sync.arrive_and_wait();
    if (block) (void)block->round();  // warm-up: caches, TLB, clock ramp
    for (double& rate : rounds[i]) {
      sync.arrive_and_wait();
      if (block) rate = block->round();
    }
    if (failed) std::rethrow_exception(failed);
  });
  for (std::size_t i = 0; i < n_; ++i) {
    if (!kept[i]) continue;
    auto& r = rounds[i];
    std::nth_element(r.begin(), r.begin() + kProbeRounds / 2, r.end());
    gbps[i] = r[kProbeRounds / 2];
  }
  return gbps;
}

void EpochExecutor::rethrow_barrier_error() {
  // errors_ is only touched by parked threads between barriers, so reading
  // it without the lock here (pending_ == 0 established the happens-before)
  // is fine — but take the lock anyway; this path is cold.
  std::exception_ptr winner;
  int winner_rank = 3;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& ep : errors_) {
      if (!ep) continue;
      const int rank = error_rank(ep);
      if (rank < winner_rank) {
        winner_rank = rank;
        winner = ep;
      }
    }
  }
  if (winner) std::rethrow_exception(winner);
}

void EpochExecutor::run_epoch(std::vector<TrainWorker>& workers,
                              const std::vector<bool>& alive, Server& server,
                              float lr, float reg_p, float reg_q,
                              util::ThreadPool* pool) {
  if (options_.mode == ExecMode::kSerial) {
    // For each chunk, all pulls, then all computes, then all pushes, in
    // worker order: one fixed merge (and float arithmetic) order — the
    // determinism contract behind kSerial.
    std::uint32_t max_streams = 1;
    for (auto& w : workers) {
      if (alive[w.id()]) w.prepare_epoch();
      max_streams = std::max(max_streams, w.streams());
    }
    for (std::uint32_t chunk = 0; chunk < max_streams; ++chunk) {
      for (auto& w : workers) {
        if (alive[w.id()] && chunk < w.streams()) w.pull(server);
      }
      for (auto& w : workers) {
        if (alive[w.id()] && chunk < w.streams()) {
          w.compute_chunk(server, chunk, lr, reg_p, reg_q, pool);
        }
      }
      for (auto& w : workers) {
        if (alive[w.id()] && chunk < w.streams()) w.push(server);
      }
    }
    return;
  }
  if (!options_.steal) {
    run_parallel(alive, [&](std::size_t i) {
      // The reorder runs on the worker's own (possibly pinned) thread so
      // the permuted entries are first-touched where they will be streamed.
      workers[i].prepare_epoch();
      workers[i].run_pipeline(server, lr, reg_p, reg_q, pool);
    });
    return;
  }

  // Work-stealing epoch: one shared chunk scheduler per epoch.  Chunk
  // targets come from the previous epoch's effective-bandwidth gauges — a
  // measured straggler gets smaller chunks, so more of its backlog is
  // stealable and its unstealable last chunk is short.
  std::size_t n_alive = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (i < alive.size() && alive[i]) ++n_alive;
  }
  StealScheduler sched(workers.size(), n_alive);
  auto& reg = obs::registry();
  std::vector<double> gbps(workers.size(), 0.0);
  double gbps_sum = 0.0;
  std::size_t gbps_n = 0;
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (!alive[i]) continue;
    const obs::Gauge* g =
        reg.find_gauge("worker" + std::to_string(i) + ".effective_gbps");
    if (g != nullptr && g->value() > 0.0) {
      gbps[i] = g->value();
      gbps_sum += gbps[i];
      ++gbps_n;
    }
  }
  const double gbps_mean =
      gbps_n > 0 ? gbps_sum / static_cast<double>(gbps_n) : 0.0;
  std::vector<std::size_t> targets(workers.size(), 0);
  for (std::size_t i = 0; i < workers.size(); ++i) {
    if (!alive[i]) continue;
    targets[i] = resolve_chunk_target(workers[i].assigned_nnz(),
                                      options_.chunk_ratings, gbps[i],
                                      gbps_mean);
  }

  run_parallel(alive, [&](std::size_t i) {
    try {
      workers[i].prepare_epoch();
      workers[i].pull(server);
      // Chunks are published only after the pull: stealing runs against a
      // consistent epoch-start view, and next_chunk's registration wait
      // keeps anyone from draining a queue before the real backlogs exist.
      sched.install(i, workers[i].make_chunks(targets[i]));
      WorkChunk chunk;
      while (sched.next_chunk(i, chunk)) {
        try {
          if (chunk.owner == static_cast<std::uint32_t>(i)) {
            workers[i].compute_own_range(server, chunk.lo, chunk.hi, lr,
                                         reg_p, reg_q, pool);
          } else {
            workers[i].compute_stolen(server, workers[chunk.owner], chunk.lo,
                                      chunk.hi, lr, reg_p, reg_q);
          }
        } catch (...) {
          // Release the row claim before aborting, or a peer parked on it
          // would never re-check the abort flag.
          sched.complete(chunk);
          throw;
        }
        sched.complete(chunk);
      }
      workers[i].guard_divergence();
      workers[i].push(server);
    } catch (...) {
      // Wake everyone (registration wait, claim wait) so the epoch barrier
      // is reached; peers push whatever they finished, and the recovery
      // paths roll the partial epoch back from the checkpoint exactly as
      // in the non-stealing executor.
      sched.abort();
      throw;
    }
  });
}

}  // namespace hcc::core
