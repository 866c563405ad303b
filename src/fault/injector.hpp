// Deterministic fault injection (the runtime side of a FaultPlan).
//
// The injector sits at the two seams where a real multi-CPU/GPU platform
// fails: the TrainWorker phase boundaries (a device that stops responding
// or straggles) and the COMM wire (a transfer that delivers corrupt
// bytes).  The training loop advances the injector's epoch cursor;
// workers consult it at every phase start and route their wire buffers
// through its tap, which both links (ShmComm, SessionComm) apply to every
// delivered chunk.  With an empty plan every query is an O(1) no-op
// returning "healthy".
//
// Under the concurrent epoch executor several workers consult the injector
// at once, so the mutable schedule state (fired kills, burned corruption
// attempts, armed push contexts — one per worker) lives behind a mutex;
// the epoch cursor itself only advances between epochs but is read from
// worker threads, hence atomic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "fault/errors.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace hcc::fault {

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Moves the schedule cursor (HccMf calls this at each epoch start,
  /// including replays after a rollback — events re-fire deterministically
  /// for workers that are still alive to observe them).
  void begin_epoch(std::uint32_t epoch);

  std::uint32_t current_epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// Throws WorkerKilledError when a kill event for `worker` is due at the
  /// current epoch.  Workers call this at every phase start.
  void check_phase(std::uint32_t worker);

  /// True when a kill event for `worker` is scheduled at exactly `epoch`.
  bool kill_scheduled(std::uint32_t worker, std::uint32_t epoch) const;

  /// Straggle multiplier for a worker-epoch (1.0 = nominal).  Stacked
  /// stall events multiply.
  double stall_factor(std::uint32_t worker, std::uint32_t epoch) const;

  /// Marks the transfer context `worker`'s wire tap sees next (push
  /// direction only — the plan grammar corrupts push payloads).  Contexts
  /// are per worker, so concurrent pipelines arm independently.
  void begin_push(std::uint32_t worker, std::uint32_t chunk);
  void end_push(std::uint32_t worker);

  /// The COMM wire tap for `worker`'s channel: mutates `wire` in place
  /// when a corrupt event matches that worker's armed (epoch, chunk) and
  /// still has attempts to burn.  Byte positions come from the plan's seed
  /// — deterministic.
  void tap_wire(std::span<std::byte> wire, std::uint32_t worker);

  /// Total injections performed (kills fired + stalls applied + payloads
  /// corrupted); mirrored into the `fault.injected` counter.
  std::uint64_t injected() const noexcept {
    return injected_.load(std::memory_order_relaxed);
  }

  const FaultPlan& plan() const noexcept { return plan_; }

 private:
  /// Requires mutex_ held (counter resolution + log ordering).
  void count_injection(std::uint64_t n = 1);

  FaultPlan plan_;
  std::atomic<std::uint32_t> epoch_{0};
  mutable std::mutex mutex_;
  /// Armed push context per worker id: value = chunk.  Guarded by mutex_.
  std::unordered_map<std::uint32_t, std::uint32_t> armed_chunks_;
  std::vector<std::uint32_t> corrupt_spent_;  ///< per-event attempts burned
  std::vector<bool> kill_fired_;              ///< per-event kill latched
  std::atomic<std::uint64_t> injected_{0};
  obs::Counter* injected_counter_ = nullptr;  ///< lazily resolved
};

}  // namespace hcc::fault
