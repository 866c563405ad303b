// Detection and degraded-mode recovery.
//
// Detection uses the Eq. 1-5 cost model the partition strategies already
// trust: a worker phase is a straggler when its measured time exceeds
// deadline_factor x its predicted time, after median-normalizing the
// measured/predicted ratio across workers (the functional layer's wall
// clock and the cost model's virtual clock run at different rates; the
// median ratio is the exchange rate, robust to the straggler itself).
//
// Recovery reuses the DP1 machinery: when a worker dies its row slice is
// re-split across the survivors proportionally to their (renormalized)
// shares, the global model rolls back to the last consistent checkpoint,
// and training continues degraded.  FaultRuntime bundles the injector,
// options and tallies the training loop threads through the stack, and
// resolves its obs counters lazily so fault-free runs leave the registry
// untouched.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "data/rating_matrix.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "obs/drift.hpp"
#include "obs/metrics.hpp"

namespace hcc::fault {

/// Flags workers whose measured phase times exceed deadline_factor x the
/// cost-model prediction (median-normalized; see file comment).  Workers
/// with `alive[w] == false` are excluded from both the normalization and
/// the result.  Empty `alive` means all alive.
std::vector<bool> straggler_mask(const std::vector<obs::PhaseTimes>& measured,
                                 const std::vector<obs::PhaseTimes>& predicted,
                                 double deadline_factor,
                                 const std::vector<bool>& alive = {});

/// Splits a dead worker's slice into per-survivor entry batches, sized
/// proportionally to `weights` (zero-weight workers receive nothing) and
/// cut only at row boundaries so every P row keeps exactly one owner —
/// the invariant behind "Transmitting Q only".  Entries are returned in
/// row order; the concatenation of all batches is the whole slice.
std::vector<std::vector<data::Rating>> split_entries_by_shares(
    const data::RatingMatrix& slice, const std::vector<double>& weights);

/// Everything the training loop threads through the stack.  Construct one
/// per run; `active()` gates the injection/checksum machinery.
class FaultRuntime {
 public:
  explicit FaultRuntime(const FaultOptions& options);

  bool active() const noexcept { return options_.enabled(); }
  const FaultOptions& options() const noexcept { return options_; }
  FaultInjector& injector() noexcept { return injector_; }

  // Tally + lazily-created obs counter, one per observable event class.
  // Mutex-guarded: retry/checksum events fire from concurrent worker
  // threads under the parallel executor.  The readers below are called
  // from the training loop only after the epoch barrier (quiesced).
  void count_retry();
  void count_checksum_failure();
  void count_recovery(double wall_s);
  void count_rollback();
  void count_stragglers(std::uint64_t n);

  std::uint64_t retries() const noexcept { return retries_; }
  std::uint64_t checksum_failures() const noexcept {
    return checksum_failures_;
  }
  std::uint64_t recoveries() const noexcept { return recoveries_; }
  std::uint64_t rollbacks() const noexcept { return rollbacks_; }
  std::uint64_t stragglers() const noexcept { return stragglers_; }
  double recovery_wall_s() const noexcept { return recovery_wall_s_; }

 private:
  FaultOptions options_;
  FaultInjector injector_;
  mutable std::mutex mutex_;
  std::uint64_t retries_ = 0;
  std::uint64_t checksum_failures_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t stragglers_ = 0;
  double recovery_wall_s_ = 0.0;
  obs::Counter* retries_counter_ = nullptr;
  obs::Counter* checksum_counter_ = nullptr;
  obs::Counter* recoveries_counter_ = nullptr;
  obs::Counter* rollbacks_counter_ = nullptr;
  obs::Counter* stragglers_counter_ = nullptr;
  obs::Histogram* recovery_hist_ = nullptr;
};

}  // namespace hcc::fault
