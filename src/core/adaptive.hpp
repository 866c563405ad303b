// Runtime-adaptive repartitioning (extension).
//
// Algorithm 1 runs once, before training; if a device's effective speed
// changes afterwards (thermal throttling, co-tenant jobs), the static
// partition degrades into the paper's "unbalanced data" pathology.  This
// controller watches per-epoch compute times and rebalances the shares
// proportionally when the spread exceeds a threshold — the online
// generalization of Algorithm 1's multiplicative compensation (line 6),
// applied per worker instead of per class.
//
// The compute times it is fed are the *virtual* platform's: HccMf runs the
// controller on the timing path (simulate(), and train()'s virtual clocks)
// over sim::simulate_epoch's per-worker compute, never over host
// measurements.  The functional kParallel grid is balanced once, before
// training, by the host-rate probe (EpochExecutor::probe_gbps and
// host_shares() in core/partition.hpp); feeding this controller the real
// per-epoch compute histograms to re-grid between epochs is still open.
#pragma once

#include <cstdint>
#include <vector>

namespace hcc::core {

struct AdaptiveOptions {
  /// Rebalance when (max - min) / min of compute times exceeds this.
  double spread_threshold = 0.15;
  /// Epochs to wait after a rebalance before acting again (lets the new
  /// partition's measurements stabilize).
  std::uint32_t cooldown_epochs = 2;
  /// Step damping in (0, 1]: 1 jumps straight to the proportional fix,
  /// smaller values move gradually (robust to measurement noise).
  double gain = 0.8;
};

/// Degraded-mode repartition (fault-tolerance extension): zeroes the dead
/// worker's share and renormalizes the survivors proportionally — the same
/// multiplicative compensation Algorithm 1's DP1 applies, collapsed to one
/// step because the survivors' relative speeds are already balanced.
/// Returns the input unchanged when `dead` is out of range or no survivor
/// has positive share.
std::vector<double> redistribute_dead_share(std::vector<double> shares,
                                            std::size_t dead);

/// Watches compute-time measurements and maintains the share vector.
class AdaptiveController {
 public:
  AdaptiveController(std::vector<double> initial_shares,
                     AdaptiveOptions options = {});

  /// Feeds one epoch's measured per-worker compute seconds.  Returns true
  /// when the shares were rebalanced (the caller must then re-grid).
  /// Zero-share workers are ignored (pruned workers stay pruned).
  bool observe(const std::vector<double>& compute_seconds);

  const std::vector<double>& shares() const noexcept { return shares_; }
  std::uint32_t repartitions() const noexcept { return repartitions_; }

 private:
  std::vector<double> shares_;
  AdaptiveOptions options_;
  std::uint32_t repartitions_ = 0;
  std::uint32_t cooldown_ = 0;
};

}  // namespace hcc::core
