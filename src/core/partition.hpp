// Data partition strategies (Section 3.3).
//
// A partition is a vector x with sum(x) = 1; x_i is the fraction of all
// ratings worker i processes each epoch.
//
// - DP0 (Eq. 6): proportional to the inverse of each worker's independently
//   measured epoch time — optimal by Theorem 1 *if* per-update speed were
//   constant in the assignment size.
// - DP1 (Algorithm 1): iterative compensation that re-measures after DP0 and
//   shifts load between the CPU class and the GPU class until their average
//   compute times agree within 10%, absorbing the bandwidth/cache drift DP0
//   ignores ("data partition with heterogeneous load balance").
// - DP2 (Eq. 7): starts from DP1 and deliberately staggers worker finish
//   times by one per-worker sync interval each, so worker i's sync hides
//   under worker i+1's compute ("data partition with hidden
//   synchronization").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hcc::core {

enum class PartitionStrategy {
  kEven,  ///< uniform x_i = 1/p (the naive baseline; causes Figure 3's
          ///< "unbalanced data" behaviour on heterogeneous platforms)
  kDp0,
  kDp1,
  kDp2,
  kAuto,  ///< DP1 when sync is negligible (Eq. 5's first branch), else DP2
};

const char* partition_strategy_name(PartitionStrategy strategy);
PartitionStrategy partition_strategy_by_name(const std::string& name);

/// Measures per-worker *compute* seconds for a candidate partition
/// (sgd_update in Algorithm 1 line 12).  The DataManager plan answers it
/// with a jittered epoch of the virtual platform (sim::simulate_epoch), so
/// DP1/DP2 balance the simulated devices; the functional kParallel grid is
/// set by host_shares() from rates measured on the host instead.
using ComputeMeasure =
    std::function<std::vector<double>(const std::vector<double>& shares)>;

/// DP0 (Eq. 6): x_i = (1/T_i_e) / sum_j (1/T_j_e) from the workers'
/// independent-execution times.
std::vector<double> dp0_partition(const std::vector<double>& independent_times);

/// The functional grid under ExecMode::kParallel: DP0 (Eq. 6) over rates
/// measured on this host.  Worker i's independent-run time is
/// T_i = nnz (16k + 4) / B_i at its probed Eq. 2 effective bandwidth
/// B_i = `gbps[i]` (see EpochExecutor::probe_gbps); the common factor
/// cancels in DP0, so the shares are proportional to the rates.  Each B_i
/// is first snapped up to the power-of-two fraction of the fastest rate at
/// or above it, B_max 2^-floor(log2(B_max / B_i)): a worker only counts as
/// slower once it measures under half the fastest.  On a shared or
/// virtualized host one thread's few-millisecond probe swings by up to ~2x
/// from run to run (sibling hyperthreads, co-tenants), and where the grid
/// cuts the rows changes the SGD trajectory, so differences inside that
/// band must not move the cuts: alike cores get exactly even shares.  Only
/// workers with a positive `plan_shares[i]` and a positive rate take part:
/// workers the plan pruned, and dead workers (share 0 after
/// redistribute_dead_share), stay at 0.  Throws std::invalid_argument on a
/// size mismatch or when no worker takes part.
std::vector<double> host_shares(const std::vector<double>& plan_shares,
                                const std::vector<double>& gbps);

/// Uniform partition.
std::vector<double> even_partition(std::size_t workers);

struct Dp1Options {
  double tolerance = 0.1;       ///< Algorithm 1's 10% CPU/GPU gap threshold
  std::uint32_t max_rounds = 8; ///< safety bound (paper: "usually only once")
};

struct Dp1Result {
  std::vector<double> shares;
  std::vector<double> measured_seconds;  ///< compute times at the result
  std::uint32_t rounds = 0;              ///< measurement rounds used
};

/// DP1 / Algorithm 1.  `is_gpu[i]` classifies worker i; `measure` supplies
/// the re-measured compute times after each adjustment.
Dp1Result dp1_partition(const std::vector<double>& initial_shares,
                        const std::vector<bool>& is_gpu,
                        const ComputeMeasure& measure,
                        const Dp1Options& options = {});

/// DP2 (Eq. 7): perturbs `balanced_shares` (with measured compute times
/// `balanced_seconds`) so consecutive workers *finish* one sync interval
/// apart, hiding each worker's sync under the next worker's tail compute.
///
/// `fixed_seconds` (optional, default zero) is each worker's constant
/// per-epoch time outside compute — its exposed pull+push — which also
/// shifts finish times; DP2 staggers the *totals*.  Workers are ranked by
/// their balanced total, so the naturally-earliest finisher gets the
/// earliest slot (minimal perturbation).  With equal fixed costs and equal
/// balanced times this reduces to the paper's symmetric Eq. 7 around the
/// median.
std::vector<double> dp2_partition(const std::vector<double>& balanced_shares,
                                  const std::vector<double>& balanced_seconds,
                                  double sync_per_worker_s,
                                  const std::vector<double>& fixed_seconds = {});

/// Renormalizes a share vector to sum exactly 1 (shares must be >= 0 and
/// not all zero).  Exposed because Algorithm 1's multiplicative update only
/// conserves the total approximately.
void normalize_shares(std::vector<double>& shares);

}  // namespace hcc::core
