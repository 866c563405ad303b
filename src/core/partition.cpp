#include "core/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace hcc::core {

const char* partition_strategy_name(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kEven: return "even";
    case PartitionStrategy::kDp0: return "DP0";
    case PartitionStrategy::kDp1: return "DP1";
    case PartitionStrategy::kDp2: return "DP2";
    case PartitionStrategy::kAuto: return "auto";
  }
  return "?";
}

PartitionStrategy partition_strategy_by_name(const std::string& name) {
  if (name == "even") return PartitionStrategy::kEven;
  if (name == "dp0" || name == "DP0") return PartitionStrategy::kDp0;
  if (name == "dp1" || name == "DP1") return PartitionStrategy::kDp1;
  if (name == "dp2" || name == "DP2") return PartitionStrategy::kDp2;
  if (name == "auto") return PartitionStrategy::kAuto;
  throw std::invalid_argument("unknown partition strategy: " + name);
}

void normalize_shares(std::vector<double>& shares) {
  double sum = 0.0;
  for (double s : shares) {
    if (s < 0.0) throw std::invalid_argument("negative share");
    sum += s;
  }
  if (sum <= 0.0) throw std::invalid_argument("all shares are zero");
  for (double& s : shares) s /= sum;
}

std::vector<double> even_partition(std::size_t workers) {
  if (workers == 0) throw std::invalid_argument("no workers");
  return std::vector<double>(workers, 1.0 / static_cast<double>(workers));
}

std::vector<double> dp0_partition(
    const std::vector<double>& independent_times) {
  if (independent_times.empty()) throw std::invalid_argument("no workers");
  std::vector<double> shares(independent_times.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (independent_times[i] <= 0.0) {
      throw std::invalid_argument("non-positive independent time");
    }
    shares[i] = 1.0 / independent_times[i];
  }
  normalize_shares(shares);
  return shares;
}

std::vector<double> host_shares(const std::vector<double>& plan_shares,
                                const std::vector<double>& gbps) {
  if (plan_shares.size() != gbps.size()) {
    throw std::invalid_argument("shares/rates size mismatch");
  }
  std::vector<std::size_t> kept;
  double top = 0.0;
  for (std::size_t i = 0; i < gbps.size(); ++i) {
    if (plan_shares[i] > 0.0 && gbps[i] > 0.0 && std::isfinite(gbps[i])) {
      kept.push_back(i);
      top = std::max(top, gbps[i]);
    }
  }
  if (kept.empty()) throw std::invalid_argument("no worker with a host rate");
  // T_i in units of the fastest worker's time.
  std::vector<double> times;
  for (const std::size_t i : kept) {
    times.push_back(std::exp2(std::floor(std::log2(top / gbps[i]))));
  }
  const std::vector<double> x = dp0_partition(times);
  std::vector<double> shares(plan_shares.size(), 0.0);
  for (std::size_t j = 0; j < kept.size(); ++j) shares[kept[j]] = x[j];
  return shares;
}

Dp1Result dp1_partition(const std::vector<double>& initial_shares,
                        const std::vector<bool>& is_gpu,
                        const ComputeMeasure& measure,
                        const Dp1Options& options) {
  if (initial_shares.size() != is_gpu.size()) {
    throw std::invalid_argument("shares/is_gpu size mismatch");
  }
  const std::size_t p = initial_shares.size();
  std::size_t g = 0;
  for (bool flag : is_gpu) g += flag ? 1 : 0;
  const std::size_t c = p - g;

  Dp1Result result;
  result.shares = initial_shares;
  normalize_shares(result.shares);
  result.measured_seconds = measure(result.shares);
  result.rounds = 1;
  if (c == 0 || g == 0) return result;  // homogeneous class: DP0 stands

  auto class_averages = [&](const std::vector<double>& t) {
    double cpu = 0.0;
    double gpu = 0.0;
    for (std::size_t i = 0; i < p; ++i) {
      (is_gpu[i] ? gpu : cpu) += t[i];
    }
    return std::pair{cpu / static_cast<double>(c),
                     gpu / static_cast<double>(g)};
  };

  auto [t_cpu, t_gpu] = class_averages(result.measured_seconds);
  while (result.rounds < options.max_rounds &&
         std::abs(t_cpu - t_gpu) / std::min(t_cpu, t_gpu) >
             options.tolerance) {
    // Algorithm 1, lines 3-11: move l*delta of time from the slower class
    // to the faster one, translated into shares via each worker's own
    // time-per-share ratio.
    const double l = t_cpu > t_gpu ? 1.0 : -1.0;
    const double delta =
        l * (t_cpu - t_gpu) / static_cast<double>(c + g);  // >= 0
    std::vector<double> next(p);
    for (std::size_t i = 0; i < p; ++i) {
      const double t_i = result.measured_seconds[i];
      if (t_i <= 0.0) {
        next[i] = result.shares[i];
        continue;
      }
      const double adjust = is_gpu[i]
                                ? (t_i + l * static_cast<double>(c) * delta)
                                : (t_i - l * static_cast<double>(g) * delta);
      next[i] = std::max(0.0, result.shares[i] * adjust / t_i);
    }
    normalize_shares(next);
    result.shares = std::move(next);
    result.measured_seconds = measure(result.shares);  // Alg. 1 line 12
    ++result.rounds;
    std::tie(t_cpu, t_gpu) = class_averages(result.measured_seconds);
  }
  return result;
}

std::vector<double> dp2_partition(const std::vector<double>& balanced_shares,
                                  const std::vector<double>& balanced_seconds,
                                  double sync_per_worker_s,
                                  const std::vector<double>& fixed_seconds) {
  if (balanced_shares.size() != balanced_seconds.size()) {
    throw std::invalid_argument("shares/seconds size mismatch");
  }
  const std::size_t p = balanced_shares.size();
  if (p == 0) throw std::invalid_argument("no workers");
  if (sync_per_worker_s < 0.0) {
    throw std::invalid_argument("negative sync time");
  }
  if (!fixed_seconds.empty() && fixed_seconds.size() != p) {
    throw std::invalid_argument("fixed_seconds size mismatch");
  }

  std::vector<double> totals(p);
  double center = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    totals[i] = balanced_seconds[i] +
                (fixed_seconds.empty() ? 0.0 : fixed_seconds[i]);
    center += totals[i];
  }
  center /= static_cast<double>(p);

  // Rank workers by their balanced finish time: the naturally earliest
  // finisher keeps the earliest Eq. 7 slot (minimal perturbation), ties
  // broken by index so the symmetric case matches the paper exactly.
  std::vector<std::size_t> order(p);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return totals[a] < totals[b];
  });

  // Eq. 7 around the median: worker at rank r should *finish* one sync
  // interval after rank r-1, so the server's merge of each worker hides
  // entirely under the next worker's tail compute (Figure 5, right).
  const double mid = (static_cast<double>(p) - 1.0) / 2.0;
  std::vector<double> shares(p);
  for (std::size_t rank = 0; rank < p; ++rank) {
    const std::size_t i = order[rank];
    const double offset =
        (static_cast<double>(rank) - mid) * sync_per_worker_s;
    const double target_total = center + offset;
    const double target_compute =
        target_total - (fixed_seconds.empty() ? 0.0 : fixed_seconds[i]);
    if (balanced_seconds[i] <= 0.0 || target_compute <= 0.0) {
      shares[i] = balanced_shares[i];
    } else {
      shares[i] = balanced_shares[i] * target_compute / balanced_seconds[i];
    }
  }
  normalize_shares(shares);
  return shares;
}

}  // namespace hcc::core
