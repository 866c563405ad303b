#include "mf/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "simd/dispatch.hpp"

namespace hcc::mf {

namespace {

/// Both rmse() overloads sum squared errors in fixed blocks of this many
/// ratings and add the block sums in block order, so the result does not
/// depend on the pool or its size.
constexpr std::size_t kRmseBlock = 4096;

/// Sum of squared errors over entries[lo, hi).
double squared_error(const FactorModel& model,
                     std::span<const data::Rating> entries, std::size_t lo,
                     std::size_t hi) {
  double sq = 0.0;
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const auto& e = entries[idx];
    const double err = static_cast<double>(e.r) - model.predict(e.u, e.i);
    sq += err * err;
  }
  return sq;
}

double block_sum_rmse(const FactorModel& model,
                      std::span<const data::Rating> entries,
                      util::ThreadPool* pool) {
  if (entries.empty()) return 0.0;
  const std::size_t blocks = (entries.size() + kRmseBlock - 1) / kRmseBlock;
  std::vector<double> partial(blocks);
  const auto body = [&](std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      partial[b] =
          squared_error(model, entries, b * kRmseBlock,
                        std::min(entries.size(), (b + 1) * kRmseBlock));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(0, blocks, body);
  } else {
    body(0, blocks);
  }
  double sq = 0.0;
  for (const double block : partial) sq += block;
  return std::sqrt(sq / static_cast<double>(entries.size()));
}

}  // namespace

double rmse(const FactorModel& model, const data::RatingMatrix& ratings) {
  return block_sum_rmse(model, ratings.entries(), nullptr);
}

double rmse(const FactorModel& model, const data::RatingMatrix& ratings,
            util::ThreadPool& pool) {
  return block_sum_rmse(model, ratings.entries(), &pool);
}

double objective(const FactorModel& model, const data::RatingMatrix& ratings,
                 float reg_p, float reg_q) {
  const double loss =
      squared_error(model, ratings.entries(), 0, ratings.nnz());
  const auto& kernels = simd::kernels();
  const double p_norm =
      kernels.sum_squares(model.p_data().data(), model.p_data().size());
  const double q_norm =
      kernels.sum_squares(model.q_data().data(), model.q_data().size());
  return loss + reg_p * p_norm + reg_q * q_norm;
}

}  // namespace hcc::mf
