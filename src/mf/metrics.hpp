// Evaluation metrics for MF models.
#pragma once

#include "data/rating_matrix.hpp"
#include "mf/model.hpp"
#include "util/thread_pool.hpp"

namespace hcc::mf {

/// Root-mean-square error of the model's predictions over `ratings`
/// (the paper's convergence metric in Figure 7).
double rmse(const FactorModel& model, const data::RatingMatrix& ratings);

/// Parallel RMSE using a pool.  Both overloads add the squared errors in
/// the same fixed blocks and reduce the block sums in order, so they return
/// bit-identical results for every pool size.
double rmse(const FactorModel& model, const data::RatingMatrix& ratings,
            util::ThreadPool& pool);

/// The regularized objective of Figure 1:
///   sum (r - <p,q>)^2 + reg_p * |P|^2 + reg_q * |Q|^2.
double objective(const FactorModel& model, const data::RatingMatrix& ratings,
                 float reg_p, float reg_q);

}  // namespace hcc::mf
