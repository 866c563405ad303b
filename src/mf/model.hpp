// Factor model storage: the feature matrices P and Q.
//
// P is m x k (one row of k latent features per user), Q is n x k (one row
// per item; note the paper writes Q as k x n — we store it item-major so an
// item's features are contiguous, which is what the SGD kernel touches).
// Both matrices live in 64-byte-aligned storage so the dispatched SIMD
// kernels (src/simd/) get cache-line-aligned rows whenever k % 16 == 0.
#pragma once

#include <cstdint>
#include <span>

#include "data/rating_matrix.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace hcc::mf {

/// The trainable state of an MF problem.
class FactorModel {
 public:
  FactorModel() = default;

  /// Allocates zeroed P (users x k) and Q (items x k).
  FactorModel(std::uint32_t users, std::uint32_t items, std::uint32_t k);

  /// Random init: uniform in [0, sqrt(mean_rating / k)) — the standard MF
  /// init that makes initial predictions land near the rating scale's mean.
  void init_random(util::Rng& rng, float mean_rating);

  std::uint32_t users() const noexcept { return users_; }
  std::uint32_t items() const noexcept { return items_; }
  std::uint32_t k() const noexcept { return k_; }

  /// Mutable feature row of user u (span of k floats).
  float* p(std::uint32_t u) noexcept { return &p_[std::size_t(u) * k_]; }
  const float* p(std::uint32_t u) const noexcept { return &p_[std::size_t(u) * k_]; }

  /// Mutable feature row of item i (span of k floats).
  float* q(std::uint32_t i) noexcept { return &q_[std::size_t(i) * k_]; }
  const float* q(std::uint32_t i) const noexcept { return &q_[std::size_t(i) * k_]; }

  /// Whole-matrix views; the COMM module transmits these buffers.
  std::span<float> p_data() noexcept { return p_; }
  std::span<const float> p_data() const noexcept { return p_; }
  std::span<float> q_data() noexcept { return q_; }
  std::span<const float> q_data() const noexcept { return q_; }

  /// Predicted rating for cell (u, i): dot(P_u, Q_i).
  float predict(std::uint32_t u, std::uint32_t i) const noexcept;

 private:
  std::uint32_t users_ = 0;
  std::uint32_t items_ = 0;
  std::uint32_t k_ = 0;
  util::AlignedFloats p_;
  util::AlignedFloats q_;
};

/// Hyper-parameters of one SGD-based MF training run.
struct SgdConfig {
  std::uint32_t k = 128;       ///< latent dimension (paper uses k=128)
  float learn_rate = 0.005f;   ///< gamma
  float reg_p = 0.01f;         ///< lambda_1 (L2 on P)
  float reg_q = 0.01f;         ///< lambda_2 (L2 on Q)
  std::uint32_t epochs = 20;
  float lr_decay = 1.0f;       ///< per-epoch multiplicative decay
  std::uint64_t seed = 1234;

  /// Convenience: copies the dataset's published hyper-parameters.
  static SgdConfig for_dataset(float reg, float lr, std::uint32_t k = 128) {
    SgdConfig c;
    c.k = k;
    c.learn_rate = lr;
    c.reg_p = c.reg_q = reg;
    return c;
  }
};

/// One SGD step on a single observed rating (the formula in Figure 1):
///   err = r - <p, q>
///   p  += lr * (err * q - reg_p * p)
///   q  += lr * (err * p_old - reg_q * q)
/// Returns the pre-update error (callers accumulate it for training RMSE).
///
/// The loop is written over a compile-time-unknown k but with restrict-like
/// locals so it auto-vectorizes; this is the hot path of the whole library.
inline float sgd_update(float* p, float* q, std::uint32_t k, float r,
                        float lr, float reg_p, float reg_q) noexcept {
  float dot = 0.0f;
  for (std::uint32_t f = 0; f < k; ++f) dot += p[f] * q[f];
  const float err = r - dot;
  for (std::uint32_t f = 0; f < k; ++f) {
    const float pf = p[f];
    const float qf = q[f];
    p[f] = pf + lr * (err * qf - reg_p * pf);
    q[f] = qf + lr * (err * pf - reg_q * qf);
  }
  return err;
}

}  // namespace hcc::mf
