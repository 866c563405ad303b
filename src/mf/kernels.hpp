// SGD update kernel variants.
//
// The paper's footnote 1 describes hand-vectorizing FPSGD's update kernel
// (SSE/AVX/AVX512F) for a 1.8-2.3x speedup.  sgd_update_dispatch delivers
// that through the runtime-dispatched SIMD backend (src/simd/): one
// cpuid-resolved kernel table (AVX2+FMA, AVX-512F, NEON, scalar fallback)
// whose kernels handle every rank k, remainder tails included.  All
// variants compute the same recurrence; floating-point results can differ
// only by reassociation (tests bound the divergence).
//
// The old k % 4 == 0 manually unrolled variants (dot4, sgd_update_x4) are
// benchmark baselines only and live in bench/legacy_kernels.hpp, where
// product code cannot reach their divisibility restriction by accident.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "mf/model.hpp"
#include "simd/dispatch.hpp"
#include "simd/prefetch.hpp"

namespace hcc::mf {

/// Divergence guard for the ASGD inner loop: true iff every value is
/// finite.  A single exploding sgd_update poisons its whole Q row within
/// one epoch, so a post-chunk scan is enough to catch runaway learning
/// rates before the next push spreads them.  The SIMD backend tests the
/// exponent bits as integers, which both vectorizes and stays correct under
/// -ffast-math-style flags (an `x * 0 == 0` probe would not: the compiler
/// may assume no NaN/Inf exist and fold the scan away).
inline bool all_finite(std::span<const float> values) noexcept {
  return simd::kernels().all_finite(values.data(), values.size());
}

/// Prefetch hint for an upcoming rating's factor rows: issued one update
/// ahead by the ASGD inner loop so the next P/Q rows arrive while the
/// current update's FMA chain drains.  A hint only — results, and the
/// kAsIs bit-identical contract, are unaffected.
inline void sgd_prefetch_rows(const float* p, const float* q,
                              std::uint32_t k) noexcept {
  simd::prefetch_row(p, k);
  simd::prefetch_row(q, k);
}

/// One SGD step through the runtime-dispatched SIMD backend.  Every k takes
/// the ISA fast path (vector body + scalar remainder tail); there is no
/// divisibility gate any more.
inline float sgd_update_dispatch(float* p, float* q, std::uint32_t k, float r,
                                 float lr, float reg_p,
                                 float reg_q) noexcept {
  return simd::kernels().sgd_update(p, q, k, r, lr, reg_p, reg_q);
}

}  // namespace hcc::mf
