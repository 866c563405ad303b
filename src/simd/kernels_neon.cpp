// NEON (aarch64) kernel table (4-wide float lanes).
//
// NEON and the binary16 conversion instructions are ARMv8-A baseline, so no
// per-file -m flags are needed beyond -ffp-contract=off for the scalar
// tails; the dispatcher offers this table on any aarch64 build.  The fcvt
// conversions honor the default FPCR state (round-to-nearest-even, gradual
// underflow, NaN payloads propagated), matching the scalar codec bit-exactly
// as long as the process leaves FPCR alone.
#include "simd/kernel_table.hpp"
#include "simd/scalar_impl.hpp"

#if !defined(__aarch64__)
#error "kernels_neon.cpp must only be compiled for aarch64 targets"
#endif

#include <arm_neon.h>

namespace hcc::simd {
namespace {

float dot_neon(const float* a, const float* b, std::uint32_t k) noexcept {
  float32x4_t acc0 = vdupq_n_f32(0.0f);
  float32x4_t acc1 = vdupq_n_f32(0.0f);
  std::uint32_t f = 0;
  for (; f + 8 <= k; f += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + f), vld1q_f32(b + f));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + f + 4), vld1q_f32(b + f + 4));
  }
  if (f + 4 <= k) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + f), vld1q_f32(b + f));
    f += 4;
  }
  float dot = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; f < k; ++f) dot += a[f] * b[f];
  return dot;
}

void score_block_neon(const float* user, const float* q, std::uint32_t k,
                      std::uint32_t n_items, const std::uint8_t* skip_bits,
                      float* scores) noexcept {
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  std::uint32_t i = 0;
  for (; i + 8 <= n_items; i += 8) {
    // i is a multiple of 8, so the pass's mask is exactly one bitset byte.
    const unsigned mask = skip_bits != nullptr ? skip_bits[i / 8] : 0u;
    if (mask == 0xffu) {
      for (unsigned j = 0; j < 8; ++j) scores[i + j] = kNegInf;
      continue;
    }
    const float* rows = q + static_cast<std::size_t>(i) * k;
    // One accumulator per item; the user chunk is loaded once and reused
    // across all 8 rows, so Q streams through at one fma per element.
    float32x4_t acc[8];
    for (unsigned j = 0; j < 8; ++j) acc[j] = vdupq_n_f32(0.0f);
    std::uint32_t f = 0;
    for (; f + 4 <= k; f += 4) {
      const float32x4_t vu = vld1q_f32(user + f);
      for (unsigned j = 0; j < 8; ++j) {
        acc[j] = vfmaq_f32(
            acc[j], vu, vld1q_f32(rows + static_cast<std::size_t>(j) * k + f));
      }
    }
    for (unsigned j = 0; j < 8; ++j) {
      float s = vaddvq_f32(acc[j]);
      const float* row = rows + static_cast<std::size_t>(j) * k;
      for (std::uint32_t t = f; t < k; ++t) s += user[t] * row[t];
      scores[i + j] = ((mask >> j) & 1u) != 0 ? kNegInf : s;
    }
  }
  if (i < n_items) {
    detail::scalar_score_block(
        user, q + static_cast<std::size_t>(i) * k, k, n_items - i,
        skip_bits != nullptr ? skip_bits + i / 8 : nullptr, scores + i);
  }
}

void sgd_apply_neon(float* p, float* q, std::uint32_t k, float err, float lr,
                    float reg_p, float reg_q) noexcept {
  const float32x4_t verr = vdupq_n_f32(err);
  const float32x4_t vlr = vdupq_n_f32(lr);
  const float32x4_t vreg_p = vdupq_n_f32(reg_p);
  const float32x4_t vreg_q = vdupq_n_f32(reg_q);
  std::uint32_t f = 0;
  for (; f + 4 <= k; f += 4) {
    const float32x4_t vp = vld1q_f32(p + f);
    const float32x4_t vq = vld1q_f32(q + f);
    // g_p = err*q - reg_p*p ; g_q = err*p_old - reg_q*q
    const float32x4_t gp = vfmsq_f32(vmulq_f32(verr, vq), vreg_p, vp);
    const float32x4_t gq = vfmsq_f32(vmulq_f32(verr, vp), vreg_q, vq);
    vst1q_f32(p + f, vfmaq_f32(vp, vlr, gp));
    vst1q_f32(q + f, vfmaq_f32(vq, vlr, gq));
  }
  if (f < k) detail::scalar_sgd_apply(p + f, q + f, k - f, err, lr, reg_p,
                                      reg_q);
}

float sgd_update_neon(float* p, float* q, std::uint32_t k, float r, float lr,
                      float reg_p, float reg_q) noexcept {
  const float err = r - dot_neon(p, q, k);
  sgd_apply_neon(p, q, k, err, lr, reg_p, reg_q);
  return err;
}

double sum_squares_neon(const float* v, std::size_t n) noexcept {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t s = vld1q_f32(v + i);
    const float64x2_t lo = vcvt_f64_f32(vget_low_f32(s));
    const float64x2_t hi = vcvt_f64_f32(vget_high_f32(s));
    acc0 = vfmaq_f64(acc0, lo, lo);
    acc1 = vfmaq_f64(acc1, hi, hi);
  }
  double sum = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) sum += static_cast<double>(v[i]) * v[i];
  return sum;
}

bool all_finite_neon(const float* v, std::size_t n) noexcept {
  const uint32x4_t exp_mask = vdupq_n_u32(0x7f80'0000u);
  uint32x4_t bad = vdupq_n_u32(0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t bits = vreinterpretq_u32_f32(vld1q_f32(v + i));
    bad = vorrq_u32(bad, vceqq_u32(vandq_u32(bits, exp_mask), exp_mask));
  }
  if (vmaxvq_u32(bad) != 0) return false;
  return detail::scalar_all_finite(v + i, n - i);
}

void fp16_encode_neon(const float* src, util::Half* dst,
                      std::size_t n) noexcept {
  auto* out = reinterpret_cast<std::uint16_t*>(dst);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float16x4_t h = vcvt_f16_f32(vld1q_f32(src + i));
    vst1_u16(out + i, vreinterpret_u16_f16(h));
  }
  if (i < n) detail::scalar_fp16_encode(src + i, dst + i, n - i);
}

void fp16_decode_neon(const util::Half* src, float* dst,
                      std::size_t n) noexcept {
  const auto* in = reinterpret_cast<const std::uint16_t*>(src);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float16x4_t h = vreinterpret_f16_u16(vld1_u16(in + i));
    vst1q_f32(dst + i, vcvt_f32_f16(h));
  }
  if (i < n) detail::scalar_fp16_decode(src + i, dst + i, n - i);
}

// --- sub-FP16 quantization (bit-exact vs the scalar references: exact
// compares/multiplies, RNE integer rounding, no FMA anywhere) ---

float absmax_neon(const float* v, std::size_t n) noexcept {
  float32x4_t m = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m = vmaxq_f32(m, vabsq_f32(vld1q_f32(v + i)));
  }
  float result = vmaxvq_f32(m);
  for (; i < n; ++i) {
    const float a = std::fabs(v[i]);
    if (a > result) result = a;
  }
  return result;
}

void ef_delta_neon(const float* src, const float* ref, const float* residual,
                   float* e, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(src + i), vld1q_f32(ref + i));
    vst1q_f32(e + i, vaddq_f32(d, vld1q_f32(residual + i)));
  }
  if (i < n) detail::scalar_ef_delta(src + i, ref + i, residual + i, e + i,
                                     n - i);
}

void int8_encode_neon(const float* e, float inv_scale, std::int8_t* q,
                      std::size_t n) noexcept {
  const float32x4_t vs = vdupq_n_f32(inv_scale);
  const int32x4_t vmax = vdupq_n_s32(127);
  const int32x4_t vmin = vdupq_n_s32(-127);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // vcvtnq rounds to nearest-even, matching the scalar lrintf.
    int32x4_t a = vcvtnq_s32_f32(vmulq_f32(vld1q_f32(e + i), vs));
    int32x4_t b = vcvtnq_s32_f32(vmulq_f32(vld1q_f32(e + i + 4), vs));
    a = vminq_s32(vmaxq_s32(a, vmin), vmax);
    b = vminq_s32(vmaxq_s32(b, vmin), vmax);
    const int16x8_t w = vcombine_s16(vmovn_s32(a), vmovn_s32(b));
    vst1_s8(q + i, vmovn_s16(w));
  }
  if (i < n) detail::scalar_int8_encode(e + i, inv_scale, q + i, n - i);
}

void int8_commit_neon(const std::int8_t* q, float scale, const float* e,
                      float* ref, float* residual, float* dst,
                      std::size_t n) noexcept {
  const float32x4_t vscale = vdupq_n_f32(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int16x8_t w = vmovl_s8(vld1_s8(q + i));
    const int32x4_t lo = vmovl_s16(vget_low_s16(w));
    const int32x4_t hi = vmovl_s16(vget_high_s16(w));
    const float32x4_t dq0 = vmulq_f32(vcvtq_f32_s32(lo), vscale);
    const float32x4_t dq1 = vmulq_f32(vcvtq_f32_s32(hi), vscale);
    const float32x4_t out0 = vaddq_f32(vld1q_f32(ref + i), dq0);
    const float32x4_t out1 = vaddq_f32(vld1q_f32(ref + i + 4), dq1);
    vst1q_f32(residual + i, vsubq_f32(vld1q_f32(e + i), dq0));
    vst1q_f32(residual + i + 4, vsubq_f32(vld1q_f32(e + i + 4), dq1));
    vst1q_f32(ref + i, out0);
    vst1q_f32(ref + i + 4, out1);
    vst1q_f32(dst + i, out0);
    vst1q_f32(dst + i + 4, out1);
  }
  if (i < n) detail::scalar_int8_commit(q + i, scale, e + i, ref + i,
                                        residual + i, dst + i, n - i);
}

}  // namespace

const KernelTable& neon_kernels() noexcept {
  static const KernelTable table{
      Isa::kNeon,
      "neon",
      dot_neon,
      score_block_neon,
      sgd_update_neon,
      sum_squares_neon,
      all_finite_neon,
      fp16_encode_neon,
      fp16_decode_neon,
      absmax_neon,
      ef_delta_neon,
      int8_encode_neon,
      int8_commit_neon,
      // NEON has no movemask; the 2-bit pack/unpack would be a lane-by-lane
      // extract either way, so the portable reference is used as-is (the
      // commit's float work is memory-bound at 2 bits/value regardless).
      detail::scalar_two_bit_encode,
      detail::scalar_two_bit_commit,
  };
  return table;
}

}  // namespace hcc::simd
