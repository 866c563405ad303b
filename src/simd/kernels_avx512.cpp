// AVX-512F kernel table (16-wide float lanes).
//
// Uses only the F subset (plus FMA/F16C for tails and conversions) so any
// AVX-512 capable core can run it; vcvtps2ph/vcvtph2ps on zmm registers are
// AVX-512F encodings, covering the paper's footnote-1 "AVX512F" variant
// without the FP16-arithmetic extension.  Compiled with per-file flags
// (-mavx512f -mfma -mf16c -ffp-contract=off); dispatched only after cpuid.
#include "simd/kernel_table.hpp"
#include "simd/scalar_impl.hpp"

#if !defined(__AVX512F__) || !defined(__FMA__) || !defined(__F16C__)
#error "kernels_avx512.cpp must be compiled with -mavx512f -mfma -mf16c"
#endif

#include <immintrin.h>

#include <array>

namespace hcc::simd {
namespace {

float dot_avx512(const float* a, const float* b, std::uint32_t k) noexcept {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  std::uint32_t f = 0;
  for (; f + 32 <= k; f += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + f), _mm512_loadu_ps(b + f),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + f + 16),
                           _mm512_loadu_ps(b + f + 16), acc1);
  }
  if (f + 16 <= k) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + f), _mm512_loadu_ps(b + f),
                           acc0);
    f += 16;
  }
  float dot = _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
  for (; f < k; ++f) dot += a[f] * b[f];
  return dot;
}

void score_block_avx512(const float* user, const float* q, std::uint32_t k,
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
    // across all 8 rows, so Q streams through at one fmadd per element.
    __m512 acc[8];
    for (unsigned j = 0; j < 8; ++j) acc[j] = _mm512_setzero_ps();
    std::uint32_t f = 0;
    for (; f + 16 <= k; f += 16) {
      const __m512 vu = _mm512_loadu_ps(user + f);
      for (unsigned j = 0; j < 8; ++j) {
        acc[j] = _mm512_fmadd_ps(
            vu, _mm512_loadu_ps(rows + static_cast<std::size_t>(j) * k + f),
            acc[j]);
      }
    }
    for (unsigned j = 0; j < 8; ++j) {
      float s = _mm512_reduce_add_ps(acc[j]);
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

void sgd_apply_avx512(float* p, float* q, std::uint32_t k, float err,
                      float lr, float reg_p, float reg_q) noexcept {
  std::uint32_t f = 0;
  if (k >= 16) {  // broadcasts stay behind the gate: no zmm work for tiny k
    const __m512 verr = _mm512_set1_ps(err);
    const __m512 vlr = _mm512_set1_ps(lr);
    const __m512 vreg_p = _mm512_set1_ps(reg_p);
    const __m512 vreg_q = _mm512_set1_ps(reg_q);
    for (; f + 16 <= k; f += 16) {
      const __m512 vp = _mm512_loadu_ps(p + f);
      const __m512 vq = _mm512_loadu_ps(q + f);
      const __m512 gp = _mm512_fnmadd_ps(vreg_p, vp, _mm512_mul_ps(verr, vq));
      const __m512 gq = _mm512_fnmadd_ps(vreg_q, vq, _mm512_mul_ps(verr, vp));
      _mm512_storeu_ps(p + f, _mm512_fmadd_ps(vlr, gp, vp));
      _mm512_storeu_ps(q + f, _mm512_fmadd_ps(vlr, gq, vq));
    }
  }
  if (f < k) detail::scalar_sgd_apply(p + f, q + f, k - f, err, lr, reg_p,
                                      reg_q);
}

float sgd_update_avx512(float* p, float* q, std::uint32_t k, float r,
                        float lr, float reg_p, float reg_q) noexcept {
  const float err = r - dot_avx512(p, q, k);
  sgd_apply_avx512(p, q, k, err, lr, reg_p, reg_q);
  return err;
}

double sum_squares_avx512(const float* v, std::size_t n) noexcept {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d d0 = _mm512_cvtps_pd(_mm256_loadu_ps(v + i));
    const __m512d d1 = _mm512_cvtps_pd(_mm256_loadu_ps(v + i + 8));
    acc0 = _mm512_fmadd_pd(d0, d0, acc0);
    acc1 = _mm512_fmadd_pd(d1, d1, acc1);
  }
  double sum = _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += static_cast<double>(v[i]) * v[i];
  return sum;
}

bool all_finite_avx512(const float* v, std::size_t n) noexcept {
  const __m512i exp_mask = _mm512_set1_epi32(0x7f80'0000);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i bits = _mm512_loadu_si512(v + i);
    const __mmask16 bad = _mm512_cmpeq_epi32_mask(
        _mm512_and_si512(bits, exp_mask), exp_mask);
    if (bad != 0) return false;
  }
  return detail::scalar_all_finite(v + i, n - i);
}

void fp16_encode_avx512(const float* src, util::Half* dst,
                        std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(src + i);
    const __m256i h =
        _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), h);
  }
  if (i < n) detail::scalar_fp16_encode(src + i, dst + i, n - i);
}

void fp16_decode_avx512(const util::Half* src, float* dst,
                        std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm512_storeu_ps(dst + i, _mm512_cvtph_ps(h));
  }
  if (i < n) detail::scalar_fp16_decode(src + i, dst + i, n - i);
}

// --- sub-FP16 quantization (bit-exact vs the scalar references: exact
// compares/multiplies, RNE integer rounding, no FMA anywhere) ---

float absmax_avx512(const float* v, std::size_t n) noexcept {
  __m512 m = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    m = _mm512_max_ps(m, _mm512_abs_ps(_mm512_loadu_ps(v + i)));
  }
  float result = _mm512_reduce_max_ps(m);
  for (; i < n; ++i) {
    const float a = std::fabs(v[i]);
    if (a > result) result = a;
  }
  return result;
}

void ef_delta_avx512(const float* src, const float* ref,
                     const float* residual, float* e, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 d =
        _mm512_sub_ps(_mm512_loadu_ps(src + i), _mm512_loadu_ps(ref + i));
    _mm512_storeu_ps(e + i, _mm512_add_ps(d, _mm512_loadu_ps(residual + i)));
  }
  if (i < n) detail::scalar_ef_delta(src + i, ref + i, residual + i, e + i,
                                     n - i);
}

void int8_encode_avx512(const float* e, float inv_scale, std::int8_t* q,
                        std::size_t n) noexcept {
  const __m512 vs = _mm512_set1_ps(inv_scale);
  const __m512i vmax = _mm512_set1_epi32(127);
  const __m512i vmin = _mm512_set1_epi32(-127);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // vcvtps2dq rounds to nearest-even, matching the scalar lrintf.
    __m512i vi =
        _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(e + i), vs));
    vi = _mm512_min_epi32(_mm512_max_epi32(vi, vmin), vmax);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm512_cvtsepi32_epi8(vi));
  }
  if (i < n) detail::scalar_int8_encode(e + i, inv_scale, q + i, n - i);
}

void int8_commit_avx512(const std::int8_t* q, float scale, const float* e,
                        float* ref, float* residual, float* dst,
                        std::size_t n) noexcept {
  const __m512 vscale = _mm512_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i vi = _mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i)));
    const __m512 dq = _mm512_mul_ps(_mm512_cvtepi32_ps(vi), vscale);
    const __m512 out = _mm512_add_ps(_mm512_loadu_ps(ref + i), dq);
    _mm512_storeu_ps(residual + i,
                     _mm512_sub_ps(_mm512_loadu_ps(e + i), dq));
    _mm512_storeu_ps(ref + i, out);
    _mm512_storeu_ps(dst + i, out);
  }
  if (i < n) detail::scalar_int8_commit(q + i, scale, e + i, ref + i,
                                        residual + i, dst + i, n - i);
}

/// kSpread[x] has bit b of x at even position 2b — the compare-mask to
/// packed-codes interleave (only AVX-512F is compiled in, so no vpdep).
constexpr auto kSpread = [] {
  std::array<std::uint16_t, 256> t{};
  for (unsigned v = 0; v < 256; ++v) {
    std::uint16_t s = 0;
    for (unsigned b = 0; b < 8; ++b) {
      if (v & (1u << b)) s = static_cast<std::uint16_t>(s | (1u << (2 * b)));
    }
    t[v] = s;
  }
  return t;
}();

inline std::uint32_t spread16(std::uint32_t mask) noexcept {
  return static_cast<std::uint32_t>(kSpread[mask & 0xff]) |
         (static_cast<std::uint32_t>(kSpread[(mask >> 8) & 0xff]) << 16);
}

void two_bit_encode_avx512(const float* e, float threshold,
                           std::uint8_t* packed, std::size_t n) noexcept {
  const __m512 vt = _mm512_set1_ps(threshold);
  const __m512 vnt = _mm512_set1_ps(-threshold);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(e + i);
    const std::uint32_t gt = _mm512_cmp_ps_mask(v, vt, _CMP_GT_OQ);
    const std::uint32_t lt = _mm512_cmp_ps_mask(v, vnt, _CMP_LT_OQ);
    // code j = gt_j | (lt_j << 1): interleave the two masks bitwise.
    const std::uint32_t bits = spread16(gt) | (spread16(lt) << 1);
    packed[i / 4] = static_cast<std::uint8_t>(bits);
    packed[i / 4 + 1] = static_cast<std::uint8_t>(bits >> 8);
    packed[i / 4 + 2] = static_cast<std::uint8_t>(bits >> 16);
    packed[i / 4 + 3] = static_cast<std::uint8_t>(bits >> 24);
  }
  if (i < n) detail::scalar_two_bit_encode(e + i, threshold, packed + i / 4,
                                           n - i);
}

void two_bit_commit_avx512(const std::uint8_t* packed, float threshold,
                           const float* e, float* ref, float* residual,
                           float* dst, std::size_t n) noexcept {
  const __m512 vt = _mm512_set1_ps(threshold);
  const __m512 vnt = _mm512_set1_ps(-threshold);
  const __m512i shifts = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                           20, 22, 24, 26, 28, 30);
  const __m512i three = _mm512_set1_epi32(3);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i two = _mm512_set1_epi32(2);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const std::uint32_t bits =
        static_cast<std::uint32_t>(packed[i / 4]) |
        (static_cast<std::uint32_t>(packed[i / 4 + 1]) << 8) |
        (static_cast<std::uint32_t>(packed[i / 4 + 2]) << 16) |
        (static_cast<std::uint32_t>(packed[i / 4 + 3]) << 24);
    const __m512i codes = _mm512_and_si512(
        _mm512_srlv_epi32(_mm512_set1_epi32(static_cast<int>(bits)), shifts),
        three);
    __m512 dq = _mm512_setzero_ps();
    dq = _mm512_mask_mov_ps(dq, _mm512_cmpeq_epi32_mask(codes, one), vt);
    dq = _mm512_mask_mov_ps(dq, _mm512_cmpeq_epi32_mask(codes, two), vnt);
    const __m512 out = _mm512_add_ps(_mm512_loadu_ps(ref + i), dq);
    _mm512_storeu_ps(residual + i,
                     _mm512_sub_ps(_mm512_loadu_ps(e + i), dq));
    _mm512_storeu_ps(ref + i, out);
    _mm512_storeu_ps(dst + i, out);
  }
  if (i < n) {
    detail::scalar_two_bit_commit(packed + i / 4, threshold, e + i, ref + i,
                                  residual + i, dst + i, n - i);
  }
}

}  // namespace

const KernelTable& avx512_kernels() noexcept {
  static const KernelTable table{
      Isa::kAvx512,
      "avx512",
      dot_avx512,
      score_block_avx512,
      sgd_update_avx512,
      sum_squares_avx512,
      all_finite_avx512,
      fp16_encode_avx512,
      fp16_decode_avx512,
      absmax_avx512,
      ef_delta_avx512,
      int8_encode_avx512,
      int8_commit_avx512,
      two_bit_encode_avx512,
      two_bit_commit_avx512,
  };
  return table;
}

}  // namespace hcc::simd
