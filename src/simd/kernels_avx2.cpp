// AVX2 + FMA + F16C kernel table (8-wide float lanes).
//
// Compiled with per-file flags (-mavx2 -mfma -mf16c -ffp-contract=off); the
// dispatcher only hands this table out after cpuid confirms all three
// features, so the intrinsics below are always legal when reached.  All
// loads/stores are unaligned-safe; remainder tails fall through to the
// scalar reference implementations.
#include "simd/kernel_table.hpp"
#include "simd/scalar_impl.hpp"

#if !defined(__AVX2__) || !defined(__FMA__) || !defined(__F16C__)
#error "kernels_avx2.cpp must be compiled with -mavx2 -mfma -mf16c"
#endif

#include <immintrin.h>

#include <array>

namespace hcc::simd {
namespace {

inline float hsum256(__m256 v) noexcept {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

inline double hsum256d(__m256d v) noexcept {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  lo = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
  return _mm_cvtsd_f64(lo);
}

float dot_avx2(const float* a, const float* b, std::uint32_t k) noexcept {
  // Two independent accumulator chains hide the 4-5 cycle FMA latency.
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::uint32_t f = 0;
  for (; f + 16 <= k; f += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + f), _mm256_loadu_ps(b + f),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + f + 8),
                           _mm256_loadu_ps(b + f + 8), acc1);
  }
  if (f + 8 <= k) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + f), _mm256_loadu_ps(b + f),
                           acc0);
    f += 8;
  }
  float dot = hsum256(_mm256_add_ps(acc0, acc1));
  for (; f < k; ++f) dot += a[f] * b[f];
  return dot;
}

void score_block_avx2(const float* user, const float* q, std::uint32_t k,
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
    __m256 acc[8];
    for (unsigned j = 0; j < 8; ++j) acc[j] = _mm256_setzero_ps();
    std::uint32_t f = 0;
    for (; f + 8 <= k; f += 8) {
      const __m256 vu = _mm256_loadu_ps(user + f);
      for (unsigned j = 0; j < 8; ++j) {
        acc[j] = _mm256_fmadd_ps(
            vu, _mm256_loadu_ps(rows + static_cast<std::size_t>(j) * k + f),
            acc[j]);
      }
    }
    for (unsigned j = 0; j < 8; ++j) {
      float s = hsum256(acc[j]);
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

void sgd_apply_avx2(float* p, float* q, std::uint32_t k, float err, float lr,
                    float reg_p, float reg_q) noexcept {
  const __m256 verr = _mm256_set1_ps(err);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vreg_p = _mm256_set1_ps(reg_p);
  const __m256 vreg_q = _mm256_set1_ps(reg_q);
  std::uint32_t f = 0;
  for (; f + 8 <= k; f += 8) {
    const __m256 vp = _mm256_loadu_ps(p + f);
    const __m256 vq = _mm256_loadu_ps(q + f);
    // g_p = err*q - reg_p*p ; g_q = err*p_old - reg_q*q
    const __m256 gp = _mm256_fnmadd_ps(vreg_p, vp, _mm256_mul_ps(verr, vq));
    const __m256 gq = _mm256_fnmadd_ps(vreg_q, vq, _mm256_mul_ps(verr, vp));
    _mm256_storeu_ps(p + f, _mm256_fmadd_ps(vlr, gp, vp));
    _mm256_storeu_ps(q + f, _mm256_fmadd_ps(vlr, gq, vq));
  }
  if (f < k) detail::scalar_sgd_apply(p + f, q + f, k - f, err, lr, reg_p,
                                      reg_q);
}

float sgd_update_avx2(float* p, float* q, std::uint32_t k, float r, float lr,
                      float reg_p, float reg_q) noexcept {
  const float err = r - dot_avx2(p, q, k);
  sgd_apply_avx2(p, q, k, err, lr, reg_p, reg_q);
  return err;
}

double sum_squares_avx2(const float* v, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_cvtps_pd(_mm_loadu_ps(v + i));
    const __m256d d1 = _mm256_cvtps_pd(_mm_loadu_ps(v + i + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double sum = hsum256d(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += static_cast<double>(v[i]) * v[i];
  return sum;
}

bool all_finite_avx2(const float* v, std::size_t n) noexcept {
  const __m256i exp_mask = _mm256_set1_epi32(0x7f80'0000);
  __m256i bad = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i exp = _mm256_and_si256(bits, exp_mask);
    bad = _mm256_or_si256(bad, _mm256_cmpeq_epi32(exp, exp_mask));
  }
  if (!_mm256_testz_si256(bad, bad)) return false;
  return detail::scalar_all_finite(v + i, n - i);
}

void fp16_encode_avx2(const float* src, util::Half* dst,
                      std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    const __m128i h =
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  if (i < n) detail::scalar_fp16_encode(src + i, dst + i, n - i);
}

void fp16_decode_avx2(const util::Half* src, float* dst,
                      std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  if (i < n) detail::scalar_fp16_decode(src + i, dst + i, n - i);
}

// --- sub-FP16 quantization (bit-exact vs the scalar references: exact
// compares/multiplies, RNE integer rounding, no FMA anywhere) ---

float absmax_avx2(const float* v, std::size_t n) noexcept {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 m = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m = _mm256_max_ps(m, _mm256_andnot_ps(sign, _mm256_loadu_ps(v + i)));
  }
  __m128 lo = _mm_max_ps(_mm256_castps256_ps128(m),
                         _mm256_extractf128_ps(m, 1));
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  float result = _mm_cvtss_f32(lo);
  for (; i < n; ++i) {
    const float a = std::fabs(v[i]);
    if (a > result) result = a;
  }
  return result;
}

void ef_delta_avx2(const float* src, const float* ref, const float* residual,
                   float* e, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(src + i), _mm256_loadu_ps(ref + i));
    _mm256_storeu_ps(e + i, _mm256_add_ps(d, _mm256_loadu_ps(residual + i)));
  }
  if (i < n) detail::scalar_ef_delta(src + i, ref + i, residual + i, e + i,
                                     n - i);
}

void int8_encode_avx2(const float* e, float inv_scale, std::int8_t* q,
                      std::size_t n) noexcept {
  const __m256 vs = _mm256_set1_ps(inv_scale);
  const __m256i vmax = _mm256_set1_epi32(127);
  const __m256i vmin = _mm256_set1_epi32(-127);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // vcvtps2dq rounds to nearest-even, matching the scalar lrintf.
    __m256i vi =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(e + i), vs));
    vi = _mm256_min_epi32(_mm256_max_epi32(vi, vmin), vmax);
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(vi),
                                      _mm256_extracti128_si256(vi, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                     _mm_packs_epi16(w, w));
  }
  if (i < n) detail::scalar_int8_encode(e + i, inv_scale, q + i, n - i);
}

void int8_commit_avx2(const std::int8_t* q, float scale, const float* e,
                      float* ref, float* residual, float* dst,
                      std::size_t n) noexcept {
  const __m256 vscale = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vi = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q + i)));
    const __m256 dq = _mm256_mul_ps(_mm256_cvtepi32_ps(vi), vscale);
    const __m256 out = _mm256_add_ps(_mm256_loadu_ps(ref + i), dq);
    _mm256_storeu_ps(residual + i,
                     _mm256_sub_ps(_mm256_loadu_ps(e + i), dq));
    _mm256_storeu_ps(ref + i, out);
    _mm256_storeu_ps(dst + i, out);
  }
  if (i < n) detail::scalar_int8_commit(q + i, scale, e + i, ref + i,
                                        residual + i, dst + i, n - i);
}

/// kSpread[x] has bit b of x at even position 2b — the movemask-to-codes
/// interleave (this TU has no BMI2/PDEP; a 256-entry table beats 8 scalar
/// shifts anyway).
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

void two_bit_encode_avx2(const float* e, float threshold,
                         std::uint8_t* packed, std::size_t n) noexcept {
  const __m256 vt = _mm256_set1_ps(threshold);
  const __m256 vnt = _mm256_set1_ps(-threshold);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(e + i);
    const unsigned gt = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, vt, _CMP_GT_OQ)));
    const unsigned lt = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, vnt, _CMP_LT_OQ)));
    // code j = gt_j | (lt_j << 1): interleave the two masks bitwise.
    const std::uint16_t bits = static_cast<std::uint16_t>(
        kSpread[gt] | static_cast<std::uint16_t>(kSpread[lt] << 1));
    packed[i / 4] = static_cast<std::uint8_t>(bits);
    packed[i / 4 + 1] = static_cast<std::uint8_t>(bits >> 8);
  }
  if (i < n) detail::scalar_two_bit_encode(e + i, threshold, packed + i / 4,
                                           n - i);
}

void two_bit_commit_avx2(const std::uint8_t* packed, float threshold,
                         const float* e, float* ref, float* residual,
                         float* dst, std::size_t n) noexcept {
  const __m256 vt = _mm256_set1_ps(threshold);
  const __m256 vnt = _mm256_set1_ps(-threshold);
  const __m256i shifts = _mm256_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14);
  const __m256i three = _mm256_set1_epi32(3);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int bits = packed[i / 4] | (packed[i / 4 + 1] << 8);
    const __m256i codes = _mm256_and_si256(
        _mm256_srlv_epi32(_mm256_set1_epi32(bits), shifts), three);
    const __m256 pos =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(codes, one));
    const __m256 neg =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(codes, two));
    const __m256 dq =
        _mm256_or_ps(_mm256_and_ps(pos, vt), _mm256_and_ps(neg, vnt));
    const __m256 out = _mm256_add_ps(_mm256_loadu_ps(ref + i), dq);
    _mm256_storeu_ps(residual + i,
                     _mm256_sub_ps(_mm256_loadu_ps(e + i), dq));
    _mm256_storeu_ps(ref + i, out);
    _mm256_storeu_ps(dst + i, out);
  }
  if (i < n) {
    detail::scalar_two_bit_commit(packed + i / 4, threshold, e + i, ref + i,
                                  residual + i, dst + i, n - i);
  }
}

}  // namespace

const KernelTable& avx2_kernels() noexcept {
  static const KernelTable table{
      Isa::kAvx2,
      "avx2",
      dot_avx2,
      score_block_avx2,
      sgd_update_avx2,
      sum_squares_avx2,
      all_finite_avx2,
      fp16_encode_avx2,
      fp16_decode_avx2,
      absmax_avx2,
      ef_delta_avx2,
      int8_encode_avx2,
      int8_commit_avx2,
      two_bit_encode_avx2,
      two_bit_commit_avx2,
  };
  return table;
}

}  // namespace hcc::simd
