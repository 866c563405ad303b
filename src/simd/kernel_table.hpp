// The per-ISA kernel table: one function pointer per hot loop.
//
// The paper's CPU-side numbers come from hand-vectorized kernels (footnote 1:
// SSE/AVX/AVX512F vectorization of the FPSGD update kernel, 1.8-2.3x; Section
// 3.4's FP16 wire codec "with AVX intrinsics").  Each supported ISA provides
// one KernelTable, compiled in its own translation unit with per-file target
// flags so the rest of the binary stays portable; simd::kernels() resolves
// the best table once at startup (see dispatch.hpp).
//
// Contract for every entry:
//  - identical semantics to the scalar reference up to floating-point
//    reassociation (tests bound the divergence in ULPs), except the FP16
//    codec entries, which must match the scalar codec in util/fp16.hpp
//    BIT-EXACTLY (round-to-nearest-even, gradual underflow, overflow to
//    +/-inf, NaN payload top bits preserved, quiet bit forced);
//  - no alignment requirement on any pointer (unaligned loads/stores);
//  - remainder tails handled internally: every length n / rank k is legal.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/fp16.hpp"

namespace hcc::simd {

/// Instruction-set architectures a kernel table can target, ordered by
/// preference within their platform.  The numeric values are stable: the
/// obs gauge `simd.isa` reports them (0=scalar, 1=neon, 2=avx2, 3=avx512).
enum class Isa : int {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Lower-case stable name ("scalar", "neon", "avx2", "avx512").
const char* isa_name(Isa isa) noexcept;

/// One resolved backend: every hot loop the library dispatches.
struct KernelTable {
  Isa isa = Isa::kScalar;
  /// Same string as isa_name(isa); kept in the table so call sites can
  /// report the backend without another lookup.
  const char* name = "scalar";

  /// dot(a, b) over k floats.
  float (*dot)(const float* a, const float* b, std::uint32_t k) noexcept =
      nullptr;

  /// Batched serving scorer: scores[i] = dot(user, q + i*k) for n_items
  /// contiguous k-float rows of Q (the serve/ top-K hot loop).  `skip_bits`
  /// is an optional bitset (bit i%8 of skip_bits[i/8]; nullptr = none):
  /// masked items are written as -inf without being scored, which fuses the
  /// seen-item filter into the scan.  Per-item sums follow the same
  /// reassociation latitude as `dot` (tests bound the divergence in ULPs);
  /// the vector backends score 8 items per pass with one accumulator each
  /// so the user row is loaded once per feature chunk.
  void (*score_block)(const float* user, const float* q, std::uint32_t k,
                      std::uint32_t n_items, const std::uint8_t* skip_bits,
                      float* scores) noexcept = nullptr;

  /// One SGD step (the Figure 1 recurrence; see mf::sgd_update).  Returns
  /// the pre-update error r - <p, q>.
  float (*sgd_update)(float* p, float* q, std::uint32_t k, float r, float lr,
                      float reg_p, float reg_q) noexcept = nullptr;

  /// sum(v[i]^2) accumulated in double (objective's regularizer norms).
  double (*sum_squares)(const float* v, std::size_t n) noexcept = nullptr;

  /// True iff every value is finite.  Implemented with integer exponent
  /// tests, so it stays correct under -ffast-math-style flags (a NaN/Inf
  /// arithmetic trick would be UB-adjacent there).
  bool (*all_finite)(const float* v, std::size_t n) noexcept = nullptr;

  /// Batch binary32 -> binary16, bit-exact vs util::float_to_fp16.
  void (*fp16_encode)(const float* src, util::Half* dst,
                      std::size_t n) noexcept = nullptr;

  /// Batch binary16 -> binary32, bit-exact vs util::fp16_to_float.
  void (*fp16_decode)(const util::Half* src, float* dst,
                      std::size_t n) noexcept = nullptr;

  // --- sub-FP16 quantization (error-feedback codecs, comm/codec.hpp) ---
  // Bit-exactness contract for this group: every entry must match the
  // scalar reference EXACTLY (not just within ULPs).  The comparisons and
  // multiplies below are individually exact-roundable, the integer rounding
  // is round-to-nearest-even on both paths (std::lrintf under the default
  // rounding mode == vcvtps2dq), and none of them may use FMA — so the
  // scalar and vector kernels produce identical wire bytes and identical
  // residual state, which the cross-ISA parity tests assert.

  /// max(|v[i]|) over n floats; 0 for n == 0.  The quantizer's scale probe.
  float (*absmax)(const float* v, std::size_t n) noexcept = nullptr;

  /// e[i] = (src[i] - ref[i]) + residual[i]: the error-feedback delta the
  /// quantizers encode (evaluated in exactly that association).
  void (*ef_delta)(const float* src, const float* ref, const float* residual,
                   float* e, std::size_t n) noexcept = nullptr;

  /// q[i] = clamp(rne(e[i] * inv_scale), -127, 127).
  void (*int8_encode)(const float* e, float inv_scale, std::int8_t* q,
                      std::size_t n) noexcept = nullptr;

  /// The int8 decode-commit: dq = q[i]*scale; dst[i] = ref[i] + dq;
  /// residual[i] = e[i] - dq; ref[i] = dst[i].  `e` is the encoder-side
  /// delta scratch (encoder and decoder share one codec instance here).
  void (*int8_commit)(const std::int8_t* q, float scale, const float* e,
                      float* ref, float* residual, float* dst,
                      std::size_t n) noexcept = nullptr;

  /// 2-bit threshold codes, 4 per byte, little-endian within the byte
  /// (element j of a byte occupies bits [2j, 2j+2)): 0 -> 0, 1 -> +t,
  /// 2 -> -t, where code(e) = e > t ? 1 : (e < -t ? 2 : 0).  The tail of a
  /// partial byte is zero-filled.
  void (*two_bit_encode)(const float* e, float threshold, std::uint8_t* packed,
                         std::size_t n) noexcept = nullptr;

  /// The 2-bit decode-commit (same state update as int8_commit with
  /// dq in {-t, 0, +t}).
  void (*two_bit_commit)(const std::uint8_t* packed, float threshold,
                         const float* e, float* ref, float* residual,
                         float* dst, std::size_t n) noexcept = nullptr;
};

}  // namespace hcc::simd
