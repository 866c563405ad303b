// Wire codecs for feature-matrix transfers.
//
// Strategy 2 of Section 3.4: feature matrices do not need binary32 precision
// to represent coarse rating scales, so COMM can compress them on the wire.
// Fp32Codec is the pass-through; Fp16Codec halves the wire bytes at the cost
// of one rounding per value.  The paper implements the conversion "with AVX
// intrinsics, multi-threaded": every codec converts through the
// runtime-dispatched SIMD backend (src/simd/) and can slice large batches
// across an internal util::ThreadPool.
//
// Below FP16 the rounding error is no longer convergence-neutral, so the
// sub-FP16 codecs (Int8Codec, TwoBitCodec) are *error-feedback* delta
// coders in the TernGrad / mxnet two_bit_quantize tradition: the encoder
// quantizes (src - ref) + residual against an internal reference tracking
// the decoded stream, and whatever the grid could not represent accumulates
// in the residual and replays on the next transfer.  That makes them
// stateful per link direction — each (worker, direction) needs its own
// instance, and the same instance must see both ends of a transfer (true
// for every backend here: encode and decode happen inside one transfer()).
//
// State commits only at decode: encode() writes nothing but the scratch
// delta, so a transfer aborted between encode and decode (checksum failure,
// chaos-link replay) leaves the codec unchanged and the retry re-encodes
// byte-identically.  The first transfer of a stream — and the first after
// reset_state() or a size change — is a lossless binary32 keyframe that
// seeds the reference; encoded_bytes() reflects the mode, so callers that
// size wire buffers per transfer stay correct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_pool.hpp"

namespace hcc::comm {

/// The wire-codec family (CommConfig::codec).  The values start at 1 and
/// stay fixed: parameterized test names print them.
enum class CodecKind {
  kFp32 = 1,
  kFp16,
  kInt8,    ///< error-feedback int8, per-row absmax scales (~4x)
  kTwoBit,  ///< error-feedback {-t, 0, +t} threshold codes (~16x)
};

/// Stable lower-case name ("fp32", "fp16", "int8", "2bit").
const char* codec_kind_name(CodecKind kind) noexcept;

/// Parses a codec_kind_name; false on no match.
bool parse_codec_kind(std::string_view name, CodecKind& out) noexcept;

/// Encodes/decodes a float array to/from wire bytes.  The public
/// encode/decode are non-virtual wrappers that feed the process-wide
/// comm.codec.{encode_ms,decode_ms,wire_bytes,raw_bytes} metrics around the
/// virtual implementations.  Stateless codecs are thread-compatible;
/// stateful() codecs must be confined to one link direction (their owner's
/// transfer sequence provides the happens-before).
class Codec {
 public:
  virtual ~Codec() = default;

  /// Bytes needed on the wire for `n_floats` values *now* — stateful codecs
  /// answer for the upcoming transfer (keyframe vs steady state).
  virtual std::size_t encoded_bytes(std::size_t n_floats) const = 0;

  /// Encodes src into dst; dst.size() must be >= encoded_bytes(src.size()).
  void encode(std::span<const float> src, std::span<std::byte> dst);

  /// Decodes exactly dst.size() floats from src.  For stateful codecs this
  /// is also the commit point: reference and residual update here, never in
  /// encode().
  void decode(std::span<const std::byte> src, std::span<float> dst);

  virtual std::string name() const = 0;

  /// True when the codec carries per-stream state (error feedback).
  virtual bool stateful() const noexcept { return false; }

  /// Drops all stream state; the next transfer is a keyframe.  Call when
  /// the transported array changes meaning (e.g. a repartition reshuffles
  /// the sparse packed layout).  No-op for stateless codecs.
  virtual void reset_state() {}

 protected:
  virtual void encode_impl(std::span<const float> src,
                           std::span<std::byte> dst) = 0;
  virtual void decode_impl(std::span<const std::byte> src,
                           std::span<float> dst) = 0;

  /// Bridges for adapter codecs (SparseIndexedCodec): invoke another
  /// codec's raw implementation without re-entering the metric-feeding
  /// public wrappers, so a wrapped transfer is counted exactly once.
  static void delegate_encode(Codec& inner, std::span<const float> src,
                              std::span<std::byte> dst) {
    inner.encode_impl(src, dst);
  }
  static void delegate_decode(Codec& inner, std::span<const std::byte> src,
                              std::span<float> dst) {
    inner.decode_impl(src, dst);
  }
};

/// Pass-through binary32 codec (memcpy on the wire).
class Fp32Codec final : public Codec {
 public:
  std::size_t encoded_bytes(std::size_t n_floats) const override {
    return n_floats * 4;
  }
  std::string name() const override { return "fp32"; }

 protected:
  void encode_impl(std::span<const float> src,
                   std::span<std::byte> dst) override;
  void decode_impl(std::span<const std::byte> src,
                   std::span<float> dst) override;
};

/// Binary16 codec (Strategy 2).  Values round to nearest-even; the relative
/// error bound util::kFp16RelativeError is what the convergence tests check
/// training tolerates.  Conversion runs on the dispatched SIMD kernels
/// (F16C / AVX-512 vcvtps2ph/vcvtph2ps, NEON fcvt, scalar fallback), which
/// are bit-exact against the scalar codec in util/fp16.hpp.
class Fp16Codec final : public Codec {
 public:
  /// `threads` >= 2 spawns an internal pool that slices batches above
  /// kParallelThreshold floats across that many workers (the paper's
  /// "multi-threaded" variant); 0 or 1 converts inline on the caller.
  explicit Fp16Codec(std::size_t threads = 0);

  std::size_t encoded_bytes(std::size_t n_floats) const override {
    return n_floats * 2;
  }
  std::string name() const override { return "fp16"; }

  /// Batches below this many floats always convert inline: the pool's
  /// wake/join round trip costs more than the conversion itself.
  static constexpr std::size_t kParallelThreshold = 1u << 15;

 protected:
  void encode_impl(std::span<const float> src,
                   std::span<std::byte> dst) override;
  void decode_impl(std::span<const std::byte> src,
                   std::span<float> dst) override;

 private:
  std::shared_ptr<util::ThreadPool> pool_;  ///< null = inline conversion
};

/// Shared machinery of the error-feedback quantizers: keyframe/steady-state
/// framing, the (src - ref) + residual delta, per-block absmax scales, and
/// block-granular slicing across the codec thread pool.  Blocks are
/// independent (one scale each), so the threaded and inline variants
/// produce identical wire bytes.
///
/// Steady-state wire layout, for n floats in blocks of block_elems:
///   [float scale_0][payload_0][float scale_1][payload_1]...
/// where payload_i is the subclass's quantized block (the last block may be
/// shorter).  Keyframes are raw binary32 (4n bytes), distinguished by state,
/// not by a wire flag: both ends share one instance, so both agree.
class QuantizedCodec : public Codec {
 public:
  std::size_t encoded_bytes(std::size_t n_floats) const override;
  bool stateful() const noexcept override { return true; }
  void reset_state() override;

  std::size_t block_elems() const noexcept { return block_elems_; }

  /// Same inline-below threshold as Fp16Codec (here in blocks x elems).
  static constexpr std::size_t kParallelThreshold =
      Fp16Codec::kParallelThreshold;

 protected:
  /// `block_elems` is the scale granularity — the factor rank k when known
  /// (one scale per Q row); `threads` as in Fp16Codec.
  QuantizedCodec(std::size_t block_elems, std::size_t threads);

  void encode_impl(std::span<const float> src,
                   std::span<std::byte> dst) final;
  void decode_impl(std::span<const std::byte> src, std::span<float> dst) final;

  /// Payload bytes (excluding the 4-byte scale) for a block of `elems`.
  virtual std::size_t block_payload_bytes(std::size_t elems) const = 0;
  /// Quantizes block `e[0, elems)` into out = [scale][payload].
  virtual void encode_block(const float* e, std::size_t elems,
                            std::byte* out) = 0;
  /// Dequantizes a block and commits: dst = ref + dq, residual = e - dq,
  /// ref = dst (see the KernelTable *_commit contract).
  virtual void decode_block(const std::byte* in, std::size_t elems,
                            const float* e, float* ref, float* residual,
                            float* dst) = 0;

 private:
  bool keyframe(std::size_t n_floats) const noexcept {
    return ref_.size() != n_floats;
  }
  std::size_t block_count(std::size_t n_floats) const noexcept {
    return (n_floats + block_elems_ - 1) / block_elems_;
  }
  /// Byte offset of block `b` in the steady-state wire.
  std::size_t block_offset(std::size_t b) const noexcept {
    return b * (4 + block_payload_bytes(block_elems_));
  }
  void for_each_block(std::size_t n_floats,
                      const std::function<void(std::size_t lo_block,
                                               std::size_t hi_block)>& body);

  std::size_t block_elems_;
  std::shared_ptr<util::ThreadPool> pool_;  ///< null = inline conversion
  std::vector<float> ref_;       ///< decoded-stream reference (both ends)
  std::vector<float> residual_;  ///< error feedback, replayed next encode
  std::vector<float> e_;         ///< encode-side delta scratch
};

/// Error-feedback int8: per-block absmax scales, 1 byte per value
/// (~(4 + 1/B)x under fp32 at block size B; 3.88x at the default k = 128).
class Int8Codec final : public QuantizedCodec {
 public:
  explicit Int8Codec(std::size_t block_elems = 128, std::size_t threads = 0)
      : QuantizedCodec(block_elems, threads) {}
  std::string name() const override { return "int8"; }

 protected:
  std::size_t block_payload_bytes(std::size_t elems) const override {
    return elems;
  }
  void encode_block(const float* e, std::size_t elems,
                    std::byte* out) override;
  void decode_block(const std::byte* in, std::size_t elems, const float* e,
                    float* ref, float* residual, float* dst) override;
};

/// Sparse-aware framing for the quantized sparse push path ("Strategy 4"
/// meets the sub-FP16 codecs): the packed value block rides the inner
/// error-feedback codec unchanged, and the wire additionally carries the
/// row-index list that gives the packed slots meaning on a real link.
///
/// Wire layout:  [u32 row_count][u32 index x row_count][inner wire bytes].
/// The indices are raw (uncompressed) — they are 4/(4k) of the fp32 payload
/// at rank k, exactly the `4 x touched(n)` term the cost model already
/// bills for sparse transfers.  The decoder verifies the received header
/// against the expected row set before letting the inner codec commit;
/// a mismatch throws (the packed slots would be scattered to the wrong Q
/// rows), surfacing like a checksum failure so the retry machinery takes
/// over.
///
/// Statefulness forwards to the inner codec: reset_state() re-keyframes it,
/// and encode writes nothing but the inner scratch, so aborted transfers
/// retry byte-identically — indices included, since set_rows is the
/// caller's and unchanged across a retry.
class SparseIndexedCodec final : public Codec {
 public:
  /// `row_elems` is the packed row width (the factor rank k); n_floats must
  /// always be rows * row_elems.
  SparseIndexedCodec(std::unique_ptr<Codec> inner, std::size_t row_elems);

  /// Sets the row-index list for subsequent transfers (the worker's touched
  /// set, or one chunk's slice of it).  The span must stay valid across the
  /// transfer; it is re-armed per epoch by the owner.
  void set_rows(std::span<const std::uint32_t> rows) { rows_ = rows; }

  std::size_t encoded_bytes(std::size_t n_floats) const override;
  std::string name() const override { return "sparse+" + inner_->name(); }
  bool stateful() const noexcept override { return inner_->stateful(); }
  void reset_state() override { inner_->reset_state(); }

  /// Header bytes preceding the inner payload for `rows` packed rows.
  static std::size_t header_bytes(std::size_t rows) { return 4 + 4 * rows; }

 protected:
  void encode_impl(std::span<const float> src,
                   std::span<std::byte> dst) override;
  void decode_impl(std::span<const std::byte> src,
                   std::span<float> dst) override;

 private:
  std::unique_ptr<Codec> inner_;
  std::size_t row_elems_;
  std::span<const std::uint32_t> rows_;
};

/// Error-feedback 2-bit threshold codec: values quantize to {-t, 0, +t}
/// with t = absmax/2 per block, 4 codes per byte (~14x under fp32 at
/// k = 128).  Convergence leans entirely on the residual replay.
///
/// This is an *update* codec: the trainers apply it to the push stream
/// only and pull parameters at fp16 (see comm::pull_codec_kind) — a
/// ternarized parameter broadcast stalls convergence, ternarized updates
/// do not.
class TwoBitCodec final : public QuantizedCodec {
 public:
  explicit TwoBitCodec(std::size_t block_elems = 128, std::size_t threads = 0)
      : QuantizedCodec(block_elems, threads) {}
  std::string name() const override { return "2bit"; }

 protected:
  std::size_t block_payload_bytes(std::size_t elems) const override {
    return (elems + 3) / 4;
  }
  void encode_block(const float* e, std::size_t elems,
                    std::byte* out) override;
  void decode_block(const std::byte* in, std::size_t elems, const float* e,
                    float* ref, float* residual, float* dst) override;
};

}  // namespace hcc::comm
