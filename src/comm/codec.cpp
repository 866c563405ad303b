#include "comm/codec.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "comm/backend.hpp"  // ChecksumError (sparse index-frame mismatch)
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "util/clock.hpp"
#include "util/fp16.hpp"

namespace hcc::comm {

namespace {

/// Codec-level throughput counters (floats through the dispatched FP16
/// kernels); resolved once — registry lookups lock.
obs::Counter& encoded_counter() {
  static obs::Counter& c = obs::registry().counter("simd.fp16_encoded");
  return c;
}

obs::Counter& decoded_counter() {
  static obs::Counter& c = obs::registry().counter("simd.fp16_decoded");
  return c;
}

/// The codec-family metrics every encode/decode feeds (wrapper layer, so
/// all codecs report uniformly): per-call milliseconds and the raw-vs-wire
/// byte totals whose ratio is the achieved compression.
obs::Histogram& encode_ms_hist() {
  static obs::Histogram& h = obs::registry().histogram("comm.codec.encode_ms");
  return h;
}

obs::Histogram& decode_ms_hist() {
  static obs::Histogram& h = obs::registry().histogram("comm.codec.decode_ms");
  return h;
}

obs::Counter& wire_bytes_counter() {
  static obs::Counter& c = obs::registry().counter("comm.codec.wire_bytes");
  return c;
}

obs::Counter& raw_bytes_counter() {
  static obs::Counter& c = obs::registry().counter("comm.codec.raw_bytes");
  return c;
}

}  // namespace

const char* codec_kind_name(CodecKind kind) noexcept {
  switch (kind) {
    case CodecKind::kFp32: return "fp32";
    case CodecKind::kFp16: return "fp16";
    case CodecKind::kInt8: return "int8";
    case CodecKind::kTwoBit: return "2bit";
  }
  return "unknown";
}

bool parse_codec_kind(std::string_view name, CodecKind& out) noexcept {
  for (const CodecKind kind :
       {CodecKind::kFp32, CodecKind::kFp16, CodecKind::kInt8,
        CodecKind::kTwoBit}) {
    if (name == codec_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

void Codec::encode(std::span<const float> src, std::span<std::byte> dst) {
  util::Stopwatch watch;
  encode_impl(src, dst);
  encode_ms_hist().observe(watch.seconds() * 1e3);
  wire_bytes_counter().add(encoded_bytes(src.size()));
  raw_bytes_counter().add(src.size() * sizeof(float));
}

void Codec::decode(std::span<const std::byte> src, std::span<float> dst) {
  util::Stopwatch watch;
  decode_impl(src, dst);
  decode_ms_hist().observe(watch.seconds() * 1e3);
}

void Fp32Codec::encode_impl(std::span<const float> src,
                            std::span<std::byte> dst) {
  assert(dst.size() >= encoded_bytes(src.size()));
  // memcpy needs non-null pointers even for 0 bytes; empty spans may be null.
  if (src.empty()) return;
  std::memcpy(dst.data(), src.data(), src.size() * sizeof(float));
}

void Fp32Codec::decode_impl(std::span<const std::byte> src,
                            std::span<float> dst) {
  assert(src.size() >= encoded_bytes(dst.size()));
  if (dst.empty()) return;
  std::memcpy(dst.data(), src.data(), dst.size() * sizeof(float));
}

Fp16Codec::Fp16Codec(std::size_t threads)
    : pool_(threads >= 2 ? std::make_shared<util::ThreadPool>(threads)
                         : nullptr) {}

void Fp16Codec::encode_impl(std::span<const float> src,
                            std::span<std::byte> dst) {
  assert(dst.size() >= encoded_bytes(src.size()));
  auto* out = reinterpret_cast<util::Half*>(dst.data());
  const auto& kernels = simd::kernels();
  if (pool_ != nullptr && src.size() >= kParallelThreshold) {
    pool_->parallel_for(0, src.size(), [&](std::size_t lo, std::size_t hi) {
      kernels.fp16_encode(src.data() + lo, out + lo, hi - lo);
    });
  } else {
    kernels.fp16_encode(src.data(), out, src.size());
  }
  encoded_counter().add(src.size());
}

void Fp16Codec::decode_impl(std::span<const std::byte> src,
                            std::span<float> dst) {
  assert(src.size() >= encoded_bytes(dst.size()));
  const auto* in = reinterpret_cast<const util::Half*>(src.data());
  const auto& kernels = simd::kernels();
  if (pool_ != nullptr && dst.size() >= kParallelThreshold) {
    pool_->parallel_for(0, dst.size(), [&](std::size_t lo, std::size_t hi) {
      kernels.fp16_decode(in + lo, dst.data() + lo, hi - lo);
    });
  } else {
    kernels.fp16_decode(in, dst.data(), dst.size());
  }
  decoded_counter().add(dst.size());
}

QuantizedCodec::QuantizedCodec(std::size_t block_elems, std::size_t threads)
    : block_elems_(block_elems > 0 ? block_elems : 128),
      pool_(threads >= 2 ? std::make_shared<util::ThreadPool>(threads)
                         : nullptr) {}

std::size_t QuantizedCodec::encoded_bytes(std::size_t n_floats) const {
  if (keyframe(n_floats)) return n_floats * 4;
  const std::size_t full = n_floats / block_elems_;
  const std::size_t rem = n_floats % block_elems_;
  std::size_t bytes = full * (4 + block_payload_bytes(block_elems_));
  if (rem != 0) bytes += 4 + block_payload_bytes(rem);
  return bytes;
}

void QuantizedCodec::reset_state() {
  ref_.clear();
  residual_.clear();
  e_.clear();
}

void QuantizedCodec::for_each_block(
    std::size_t n_floats,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t blocks = block_count(n_floats);
  if (pool_ != nullptr && n_floats >= kParallelThreshold && blocks > 1) {
    pool_->parallel_for(0, blocks, body);
  } else {
    body(0, blocks);
  }
}

void QuantizedCodec::encode_impl(std::span<const float> src,
                                 std::span<std::byte> dst) {
  const std::size_t n = src.size();
  assert(dst.size() >= encoded_bytes(n));
  if (keyframe(n)) {
    // Lossless seed of the stream; state commits at the matching decode.
    std::memcpy(dst.data(), src.data(), n * sizeof(float));
    return;
  }
  // Everything below writes only the scratch delta — a transfer aborted
  // before decode leaves ref/residual untouched and the retry re-encodes
  // byte-identical wire.
  if (e_.size() != n) e_.resize(n);
  const auto& kernels = simd::kernels();
  for_each_block(n, [&](std::size_t lo_block, std::size_t hi_block) {
    const std::size_t lo = lo_block * block_elems_;
    const std::size_t hi = std::min(n, hi_block * block_elems_);
    kernels.ef_delta(src.data() + lo, ref_.data() + lo, residual_.data() + lo,
                     e_.data() + lo, hi - lo);
    for (std::size_t b = lo_block; b < hi_block; ++b) {
      const std::size_t off = b * block_elems_;
      const std::size_t elems = std::min(block_elems_, n - off);
      encode_block(e_.data() + off, elems, dst.data() + block_offset(b));
    }
  });
}

void QuantizedCodec::decode_impl(std::span<const std::byte> src,
                                 std::span<float> dst) {
  const std::size_t n = dst.size();
  assert(src.size() >= encoded_bytes(n));
  if (keyframe(n)) {
    std::memcpy(dst.data(), src.data(), n * sizeof(float));
    // Commit: the received keyframe becomes the shared reference, the
    // residual starts clean, and the scratch is pre-sized for steady state.
    ref_.assign(dst.begin(), dst.end());
    residual_.assign(n, 0.0f);
    e_.assign(n, 0.0f);
    return;
  }
  assert(e_.size() == n && "decode without a matching encode");
  for_each_block(n, [&](std::size_t lo_block, std::size_t hi_block) {
    for (std::size_t b = lo_block; b < hi_block; ++b) {
      const std::size_t off = b * block_elems_;
      const std::size_t elems = std::min(block_elems_, n - off);
      decode_block(src.data() + block_offset(b), elems, e_.data() + off,
                   ref_.data() + off, residual_.data() + off,
                   dst.data() + off);
    }
  });
}

void Int8Codec::encode_block(const float* e, std::size_t elems,
                             std::byte* out) {
  const auto& kernels = simd::kernels();
  const float s = kernels.absmax(e, elems);
  // The wire carries the dequantization step directly so both ends use the
  // exact same float; the encoder's inverse is computed from s once.
  const float step = s / 127.0f;
  const float inv = s > 0.0f ? 127.0f / s : 0.0f;
  std::memcpy(out, &step, 4);
  kernels.int8_encode(e, inv, reinterpret_cast<std::int8_t*>(out + 4), elems);
}

void Int8Codec::decode_block(const std::byte* in, std::size_t elems,
                             const float* e, float* ref, float* residual,
                             float* dst) {
  float step = 0.0f;
  std::memcpy(&step, in, 4);
  simd::kernels().int8_commit(reinterpret_cast<const std::int8_t*>(in + 4),
                              step, e, ref, residual, dst, elems);
}

void TwoBitCodec::encode_block(const float* e, std::size_t elems,
                               std::byte* out) {
  const auto& kernels = simd::kernels();
  // t = absmax/2 splits the block's range into thirds of influence: values
  // beyond +/-t move the reference by +/-t, the rest feed the residual.
  const float threshold = 0.5f * kernels.absmax(e, elems);
  std::memcpy(out, &threshold, 4);
  kernels.two_bit_encode(e, threshold,
                         reinterpret_cast<std::uint8_t*>(out + 4), elems);
}

SparseIndexedCodec::SparseIndexedCodec(std::unique_ptr<Codec> inner,
                                       std::size_t row_elems)
    : inner_(std::move(inner)), row_elems_(row_elems > 0 ? row_elems : 1) {
  assert(inner_ != nullptr);
}

std::size_t SparseIndexedCodec::encoded_bytes(std::size_t n_floats) const {
  assert(n_floats % row_elems_ == 0 && "packed payload must be whole rows");
  return header_bytes(n_floats / row_elems_) + inner_->encoded_bytes(n_floats);
}

void SparseIndexedCodec::encode_impl(std::span<const float> src,
                                     std::span<std::byte> dst) {
  const std::size_t rows = src.size() / row_elems_;
  assert(rows == rows_.size() && "set_rows() out of sync with the payload");
  assert(dst.size() >= encoded_bytes(src.size()));
  const std::uint32_t count = static_cast<std::uint32_t>(rows);
  std::memcpy(dst.data(), &count, 4);
  if (rows > 0) {
    std::memcpy(dst.data() + 4, rows_.data(), 4 * rows);
  }
  delegate_encode(*inner_, src, dst.subspan(header_bytes(rows)));
}

void SparseIndexedCodec::decode_impl(std::span<const std::byte> src,
                                     std::span<float> dst) {
  const std::size_t rows = dst.size() / row_elems_;
  assert(src.size() >= encoded_bytes(dst.size()));
  std::uint32_t count = 0;
  std::memcpy(&count, src.data(), 4);
  // A header that disagrees with the receiver's expected row set means the
  // packed slots would scatter to the wrong Q rows; discard before the
  // inner codec commits, like a payload checksum failure.
  if (count != rows ||
      (rows > 0 && std::memcmp(src.data() + 4, rows_.data(), 4 * rows) != 0)) {
    throw ChecksumError(name() + " row index frame");
  }
  delegate_decode(*inner_, src.subspan(header_bytes(rows)), dst);
}

void TwoBitCodec::decode_block(const std::byte* in, std::size_t elems,
                               const float* e, float* ref, float* residual,
                               float* dst) {
  float threshold = 0.0f;
  std::memcpy(&threshold, in, 4);
  simd::kernels().two_bit_commit(reinterpret_cast<const std::uint8_t*>(in + 4),
                                 threshold, e, ref, residual, dst, elems);
}

}  // namespace hcc::comm
