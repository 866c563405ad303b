// Tests for the wire codecs.
#include "comm/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace hcc::comm {
namespace {

std::vector<float> random_features(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  // Feature values live around sqrt(rating/k): small positive magnitudes.
  for (auto& x : v) x = static_cast<float>(rng.normal(0.15, 0.1));
  return v;
}

TEST(Fp32Codec, IsLossless) {
  Fp32Codec codec;
  const auto src = random_features(1000, 1);
  EXPECT_EQ(codec.encoded_bytes(1000), 4000u);
  std::vector<std::byte> wire(codec.encoded_bytes(src.size()));
  std::vector<float> out(src.size());
  codec.encode(src, wire);
  codec.decode(wire, out);
  EXPECT_EQ(out, src);
  EXPECT_EQ(codec.name(), "fp32");
}

TEST(Fp16Codec, HalvesWireBytes) {
  Fp16Codec codec;
  EXPECT_EQ(codec.encoded_bytes(1000), 2000u);
  EXPECT_EQ(codec.name(), "fp16");
}

TEST(Fp16Codec, RoundTripWithinHalfUlp) {
  Fp16Codec codec;
  const auto src = random_features(4096, 2);
  std::vector<std::byte> wire(codec.encoded_bytes(src.size()));
  std::vector<float> out(src.size());
  codec.encode(src, wire);
  codec.decode(wire, out);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const float tolerance =
        std::max(std::abs(src[i]) * util::kFp16RelativeError,
                 util::kFp16MinNormal);
    EXPECT_NEAR(out[i], src[i], tolerance) << "index " << i;
  }
}

TEST(Fp16Codec, MatchesScalarReference) {
  Fp16Codec codec;
  const std::vector<float> src{0.1f, -2.5f, 1000.0f, 1e-6f};
  std::vector<std::byte> wire(codec.encoded_bytes(src.size()));
  std::vector<float> out(src.size());
  codec.encode(src, wire);
  codec.decode(wire, out);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(out[i], util::fp16_to_float(util::float_to_fp16(src[i])));
  }
}

TEST(Fp16Codec, ThreadedConversionMatchesInlineBitExactly) {
  // A batch above kParallelThreshold makes the threaded codec slice the
  // range across its pool; the wire bytes must not depend on that.
  const std::size_t n = Fp16Codec::kParallelThreshold * 3 + 17;
  const auto src = random_features(n, 3);
  Fp16Codec inline_codec(0);
  Fp16Codec threaded_codec(4);
  std::vector<std::byte> wire_inline(inline_codec.encoded_bytes(n));
  std::vector<std::byte> wire_threaded(threaded_codec.encoded_bytes(n));
  inline_codec.encode(src, wire_inline);
  threaded_codec.encode(src, wire_threaded);
  EXPECT_EQ(wire_inline, wire_threaded);

  std::vector<float> out_inline(n);
  std::vector<float> out_threaded(n);
  inline_codec.decode(wire_inline, out_inline);
  threaded_codec.decode(wire_inline, out_threaded);
  EXPECT_EQ(out_inline, out_threaded);
}

TEST(Fp16Codec, ThreadedCodecHandlesSmallBatches) {
  // Below the threshold the pool is bypassed; above it every tail length
  // must still decode to the same floats.
  Fp16Codec threaded_codec(3);
  for (const std::size_t n : {std::size_t{1}, std::size_t{100},
                              Fp16Codec::kParallelThreshold - 1,
                              Fp16Codec::kParallelThreshold,
                              Fp16Codec::kParallelThreshold + 1}) {
    const auto src = random_features(n, 4);
    std::vector<std::byte> wire(threaded_codec.encoded_bytes(n));
    std::vector<float> out(n);
    threaded_codec.encode(src, wire);
    threaded_codec.decode(wire, out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], util::fp16_to_float(util::float_to_fp16(src[i])))
          << "n=" << n << " i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Error-feedback quantized codecs (int8 / 2-bit).
// ---------------------------------------------------------------------------

std::vector<float> roundtrip(Codec& codec, const std::vector<float>& src) {
  std::vector<std::byte> wire(codec.encoded_bytes(src.size()));
  std::vector<float> out(src.size());
  codec.encode(src, wire);
  codec.decode(wire, out);
  return out;
}

TEST(QuantizedCodec, NamesAndKindsParse) {
  EXPECT_EQ(Int8Codec().name(), "int8");
  EXPECT_EQ(TwoBitCodec().name(), "2bit");
  CodecKind kind = CodecKind::kInt8;
  EXPECT_TRUE(parse_codec_kind("fp32", kind));
  EXPECT_EQ(kind, CodecKind::kFp32);
  EXPECT_TRUE(parse_codec_kind("fp16", kind));
  EXPECT_EQ(kind, CodecKind::kFp16);
  EXPECT_TRUE(parse_codec_kind("int8", kind));
  EXPECT_EQ(kind, CodecKind::kInt8);
  EXPECT_TRUE(parse_codec_kind("2bit", kind));
  EXPECT_EQ(kind, CodecKind::kTwoBit);
  // fp16 is the default, not an "auto" resolution; a failed parse leaves
  // the output alone.
  EXPECT_FALSE(parse_codec_kind("auto", kind));
  EXPECT_FALSE(parse_codec_kind("mp3", kind));
  EXPECT_EQ(kind, CodecKind::kTwoBit);
}

TEST(QuantizedCodec, FirstTransferIsALosslessKeyframe) {
  for (const bool two_bit : {false, true}) {
    std::unique_ptr<Codec> codec;
    if (two_bit) {
      codec = std::make_unique<TwoBitCodec>(128);
    } else {
      codec = std::make_unique<Int8Codec>(128);
    }
    const auto src = random_features(1000, 5);
    // A fresh stream prices the keyframe at full fp32 width...
    EXPECT_EQ(codec->encoded_bytes(src.size()), src.size() * 4);
    // ...and delivers it bit-exactly.
    EXPECT_EQ(roundtrip(*codec, src), src);
    // Steady state then switches to the compressed layout.
    EXPECT_LT(codec->encoded_bytes(src.size()), src.size() * 2);
  }
}

TEST(QuantizedCodec, SteadyStateCompressionRatiosBeatTargets) {
  const std::size_t n = 128 * 64;
  Int8Codec int8(128);
  TwoBitCodec two_bit(128);
  const auto src = random_features(n, 6);
  roundtrip(int8, src);     // consume the keyframe
  roundtrip(two_bit, src);
  const double raw = static_cast<double>(n) * 4.0;
  EXPECT_GE(raw / static_cast<double>(int8.encoded_bytes(n)), 3.5);
  EXPECT_GE(raw / static_cast<double>(two_bit.encoded_bytes(n)), 8.0);
}

TEST(QuantizedCodec, ErrorFeedbackConvergesOnRepeatedPushes) {
  // Pushing the same source repeatedly must drive the decoded value to the
  // source: whatever one round's quantizer drops, the residual replays on
  // the next.  This is the error-feedback contract that keeps training
  // convergence intact at 2 bits per weight.
  for (const bool two_bit : {false, true}) {
    std::unique_ptr<Codec> codec;
    if (two_bit) {
      codec = std::make_unique<TwoBitCodec>(32);
    } else {
      codec = std::make_unique<Int8Codec>(32);
    }
    const auto src = random_features(512, 7);
    std::vector<float> out = roundtrip(*codec, src);  // keyframe: exact
    double worst = 0.0;
    for (int round = 0; round < 50; ++round) {
      out = roundtrip(*codec, src);
      worst = 0.0;
      for (std::size_t i = 0; i < src.size(); ++i) {
        worst = std::max(worst, std::abs(double{out[i]} - double{src[i]}));
      }
    }
    EXPECT_LT(worst, 1e-3) << (two_bit ? "2bit" : "int8");
  }
}

TEST(QuantizedCodec, TracksADriftingStream) {
  // A slowly drifting source (what feature rows actually do between epochs)
  // must stay close through compressed transfers; unbounded error growth
  // here would sink RMSE.
  TwoBitCodec codec(64);
  auto src = random_features(1024, 8);
  std::vector<float> out = roundtrip(codec, src);  // keyframe
  util::Rng rng(9);
  for (int round = 0; round < 100; ++round) {
    for (auto& x : src) x += static_cast<float>(rng.normal(0.0, 0.002));
    out = roundtrip(codec, src);
  }
  double err = 0.0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    err = std::max(err, std::abs(double{out[i]} - double{src[i]}));
  }
  // One round of quantization error, not 100 accumulated rounds.
  EXPECT_LT(err, 0.05);
}

TEST(QuantizedCodec, ReEncodeBeforeDecodeIsByteIdentical) {
  // transfer_with_retry re-encodes after a checksum failure; because state
  // commits at decode, the retry must produce the same wire bytes.
  Int8Codec codec(128);
  const auto src = random_features(640, 10);
  roundtrip(codec, src);  // keyframe
  const auto src2 = random_features(640, 11);
  std::vector<std::byte> wire_a(codec.encoded_bytes(src2.size()));
  std::vector<std::byte> wire_b(wire_a.size());
  codec.encode(src2, wire_a);
  codec.encode(src2, wire_b);  // simulated retry: no decode in between
  EXPECT_EQ(wire_a, wire_b);
  std::vector<float> out(src2.size());
  codec.decode(wire_b, out);
  SUCCEED();
}

TEST(QuantizedCodec, ResetStateForcesAFreshKeyframe) {
  Int8Codec codec(128);
  const auto src = random_features(256, 12);
  roundtrip(codec, src);
  EXPECT_LT(codec.encoded_bytes(src.size()), src.size() * 4);
  codec.reset_state();  // repartition: the peer rebuilt its model copy
  EXPECT_EQ(codec.encoded_bytes(src.size()), src.size() * 4);
  EXPECT_EQ(roundtrip(codec, src), src);
}

TEST(QuantizedCodec, SizeChangeForcesAFreshKeyframe) {
  TwoBitCodec codec(128);
  roundtrip(codec, random_features(256, 13));
  const auto bigger = random_features(512, 14);
  EXPECT_EQ(codec.encoded_bytes(bigger.size()), bigger.size() * 4);
  EXPECT_EQ(roundtrip(codec, bigger), bigger);
}

TEST(QuantizedCodec, ThreadedSlicingMatchesInlineBitExactly) {
  // Blocks are independent (one scale each), so pool slicing at block
  // granularity must not change a single wire byte or decoded float.
  const std::size_t n = Fp16Codec::kParallelThreshold * 2 + 128 * 3 + 5;
  const auto key = random_features(n, 15);
  const auto src = random_features(n, 16);
  for (const bool two_bit : {false, true}) {
    std::unique_ptr<Codec> inline_codec;
    std::unique_ptr<Codec> threaded_codec;
    if (two_bit) {
      inline_codec = std::make_unique<TwoBitCodec>(128, 0);
      threaded_codec = std::make_unique<TwoBitCodec>(128, 4);
    } else {
      inline_codec = std::make_unique<Int8Codec>(128, 0);
      threaded_codec = std::make_unique<Int8Codec>(128, 4);
    }
    EXPECT_EQ(roundtrip(*inline_codec, key), roundtrip(*threaded_codec, key));
    std::vector<std::byte> wire_inline(inline_codec->encoded_bytes(n));
    std::vector<std::byte> wire_threaded(threaded_codec->encoded_bytes(n));
    inline_codec->encode(src, wire_inline);
    threaded_codec->encode(src, wire_threaded);
    EXPECT_EQ(wire_inline, wire_threaded) << (two_bit ? "2bit" : "int8");
    std::vector<float> out_inline(n);
    std::vector<float> out_threaded(n);
    inline_codec->decode(wire_inline, out_inline);
    threaded_codec->decode(wire_threaded, out_threaded);
    EXPECT_EQ(out_inline, out_threaded) << (two_bit ? "2bit" : "int8");
  }
}

TEST(QuantizedCodec, StatefulnessIsAdvertised) {
  EXPECT_FALSE(Fp32Codec().stateful());
  EXPECT_FALSE(Fp16Codec().stateful());
  EXPECT_TRUE(Int8Codec().stateful());
  EXPECT_TRUE(TwoBitCodec().stateful());
}

TEST(Codecs, EmptyPayloadIsFine) {
  Fp16Codec fp16;
  Fp32Codec fp32;
  std::vector<float> empty;
  std::vector<std::byte> wire;
  fp16.encode(empty, wire);
  fp32.encode(empty, wire);
  fp16.decode(wire, empty);
  fp32.decode(wire, empty);
  SUCCEED();
}

}  // namespace
}  // namespace hcc::comm
