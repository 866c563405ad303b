// Cross-ISA parity suite: every compiled-in kernel table is checked against
// the scalar reference table.
//
// The FP16 codec entries must match BIT-EXACTLY (the scalar codec in
// util/fp16.hpp is the conformance oracle for vcvtps2ph/vcvtph2ps/fcvt);
// the FMA reductions may differ only by bounded reassociation error.  Runs
// under whatever HCCMF_SIMD selects too, but always iterates every
// available table explicitly, so one CI host covers all its backends.
#include "simd/dispatch.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/fp16.hpp"
#include "util/rng.hpp"

namespace hcc::simd {
namespace {

constexpr std::uint32_t kRanks[] = {4, 8, 16, 30, 31, 32, 100, 128};

std::vector<const KernelTable*> available_tables() {
  std::vector<const KernelTable*> tables;
  for (const Isa isa :
       {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512}) {
    if (const KernelTable* t = kernels_for(isa)) tables.push_back(t);
  }
  return tables;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.2, 0.1));
  return v;
}

/// |a - b| in units of the last place of the larger magnitude.
double ulp_distance(float a, float b) {
  if (a == b) return 0.0;
  const float scale = std::max(std::abs(a), std::abs(b));
  const float ulp = std::nextafter(scale, std::numeric_limits<float>::max()) -
                    scale;
  return std::abs(static_cast<double>(a) - static_cast<double>(b)) / ulp;
}

// ---------------------------------------------------------------------------
// FP16 codec: bit-exact against the scalar oracle.
// ---------------------------------------------------------------------------

TEST(SimdParity, Fp16DecodeBitExactOverAllInputs) {
  // Every one of the 65536 binary16 patterns, including subnormals, +/-inf
  // and every NaN payload.
  std::vector<util::Half> halves(1u << 16);
  for (std::uint32_t i = 0; i < halves.size(); ++i) {
    halves[i].bits = static_cast<std::uint16_t>(i);
  }
  std::vector<float> expected(halves.size());
  kernels_for(Isa::kScalar)->fp16_decode(halves.data(), expected.data(),
                                         halves.size());
  for (const KernelTable* table : available_tables()) {
    std::vector<float> actual(halves.size());
    table->fp16_decode(halves.data(), actual.data(), halves.size());
    for (std::size_t i = 0; i < halves.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(actual[i]),
                std::bit_cast<std::uint32_t>(expected[i]))
          << table->name << " half bits 0x" << std::hex << i;
    }
  }
}

std::vector<float> encode_corpus() {
  std::vector<float> corpus;
  // Every binary16 value round-tripped to binary32: encode must return the
  // exact bits it came from.
  for (std::uint32_t i = 0; i < (1u << 16); ++i) {
    corpus.push_back(util::fp16_to_float(util::Half{
        static_cast<std::uint16_t>(i)}));
  }
  // Rounding boundaries around the binary16 overflow threshold: 65504 is
  // the max finite value, 65520 is the first float that rounds to inf.
  for (const float v : {65504.0f, 65519.0f, 65519.97f, 65520.0f, 65536.0f,
                        1e30f, -65504.0f, -65520.0f, -1e30f}) {
    corpus.push_back(v);
  }
  // Gradual underflow: floats spanning the binary16 subnormal range
  // (2^-24 .. 2^-14) plus halfway cases that exercise round-to-even.
  for (int e = -26; e <= -13; ++e) {
    const float base = std::ldexp(1.0f, e);
    for (const float m : {1.0f, 1.25f, 1.5f, 1.5000001f, 1.75f, 1.9999999f}) {
      corpus.push_back(base * m);
      corpus.push_back(-base * m);
    }
  }
  // Specials: zeros, infinities, NaNs with different payloads (top-10
  // payload bits survive, quiet bit is forced).
  corpus.push_back(0.0f);
  corpus.push_back(-0.0f);
  corpus.push_back(std::numeric_limits<float>::infinity());
  corpus.push_back(-std::numeric_limits<float>::infinity());
  for (const std::uint32_t bits :
       {0x7fc00000u, 0xffc00000u, 0x7f800001u, 0x7fc12345u, 0xffabcdefu,
        0x7fffffffu}) {
    corpus.push_back(std::bit_cast<float>(bits));
  }
  // Random binary32 bit patterns (any float is a legal encode input).
  util::Rng rng(11);
  for (int i = 0; i < 50000; ++i) {
    corpus.push_back(std::bit_cast<float>(
        static_cast<std::uint32_t>(rng())));
  }
  // Typical feature-matrix magnitudes.
  const auto features = random_floats(50000, 12);
  corpus.insert(corpus.end(), features.begin(), features.end());
  return corpus;
}

TEST(SimdParity, Fp16EncodeBitExactOverCorpus) {
  const std::vector<float> corpus = encode_corpus();
  std::vector<util::Half> expected(corpus.size());
  kernels_for(Isa::kScalar)->fp16_encode(corpus.data(), expected.data(),
                                         corpus.size());
  for (const KernelTable* table : available_tables()) {
    std::vector<util::Half> actual(corpus.size());
    table->fp16_encode(corpus.data(), actual.data(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      ASSERT_EQ(actual[i].bits, expected[i].bits)
          << table->name << " input bits 0x" << std::hex
          << std::bit_cast<std::uint32_t>(corpus[i]);
    }
  }
}

TEST(SimdParity, Fp16CodecHandlesMisalignedAndTailSlices) {
  // Odd offsets and lengths force unaligned vector loads and every tail
  // length; ASan watches the edges.
  const auto src = random_floats(4099, 13);
  for (const KernelTable* table : available_tables()) {
    for (const std::size_t offset : {0u, 1u, 3u, 7u}) {
      for (const std::size_t len : {0u, 1u, 7u, 15u, 16u, 17u, 33u, 4092u}) {
        if (offset + len > src.size()) continue;
        std::vector<util::Half> expected(len);
        std::vector<util::Half> actual(len);
        kernels_for(Isa::kScalar)
            ->fp16_encode(src.data() + offset, expected.data(), len);
        table->fp16_encode(src.data() + offset, actual.data(), len);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(actual[i].bits, expected[i].bits)
              << table->name << " offset=" << offset << " len=" << len;
        }
        std::vector<float> decoded_expected(len);
        std::vector<float> decoded_actual(len);
        kernels_for(Isa::kScalar)
            ->fp16_decode(expected.data(), decoded_expected.data(), len);
        table->fp16_decode(expected.data(), decoded_actual.data(), len);
        for (std::size_t i = 0; i < len; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(decoded_actual[i]),
                    std::bit_cast<std::uint32_t>(decoded_expected[i]))
              << table->name << " offset=" << offset << " len=" << len;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// FMA kernels: bounded-ULP against the scalar reference.
// ---------------------------------------------------------------------------

TEST(SimdParity, DotWithinUlpBound) {
  const KernelTable* scalar = kernels_for(Isa::kScalar);
  for (const std::uint32_t k : kRanks) {
    const auto a = random_floats(k, 21);
    const auto b = random_floats(k, 22);
    const float expected = scalar->dot(a.data(), b.data(), k);
    for (const KernelTable* table : available_tables()) {
      const float actual = table->dot(a.data(), b.data(), k);
      // Reassociation moves the result by at most a few ULPs per chain for
      // these magnitudes; 32 ULPs is orders of magnitude tighter than any
      // real divergence bug.
      EXPECT_LE(ulp_distance(actual, expected), 32.0)
          << table->name << " k=" << k;
    }
  }
}

TEST(SimdParity, SumSquaresWithinUlpBound) {
  const KernelTable* scalar = kernels_for(Isa::kScalar);
  for (const std::size_t n : {4u, 100u, 1024u, 100001u}) {
    const auto v = random_floats(n, 23);
    const double expected = scalar->sum_squares(v.data(), n);
    for (const KernelTable* table : available_tables()) {
      const double actual = table->sum_squares(v.data(), n);
      // Accumulation is in double, so even large n stays tight.
      EXPECT_NEAR(actual, expected, 1e-9 * (1.0 + std::abs(expected)))
          << table->name << " n=" << n;
    }
  }
}

TEST(SimdParity, SgdUpdateTracksScalarOverManySteps) {
  const KernelTable* scalar = kernels_for(Isa::kScalar);
  for (const std::uint32_t k : kRanks) {
    for (const KernelTable* table : available_tables()) {
      auto p_ref = random_floats(k, 31);
      auto q_ref = random_floats(k, 32);
      auto p = p_ref;
      auto q = q_ref;
      for (int step = 0; step < 200; ++step) {
        const float r = 3.0f + 0.01f * static_cast<float>(step % 5);
        const float err_ref = scalar->sgd_update(p_ref.data(), q_ref.data(),
                                                 k, r, 0.01f, 0.02f, 0.02f);
        const float err = table->sgd_update(p.data(), q.data(), k, r, 0.01f,
                                            0.02f, 0.02f);
        ASSERT_NEAR(err, err_ref, 1e-3f)
            << table->name << " k=" << k << " step=" << step;
      }
      for (std::uint32_t f = 0; f < k; ++f) {
        EXPECT_NEAR(p[f], p_ref[f], 1e-3f) << table->name << " k=" << k;
        EXPECT_NEAR(q[f], q_ref[f], 1e-3f) << table->name << " k=" << k;
      }
    }
  }
}

TEST(SimdParity, SgdUpdateToleratesMisalignedRows) {
  // Model rows are 64-byte aligned in production, but the kernel contract
  // is unaligned-safe; shift both rows off alignment and compare.
  const std::uint32_t k = 128;
  const auto base_p = random_floats(k + 4, 51);
  const auto base_q = random_floats(k + 4, 52);
  const KernelTable* scalar = kernels_for(Isa::kScalar);
  for (const KernelTable* table : available_tables()) {
    auto p_ref = base_p;
    auto q_ref = base_q;
    auto p = base_p;
    auto q = base_q;
    scalar->sgd_update(p_ref.data() + 1, q_ref.data() + 3, k, 4.0f, 0.01f,
                       0.02f, 0.02f);
    table->sgd_update(p.data() + 1, q.data() + 3, k, 4.0f, 0.01f, 0.02f,
                      0.02f);
    for (std::uint32_t f = 0; f < k + 4; ++f) {
      EXPECT_LE(ulp_distance(p[f], p_ref[f]), 4.0) << table->name;
      EXPECT_LE(ulp_distance(q[f], q_ref[f]), 4.0) << table->name;
    }
  }
}

// ---------------------------------------------------------------------------
// Quantization kernels: bit-exact against the scalar reference.  The whole
// group is contracted exact (no FMA, RNE integer rounding), so the quantized
// codecs produce identical wire bytes and identical error-feedback state on
// every ISA.
// ---------------------------------------------------------------------------

constexpr std::size_t kQuantLens[] = {0, 1, 3, 7, 8, 15, 16, 17, 31, 32,
                                      33, 100, 128, 1000};

TEST(SimdParity, AbsmaxMatchesScalarExactly) {
  const KernelTable* scalar = kernels_for(Isa::kScalar);
  for (const std::size_t n : kQuantLens) {
    auto v = random_floats(std::max<std::size_t>(n, 1), 71);
    v.resize(n);
    if (n > 0) v[n / 2] = -3.5f;  // a negative extremum exercises fabs
    const float expected = scalar->absmax(v.data(), n);
    for (const KernelTable* table : available_tables()) {
      EXPECT_EQ(table->absmax(v.data(), n), expected)
          << table->name << " n=" << n;
    }
  }
}

TEST(SimdParity, EfDeltaMatchesScalarBitExactly) {
  const KernelTable* scalar = kernels_for(Isa::kScalar);
  for (const std::size_t n : kQuantLens) {
    const auto src = random_floats(n, 72);
    const auto ref = random_floats(n, 73);
    const auto residual = random_floats(n, 74);
    std::vector<float> expected(n);
    scalar->ef_delta(src.data(), ref.data(), residual.data(), expected.data(),
                     n);
    for (const KernelTable* table : available_tables()) {
      std::vector<float> actual(n);
      table->ef_delta(src.data(), ref.data(), residual.data(), actual.data(),
                      n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(actual[i]),
                  std::bit_cast<std::uint32_t>(expected[i]))
            << table->name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdParity, Int8EncodeCommitMatchScalarBitExactly) {
  const KernelTable* scalar = kernels_for(Isa::kScalar);
  for (const std::size_t n : kQuantLens) {
    auto e = random_floats(n, 75);
    if (n > 2) {
      e[0] = 0.5f;        // exactly representable extremum
      e[1] = -0.5f;       // saturates to -127 with inv_scale below
      e[2] = 0.0019685f;  // near the RNE boundary between codes 0 and 1
    }
    const float scale = 0.5f / 127.0f;
    const float inv_scale = 127.0f / 0.5f;
    std::vector<std::int8_t> expected_q(n);
    scalar->int8_encode(e.data(), inv_scale, expected_q.data(), n);
    const auto ref_in = random_floats(n, 76);
    for (const KernelTable* table : available_tables()) {
      std::vector<std::int8_t> q(n);
      table->int8_encode(e.data(), inv_scale, q.data(), n);
      ASSERT_EQ(q, expected_q) << table->name << " n=" << n;

      std::vector<float> ref_exp = ref_in;
      std::vector<float> res_exp(n);
      std::vector<float> dst_exp(n);
      scalar->int8_commit(expected_q.data(), scale, e.data(), ref_exp.data(),
                          res_exp.data(), dst_exp.data(), n);
      std::vector<float> ref_act = ref_in;
      std::vector<float> res_act(n);
      std::vector<float> dst_act(n);
      table->int8_commit(q.data(), scale, e.data(), ref_act.data(),
                         res_act.data(), dst_act.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(dst_act[i]),
                  std::bit_cast<std::uint32_t>(dst_exp[i]))
            << table->name << " n=" << n << " i=" << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(res_act[i]),
                  std::bit_cast<std::uint32_t>(res_exp[i]))
            << table->name << " n=" << n << " i=" << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref_act[i]),
                  std::bit_cast<std::uint32_t>(ref_exp[i]))
            << table->name << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdParity, TwoBitEncodeCommitMatchScalarBitExactly) {
  const KernelTable* scalar = kernels_for(Isa::kScalar);
  for (const std::size_t n : kQuantLens) {
    auto e = random_floats(n, 77);
    const float t = 0.15f;
    if (n > 2) {
      e[0] = t;       // exactly the threshold: not strictly greater => zero
      e[1] = -t;      // same on the negative side
      e[2] = 0.0f;
    }
    std::vector<std::uint8_t> expected_packed((n + 3) / 4);
    scalar->two_bit_encode(e.data(), t, expected_packed.data(), n);
    const auto ref_in = random_floats(n, 78);
    for (const KernelTable* table : available_tables()) {
      std::vector<std::uint8_t> packed((n + 3) / 4);
      table->two_bit_encode(e.data(), t, packed.data(), n);
      ASSERT_EQ(packed, expected_packed) << table->name << " n=" << n;

      std::vector<float> ref_exp = ref_in;
      std::vector<float> res_exp(n);
      std::vector<float> dst_exp(n);
      scalar->two_bit_commit(expected_packed.data(), t, e.data(),
                             ref_exp.data(), res_exp.data(), dst_exp.data(),
                             n);
      std::vector<float> ref_act = ref_in;
      std::vector<float> res_act(n);
      std::vector<float> dst_act(n);
      table->two_bit_commit(packed.data(), t, e.data(), ref_act.data(),
                            res_act.data(), dst_act.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(dst_act[i]),
                  std::bit_cast<std::uint32_t>(dst_exp[i]))
            << table->name << " n=" << n << " i=" << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(res_act[i]),
                  std::bit_cast<std::uint32_t>(res_exp[i]))
            << table->name << " n=" << n << " i=" << i;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(ref_act[i]),
                  std::bit_cast<std::uint32_t>(ref_exp[i]))
            << table->name << " n=" << n << " i=" << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// all_finite: exact boolean parity.
// ---------------------------------------------------------------------------

TEST(SimdParity, AllFiniteDetectsPlantedSpecials) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const KernelTable* table : available_tables()) {
    for (const std::size_t n : {1u, 7u, 15u, 16u, 17u, 64u, 1000u}) {
      auto v = random_floats(n, 61);
      EXPECT_TRUE(table->all_finite(v.data(), n))
          << table->name << " n=" << n;
      // Plant a special at every lane-edge position, including the tail.
      for (const std::size_t pos :
           {std::size_t{0}, n / 2, n - 1}) {
        for (const float bad : {nan, inf, -inf}) {
          auto poisoned = v;
          poisoned[pos] = bad;
          EXPECT_FALSE(table->all_finite(poisoned.data(), n))
              << table->name << " n=" << n << " pos=" << pos;
        }
      }
    }
    // Denormals and huge-but-finite values are finite.
    std::vector<float> edge{1e-45f, -1e-45f, 0.0f,
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest(),
                            std::numeric_limits<float>::min()};
    EXPECT_TRUE(table->all_finite(edge.data(), edge.size())) << table->name;
    EXPECT_TRUE(table->all_finite(edge.data(), 0)) << table->name;
  }
}

// ---------------------------------------------------------------------------
// score_block: the serving scan kernel — same ULP latitude as dot.
// ---------------------------------------------------------------------------

TEST(SimdParity, ScoreBlockWithinUlpBoundOfScalar) {
  const auto* scalar = kernels_for(Isa::kScalar);
  ASSERT_NE(scalar, nullptr);
  // Item counts around the 8-per-pass boundary; ranks around the vector
  // widths, including the scalar-tail cases.
  constexpr std::uint32_t kCounts[] = {1, 7, 8, 9, 16, 40, 100};
  for (const KernelTable* table : available_tables()) {
    for (const std::uint32_t k : kRanks) {
      for (const std::uint32_t n : kCounts) {
        const auto user = random_floats(k, 11 * k + n);
        const auto q = random_floats(static_cast<std::size_t>(n) * k,
                                     13 * k + n);
        std::vector<float> expected(n);
        std::vector<float> actual(n);
        scalar->score_block(user.data(), q.data(), k, n, nullptr,
                            expected.data());
        table->score_block(user.data(), q.data(), k, n, nullptr,
                           actual.data());
        for (std::uint32_t i = 0; i < n; ++i) {
          EXPECT_LE(ulp_distance(actual[i], expected[i]), 32.0)
              << table->name << " k=" << k << " n=" << n << " item " << i;
        }
      }
    }
  }
}

TEST(SimdParity, ScoreBlockHonorsSkipMask) {
  constexpr std::uint32_t k = 31;
  constexpr std::uint32_t n = 27;
  const auto user = random_floats(k, 7);
  const auto q = random_floats(static_cast<std::size_t>(n) * k, 9);
  // Mask a mix of full bytes and stragglers, including tail items.
  std::vector<std::uint8_t> mask((n + 7) / 8, 0);
  for (const std::uint32_t i : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 10u, 26u}) {
    mask[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
  for (const KernelTable* table : available_tables()) {
    std::vector<float> scores(n, 0.0f);
    table->score_block(user.data(), q.data(), k, n, mask.data(),
                       scores.data());
    for (std::uint32_t i = 0; i < n; ++i) {
      const bool skipped = ((mask[i / 8] >> (i % 8)) & 1u) != 0;
      if (skipped) {
        EXPECT_EQ(scores[i], -std::numeric_limits<float>::infinity())
            << table->name << " item " << i;
      } else {
        EXPECT_TRUE(std::isfinite(scores[i])) << table->name << " item " << i;
      }
    }
  }
}

TEST(SimdParity, ScoreBlockMatchesDotPerItem) {
  // Each lane of the batched kernel must equal the same table's dot within
  // ULPs (different accumulation shapes, same math).
  constexpr std::uint32_t k = 128;
  constexpr std::uint32_t n = 24;
  const auto user = random_floats(k, 21);
  const auto q = random_floats(static_cast<std::size_t>(n) * k, 23);
  for (const KernelTable* table : available_tables()) {
    std::vector<float> scores(n);
    table->score_block(user.data(), q.data(), k, n, nullptr, scores.data());
    for (std::uint32_t i = 0; i < n; ++i) {
      const float expect =
          table->dot(user.data(), q.data() + static_cast<std::size_t>(i) * k,
                     k);
      EXPECT_LE(ulp_distance(scores[i], expect), 32.0)
          << table->name << " item " << i;
    }
  }
}

}  // namespace
}  // namespace hcc::simd
