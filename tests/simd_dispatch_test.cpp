// Tests for the runtime SIMD dispatch layer: ISA detection, the HCCMF_SIMD
// override resolution rule, and table completeness.
#include "simd/dispatch.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hcc::simd {
namespace {

constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kNeon, Isa::kAvx2,
                            Isa::kAvx512};

TEST(Dispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(isa_available(Isa::kScalar));
  const KernelTable* table = kernels_for(Isa::kScalar);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->isa, Isa::kScalar);
  EXPECT_STREQ(table->name, "scalar");
}

TEST(Dispatch, EveryAvailableTableIsComplete) {
  for (const Isa isa : kAllIsas) {
    const KernelTable* table = kernels_for(isa);
    if (table == nullptr) {
      EXPECT_FALSE(isa_available(isa));
      continue;
    }
    EXPECT_TRUE(isa_available(isa));
    EXPECT_EQ(table->isa, isa);
    EXPECT_STREQ(table->name, isa_name(isa));
    EXPECT_NE(table->dot, nullptr) << isa_name(isa);
    EXPECT_NE(table->sgd_update, nullptr) << isa_name(isa);
    EXPECT_NE(table->sum_squares, nullptr) << isa_name(isa);
    EXPECT_NE(table->all_finite, nullptr) << isa_name(isa);
    EXPECT_NE(table->fp16_encode, nullptr) << isa_name(isa);
    EXPECT_NE(table->fp16_decode, nullptr) << isa_name(isa);
  }
}

TEST(Dispatch, DetectedIsaIsAvailable) {
  const Isa best = detect_best_isa();
  EXPECT_TRUE(isa_available(best));
  EXPECT_NE(kernels_for(best), nullptr);
}

TEST(Dispatch, ParseIsaRoundTripsEveryName) {
  for (const Isa isa : kAllIsas) {
    Isa parsed = Isa::kScalar;
    ASSERT_TRUE(parse_isa(isa_name(isa), parsed)) << isa_name(isa);
    EXPECT_EQ(parsed, isa);
  }
}

TEST(Dispatch, ParseIsaRejectsUnknownNamesUntouched) {
  Isa out = Isa::kAvx2;
  EXPECT_FALSE(parse_isa("sse9", out));
  EXPECT_FALSE(parse_isa("", out));
  EXPECT_FALSE(parse_isa("AVX2", out));  // case-sensitive by contract
  EXPECT_FALSE(parse_isa("scalar ", out));
  EXPECT_EQ(out, Isa::kAvx2);
}

TEST(Dispatch, ResolveWithoutOverrideAutoDetects) {
  EXPECT_EQ(resolve_isa(nullptr), detect_best_isa());
  EXPECT_EQ(resolve_isa(""), detect_best_isa());
}

TEST(Dispatch, ResolveHonoursAvailableOverride) {
  // Scalar is available everywhere, so this override must always win.
  EXPECT_EQ(resolve_isa("scalar"), Isa::kScalar);
  // Any available ISA must be selectable by name.
  for (const Isa isa : kAllIsas) {
    if (isa_available(isa)) {
      EXPECT_EQ(resolve_isa(isa_name(isa)), isa) << isa_name(isa);
    }
  }
}

TEST(Dispatch, ResolveFallsBackOnBadOrUnavailableOverride) {
  EXPECT_EQ(resolve_isa("bogus-isa"), detect_best_isa());
  for (const Isa isa : kAllIsas) {
    if (!isa_available(isa)) {
      EXPECT_EQ(resolve_isa(isa_name(isa)), detect_best_isa())
          << isa_name(isa);
    }
  }
}

TEST(Dispatch, ProcessWideTableMatchesActiveIsa) {
  const KernelTable& table = kernels();
  EXPECT_EQ(table.isa, active_isa());
  EXPECT_TRUE(isa_available(table.isa));
  EXPECT_EQ(&table, kernels_for(table.isa));
  // Resolution is cached: repeated calls hand out the same table.
  EXPECT_EQ(&kernels(), &table);
}

TEST(Dispatch, IsaNamesAreStable) {
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kNeon), "neon");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(isa_name(Isa::kAvx512), "avx512");
}

}  // namespace
}  // namespace hcc::simd
