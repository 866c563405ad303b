// Tests for payload selection, byte accounting and the strategy planner.
#include "comm/strategy.hpp"

#include <gtest/gtest.h>

#include "comm/payload.hpp"

namespace hcc::comm {
namespace {

sim::DatasetShape netflix_shape() {
  return {"netflix", 480190, 17771, 99072112, 128};
}
sim::DatasetShape wide_shape() { return {"wide", 1000, 50000, 1000000, 128}; }

TEST(Payload, ChoosesSmallerDimension) {
  EXPECT_EQ(choose_payload(100, 10), PayloadMode::kQOnly);
  EXPECT_EQ(choose_payload(10, 100), PayloadMode::kPOnly);
  EXPECT_EQ(choose_payload(10, 10), PayloadMode::kQOnly);
}

TEST(Payload, PullElementsPerMode) {
  const auto shape = netflix_shape();
  const std::uint64_t p = shape.m * 128ull;
  const std::uint64_t q = shape.n * 128ull;
  EXPECT_EQ(pull_elements(shape, PayloadMode::kPQ), p + q);
  EXPECT_EQ(pull_elements(shape, PayloadMode::kQOnly), q);
  EXPECT_EQ(pull_elements(shape, PayloadMode::kPOnly), p);
}

TEST(Payload, LastPushCarriesBothMatrices) {
  const auto shape = netflix_shape();
  const std::uint64_t p = shape.m * 128ull;
  const std::uint64_t q = shape.n * 128ull;
  EXPECT_EQ(push_elements(shape, PayloadMode::kQOnly, false), q);
  EXPECT_EQ(push_elements(shape, PayloadMode::kQOnly, true), p + q);
  EXPECT_EQ(push_elements(shape, PayloadMode::kPQ, false), p + q);
}

TEST(Payload, QOnlyReductionMatchesPaperNumbers) {
  // Section 3.4: on Netflix, Q-only cuts ~96.4% of per-epoch transfer
  // (n/(m+n) with m=480190, n=17771).
  const auto shape = netflix_shape();
  const double per_epoch_pq =
      static_cast<double>(pull_elements(shape, PayloadMode::kPQ));
  const double per_epoch_q =
      static_cast<double>(pull_elements(shape, PayloadMode::kQOnly));
  EXPECT_NEAR(1.0 - per_epoch_q / per_epoch_pq, 0.964, 0.003);
}

TEST(Payload, TwentyEpochSpeedupNearTheoretical) {
  // The paper's theoretical 20-epoch communication speedup for Netflix is
  // ~19.4x (20(m+n)/(m+20n)); our accounting (pull+push, final P&Q push)
  // lands in the same regime.
  const auto shape = netflix_shape();
  const double pq = total_wire_bytes(shape, PayloadMode::kPQ, false, 20);
  const double q = total_wire_bytes(shape, PayloadMode::kQOnly, false, 20);
  const double speedup = pq / q;
  EXPECT_GT(speedup, 15.0);
  EXPECT_LT(speedup, 25.0);
}

TEST(Payload, Fp16HalvesTotalBytes) {
  const auto shape = netflix_shape();
  const double fp32 = total_wire_bytes(shape, PayloadMode::kQOnly, false, 20);
  const double fp16 = total_wire_bytes(shape, PayloadMode::kQOnly, true, 20);
  EXPECT_NEAR(fp32 / fp16, 2.0, 1e-9);
}

TEST(Strategy, EffectiveModeHonorsReduceFlag) {
  CommConfig config;
  config.reduce_payload = true;
  EXPECT_EQ(effective_mode(config, netflix_shape()), PayloadMode::kQOnly);
  EXPECT_EQ(effective_mode(config, wide_shape()), PayloadMode::kPOnly);
  config.reduce_payload = false;
  EXPECT_EQ(effective_mode(config, netflix_shape()), PayloadMode::kPQ);
}

TEST(Strategy, StreamsCappedByCopyEngines) {
  CommConfig config;
  config.streams = 8;
  EXPECT_EQ(effective_streams(config, sim::rtx_2080()), 4u);
  EXPECT_EQ(effective_streams(config, sim::xeon_6242_24t()), 1u);
  config.streams = 2;
  EXPECT_EQ(effective_streams(config, sim::rtx_2080()), 2u);
}

TEST(Strategy, CommPlanBytesMatchPayloadAccounting) {
  CommConfig config;
  config.reduce_payload = true;
  config.fp16 = false;
  const auto shape = netflix_shape();
  const auto plan = make_comm_plan(config, shape, sim::rtx_2080(), false);
  EXPECT_DOUBLE_EQ(plan.pull_bytes,
                   wire_bytes(pull_elements(shape, PayloadMode::kQOnly), false));
  EXPECT_DOUBLE_EQ(plan.push_bytes, plan.pull_bytes);
  // Sync volume is FP32 elements regardless of wire codec.
  EXPECT_DOUBLE_EQ(plan.sync_bytes, plan.push_bytes);
}

TEST(Strategy, SyncBytesIndependentOfWireCodec) {
  CommConfig fp32_cfg;
  fp32_cfg.fp16 = false;
  CommConfig fp16_cfg;
  fp16_cfg.fp16 = true;
  const auto shape = netflix_shape();
  const auto plan32 = make_comm_plan(fp32_cfg, shape, sim::rtx_2080());
  const auto plan16 = make_comm_plan(fp16_cfg, shape, sim::rtx_2080());
  EXPECT_DOUBLE_EQ(plan32.sync_bytes, plan16.sync_bytes);
  EXPECT_NEAR(plan32.pull_bytes / plan16.pull_bytes, 2.0, 1e-9);
}

TEST(Strategy, BrokerBackendSlashesBusEfficiency) {
  CommConfig shm_cfg;
  shm_cfg.fp16 = false;
  CommConfig broker_cfg = shm_cfg;
  broker_cfg.backend = BackendKind::kBroker;
  const auto shape = netflix_shape();
  const auto shm_plan = make_comm_plan(shm_cfg, shape, sim::rtx_2080());
  const auto broker_plan = make_comm_plan(broker_cfg, shape, sim::rtx_2080());
  EXPECT_NEAR(shm_plan.bus_efficiency / broker_plan.bus_efficiency,
              shm_cfg.broker_penalty, 1e-9);
}

TEST(Strategy, Fp16BonusRaisesEfficiency) {
  CommConfig base;
  base.fp16 = false;
  CommConfig fp16_cfg;
  fp16_cfg.fp16 = true;
  const auto shape = netflix_shape();
  EXPECT_GT(make_comm_plan(fp16_cfg, shape, sim::rtx_2080()).bus_efficiency,
            make_comm_plan(base, shape, sim::rtx_2080()).bus_efficiency);
}

TEST(Strategy, FactoriesMatchConfig) {
  CommConfig config;
  config.fp16 = true;
  config.backend = BackendKind::kBroker;
  EXPECT_EQ(make_codec(config)->name(), "fp16");
  // COMM-P is a timing-model setting: the plan pays broker_penalty, while
  // the functional link stays the in-process COMM.
  CommConfig shm = config;
  shm.backend = BackendKind::kShm;
  const auto shape = netflix_shape();
  EXPECT_NEAR(make_comm_plan(shm, shape, sim::rtx_2080()).bus_efficiency /
                  make_comm_plan(config, shape, sim::rtx_2080()).bus_efficiency,
              config.broker_penalty, 1e-9);
  EXPECT_EQ(make_backend(config)->name(), "COMM");
  config.fp16 = false;
  config.backend = BackendKind::kShm;
  EXPECT_EQ(make_codec(config)->name(), "fp32");
  EXPECT_EQ(make_backend(config)->name(), "COMM");
  config.transport.kind = TransportKind::kSimLatency;
  EXPECT_EQ(make_backend(config, /*worker=*/1)->name(), "COMM-T");
}

TEST(Strategy, CodecKindDefersToLegacyFp16Flag) {
  CommConfig config;
  config.fp16 = true;
  EXPECT_EQ(effective_codec(config), CodecKind::kFp16);
  config.fp16 = false;
  EXPECT_EQ(effective_codec(config), CodecKind::kFp32);
  // An explicit kind wins over the flag.
  config.codec = CodecKind::kTwoBit;
  EXPECT_EQ(effective_codec(config), CodecKind::kTwoBit);
}

TEST(Strategy, TwoBitIsPushOnlyPullFallsBackToFp16) {
  CommConfig config;
  config.codec = CodecKind::kTwoBit;
  EXPECT_EQ(pull_codec_kind(config), CodecKind::kFp16);
  EXPECT_EQ(make_pull_codec(config, 128)->name(), "fp16");
  EXPECT_EQ(make_codec(config, 128)->name(), "2bit");
  // int8 holds parity in both directions, so it rides both.
  config.codec = CodecKind::kInt8;
  EXPECT_EQ(pull_codec_kind(config), CodecKind::kInt8);
  EXPECT_EQ(make_pull_codec(config, 128)->name(), "int8");
}

TEST(Strategy, QuantizedWireBytesMatchSteadyStateLayout) {
  // 1000 elements in blocks of 128: 8 blocks, each 4 scale bytes.
  EXPECT_EQ(wire_bytes(1000, CodecKind::kInt8, 128), 8 * 4 + 1000.0);
  // 2-bit packs 4 codes/byte with per-block tails: 7*32 + 26 payload bytes.
  EXPECT_EQ(wire_bytes(1000, CodecKind::kTwoBit, 128),
            8 * 4 + 7 * 32 + 26.0);
  EXPECT_EQ(wire_bytes(1000, CodecKind::kFp16, 128), 2000.0);
  EXPECT_EQ(wire_bytes(1000, CodecKind::kFp32, 128), 4000.0);
}

TEST(Strategy, CommPlanSplitsCodecsByDirection) {
  CommConfig config;
  config.codec = CodecKind::kTwoBit;
  config.sparse = false;
  const auto shape = netflix_shape();
  const auto plan = make_comm_plan(config, shape, sim::rtx_2080());
  const auto mode = effective_mode(config, shape);
  // Pull rides fp16, push rides the ternary layout.
  EXPECT_EQ(plan.pull_bytes,
            wire_bytes(pull_elements(shape, mode), CodecKind::kFp16,
                       shape.k));
  EXPECT_EQ(plan.push_bytes,
            wire_bytes(push_elements(shape, mode, false),
                       CodecKind::kTwoBit, shape.k));
  EXPECT_LT(plan.push_bytes, plan.pull_bytes / 6.0);
}

TEST(Strategy, CompressedCodecsEarnTheBusBonus) {
  CommConfig fp32_cfg;
  fp32_cfg.fp16 = false;
  const auto shape = netflix_shape();
  const double base =
      make_comm_plan(fp32_cfg, shape, sim::rtx_2080()).bus_efficiency;
  for (const CodecKind kind :
       {CodecKind::kFp16, CodecKind::kInt8, CodecKind::kTwoBit}) {
    CommConfig config;
    config.codec = kind;
    EXPECT_GT(make_comm_plan(config, shape, sim::rtx_2080()).bus_efficiency,
              base)
        << codec_kind_name(kind);
  }
}

TEST(Payload, ModeNames) {
  EXPECT_STREQ(payload_mode_name(PayloadMode::kPQ), "P&Q");
  EXPECT_STREQ(payload_mode_name(PayloadMode::kQOnly), "Q");
  EXPECT_STREQ(payload_mode_name(PayloadMode::kPOnly), "P");
}

}  // namespace
}  // namespace hcc::comm
