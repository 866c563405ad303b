// Session-protocol tests: exactly-once in-order delivery under duplicated,
// reordered, dropped and severed links, bounded reconnection, and the
// metamorphic anchor the transport tier is built around — a chaos run that
// heals trains to *exactly* the same model as the in-process transport.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <numeric>
#include <vector>

#include "comm/pipeline.hpp"
#include "comm/session.hpp"
#include "comm/strategy.hpp"
#include "core/hccmf.hpp"
#include "data/datasets.hpp"
#include "fault/errors.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"

namespace hcc::comm {
namespace {

TransportConfig chaos_config(const std::string& spec) {
  TransportConfig config;
  config.kind = TransportKind::kChaos;
  config.link = "local";
  if (!spec.empty()) config.plan = fault::FaultPlan::parse(spec);
  return config;
}

SessionComm session_over(const TransportConfig& config,
                         std::uint32_t worker = 0) {
  return SessionComm(make_transport(config, worker), config, worker);
}

/// Lossless depth-1 pipeline: each transfer is one fp32 chunk frame.
StreamPipeline fp32_pipe() {
  CommConfig config;
  config.codec = CodecKind::kFp32;
  return StreamPipeline(config, /*row_elems=*/1,
                        StreamPipeline::Direction::kPush);
}

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  std::iota(v.begin(), v.end(), 1.0f);
  return v;
}

TEST(SessionReplay, CleanLinkDeliversExactBytes) {
  TransportConfig config;
  config.kind = TransportKind::kSimLatency;
  config.link = "100GbE";
  SessionComm comm = session_over(config);
  StreamPipeline pipe = fp32_pipe();
  const std::vector<float> src = ramp(512);
  std::vector<float> dst(512, 0.0f);
  pipe.transfer(comm, src, dst);
  EXPECT_EQ(src, dst);
  EXPECT_EQ(comm.transport_stats().frames, 1u);
  EXPECT_EQ(comm.transport_stats().retransmits, 0u);
}

TEST(SessionReplay, DuplicateDeliveryIsDedupedIdempotently) {
  SessionComm comm = session_over(chaos_config("dup:w0@e0n3"));
  StreamPipeline pipe = fp32_pipe();
  for (int round = 0; round < 4; ++round) {
    const std::vector<float> src = ramp(64 + static_cast<std::size_t>(round));
    std::vector<float> dst(src.size(), 0.0f);
    pipe.transfer(comm, src, dst);
    EXPECT_EQ(src, dst) << "round " << round;
  }
  EXPECT_GE(comm.transport_stats().dup_discards, 1u);
}

TEST(SessionReplay, ReorderedFramesDeliverInSequenceOrder) {
  // The held frame of transfer N is released by transfer N+1's frame (or a
  // heartbeat); the reorder buffer re-sequences them.
  SessionComm comm = session_over(chaos_config("reorder:w0@e0n2"));
  StreamPipeline pipe = fp32_pipe();
  for (int round = 0; round < 4; ++round) {
    const std::vector<float> src = ramp(96);
    std::vector<float> dst(src.size(), 0.0f);
    pipe.transfer(comm, src, dst);
    EXPECT_EQ(src, dst) << "round " << round;
  }
}

TEST(SessionReplay, DroppedFrameHealsByRetransmission) {
  SessionComm comm = session_over(chaos_config("drop:w0@e0n2"));
  StreamPipeline pipe = fp32_pipe();
  const std::vector<float> src = ramp(128);
  std::vector<float> dst(src.size(), 0.0f);
  pipe.transfer(comm, src, dst);
  EXPECT_EQ(src, dst);
  EXPECT_GE(comm.transport_stats().retransmits, 1u);
}

TEST(SessionReplay, CorruptFrameIsDiscardedAndRetransmitted) {
  TransportConfig config;
  config.kind = TransportKind::kSimLatency;
  config.link = "local";
  SessionComm comm = session_over(config);
  // Corrupt exactly the first wire payload; the receiver must drop it
  // before decode and the retransmission must heal.
  bool armed = true;
  comm.set_wire_tap([&armed](std::span<std::byte> wire) {
    if (!armed || wire.empty()) return;
    armed = false;
    wire[0] ^= std::byte{0xff};
  });
  StreamPipeline pipe = fp32_pipe();
  const std::vector<float> src = ramp(64);
  std::vector<float> dst(src.size(), 0.0f);
  pipe.transfer(comm, src, dst);
  EXPECT_EQ(src, dst);
  EXPECT_GE(comm.transport_stats().checksum_drops, 1u);
  EXPECT_GE(comm.transport_stats().retransmits, 1u);
}

TEST(SessionReplay, DisconnectReconnectsWithNewSessionAndReplays) {
  TransportConfig config = chaos_config("disconnect:w0@e0n2");
  config.reconnect_budget = 5;
  SessionComm comm = session_over(config);
  StreamPipeline pipe = fp32_pipe();
  const std::vector<float> src = ramp(256);
  std::vector<float> dst(src.size(), 0.0f);
  pipe.transfer(comm, src, dst);
  EXPECT_EQ(src, dst);
  EXPECT_GE(comm.transport_stats().reconnects, 1u);
  EXPECT_GT(comm.session_id(), 1u);  // a new session was minted
  // The link is healed: the next transfer flows without reconnecting again.
  const std::uint64_t reconnects = comm.transport_stats().reconnects;
  std::vector<float> dst2(src.size(), 0.0f);
  pipe.transfer(comm, src, dst2);
  EXPECT_EQ(src, dst2);
  EXPECT_EQ(comm.transport_stats().reconnects, reconnects);
}

TEST(SessionReplay, ExhaustedReconnectBudgetThrowsLinkDeadError) {
  TransportConfig config = chaos_config("disconnect:w2@e0n99");
  config.reconnect_budget = 3;
  SessionComm comm = session_over(config, /*worker=*/2);
  StreamPipeline pipe = fp32_pipe();
  const std::vector<float> src = ramp(32);
  std::vector<float> dst(src.size(), 0.0f);
  try {
    pipe.transfer(comm, src, dst);
    FAIL() << "expected fault::LinkDeadError";
  } catch (const fault::LinkDeadError& dead) {
    EXPECT_EQ(dead.worker(), 2u);
    EXPECT_NE(std::string(dead.what()).find("reconnect"), std::string::npos);
  }
}

/// Satellite: retry exhaustion names the failing link and attempt count.
TEST(SessionReplay, TransferFailureNamesLinkAndAttempts) {
  const fault::TransferFailure failure(1, 4, "COMM-T");
  const std::string message = failure.what();
  EXPECT_NE(message.find("link 'COMM-T'"), std::string::npos);
  EXPECT_NE(message.find("4 attempts"), std::string::npos);
  EXPECT_EQ(failure.attempts(), 4u);
  EXPECT_EQ(failure.link(), "COMM-T");
}

// ---------------------------------------------------------------------------
// Metamorphic anchor: RMSE parity between transports.

struct SmallProblem {
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
  data::DatasetSpec spec;
};

SmallProblem netflix_small() {
  SmallProblem pr;
  pr.spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 23;
  gen.planted_rank = 4;
  const auto full = data::generate(pr.spec, gen);
  util::Rng rng(24);
  auto [train, test] = data::train_test_split(full, 0.1, rng);
  pr.train = std::move(train);
  pr.test = std::move(test);
  return pr;
}

core::HccMfConfig small_config(const data::DatasetSpec& spec) {
  core::HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 6;
  config.comm.fp16 = false;
  config.platform = sim::paper_workstation_hetero();
  config.platform.workers.resize(3);
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = spec.name;
  return config;
}

TEST(SessionReplay, ChaosRunThatHealsMatchesInProcessRmseExactly) {
  const SmallProblem pr = netflix_small();

  core::HccMfConfig clean = small_config(pr.spec);
  const core::TrainReport base = core::HccMf(clean).train(pr.train, &pr.test);

  // Seeded chaos: drops, dups, reorders, a long delay and a mid-training
  // disconnect (healing within the reconnect budget) across the workers.
  core::HccMfConfig chaotic = small_config(pr.spec);
  chaotic.comm.transport.kind = TransportKind::kChaos;
  chaotic.comm.transport.link = "local";
  chaotic.fault.plan = fault::FaultPlan::parse(
      "drop:w0@e1n2;dup:w1@e2n2;reorder:w2@e3;delay:w0@e4x2000;"
      "disconnect:w1@e2n2");
  const core::TrainReport chaos =
      core::HccMf(chaotic).train(pr.train, &pr.test);

  // The session delivers the exact encoded bytes exactly once, in order,
  // so the trajectories are bit-identical: parity far below 1e-6.
  ASSERT_EQ(base.epochs.size(), chaos.epochs.size());
  EXPECT_NEAR(chaos.epochs.back().test_rmse, base.epochs.back().test_rmse,
              1e-6);
  EXPECT_GE(obs::registry().counter("transport.reconnects").value(), 1u);
}

TEST(SessionReplay, SimLatencyTransportMatchesInProcessRmseExactly) {
  const SmallProblem pr = netflix_small();

  core::HccMfConfig clean = small_config(pr.spec);
  const core::TrainReport base = core::HccMf(clean).train(pr.train, &pr.test);

  core::HccMfConfig latent = small_config(pr.spec);
  latent.comm.transport.kind = TransportKind::kSimLatency;
  latent.comm.transport.link = "10GbE";
  const core::TrainReport timed =
      core::HccMf(latent).train(pr.train, &pr.test);

  EXPECT_NEAR(timed.epochs.back().test_rmse, base.epochs.back().test_rmse,
              1e-6);
}

}  // namespace
}  // namespace hcc::comm
