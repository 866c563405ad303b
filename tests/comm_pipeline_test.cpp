// Chunked streaming pipeline tests (comm/pipeline.hpp): depth 1 equals a
// bare codec round trip, depth-N bit-identical decode, sub-chunk
// transfers, sizes straddling the codec parallel threshold, depth changes
// re-keyframing, byte-identical per-chunk retry after ChecksumError,
// sparse indexed framing, windowed session transfers healing under chaos,
// the encoder thread leaving a chaos session's wire unchanged, and the
// cost model's Eq. 1 overlap term.
#include "comm/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "comm/session.hpp"
#include "comm/strategy.hpp"
#include "core/cost_model.hpp"
#include "core/hccmf.hpp"
#include "data/datasets.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "sim/device.hpp"
#include "sim/perf_model.hpp"
#include "sim/platform.hpp"
#include "util/rng.hpp"

namespace hcc::comm {
namespace {

constexpr std::size_t kK = 16;  // factor rank / row width for these tests

CommConfig int8_config(std::uint32_t depth) {
  CommConfig config;
  config.codec = CodecKind::kInt8;
  config.pipeline_depth = depth;
  return config;
}

/// Deterministic pseudo-rating drift: round r of an evolving float array.
std::vector<float> evolving(std::size_t n, int round) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.01f * static_cast<float>(i + 1)) +
           0.05f * static_cast<float>(round) *
               std::cos(0.003f * static_cast<float>(i));
  }
  return v;
}

TEST(Pipeline, DepthOneMatchesLegacyTransferBitIdentically) {
  // A depth-1 transfer is one chunk through one codec: byte-for-byte a
  // bare encode/decode round trip of the whole array — same outputs, same
  // wire bytes, one copy each — across an EF keyframe + steady rounds.
  const std::size_t n = 40 * kK;
  CommConfig config = int8_config(1);

  auto bare_codec = make_codec(config, kK);
  std::size_t bare_wire_bytes = 0;
  ShmComm piped_backend;
  StreamPipeline pipe(config, kK, StreamPipeline::Direction::kPush);

  for (int round = 0; round < 5; ++round) {
    const std::vector<float> src = evolving(n, round);
    std::vector<std::byte> wire(bare_codec->encoded_bytes(n));
    bare_codec->encode(src, wire);
    bare_wire_bytes += wire.size();
    std::vector<float> bare_dst(n, 0.0f), piped_dst(n, 0.0f);
    bare_codec->decode(wire, bare_dst);
    pipe.transfer(piped_backend, src, piped_dst);
    EXPECT_EQ(bare_dst, piped_dst) << "round " << round;
  }
  EXPECT_EQ(bare_wire_bytes, piped_backend.stats().wire_bytes);
  EXPECT_EQ(piped_backend.stats().copies, 5u);
}

TEST(Pipeline, DepthFourDecodesBitIdenticalToDepthOne) {
  // Chunks are row-aligned and the quantized codecs scale per row, so the
  // per-chunk codec states partition the monolithic state exactly: the
  // decoded floats match bit for bit, every round, including the EF tail.
  const std::size_t n = 5 * Fp16Codec::kParallelThreshold + 3 * kK;
  ShmComm backend1, backend4;
  StreamPipeline pipe1(int8_config(1), kK, StreamPipeline::Direction::kPush);
  StreamPipeline pipe4(int8_config(4), kK, StreamPipeline::Direction::kPush);
  ASSERT_GT(pipe4.chunk_count(n), 4u);

  for (int round = 0; round < 6; ++round) {
    const std::vector<float> src = evolving(n, round);
    std::vector<float> dst1(n, 0.0f), dst4(n, 0.0f);
    pipe1.transfer(backend1, src, dst1);
    pipe4.transfer(backend4, src, dst4);
    EXPECT_EQ(dst1, dst4) << "round " << round;
  }
  EXPECT_GE(obs::registry().counter("comm.pipeline.chunks").value(),
            static_cast<double>(6 * pipe4.chunk_count(n)));
}

TEST(Pipeline, InlineAndThreadedExecutorsMatchBitIdentically) {
  // The core-aware executor choice (encoder thread vs inline windowed
  // ring) must never show on the wire: same chunk order, same frames,
  // same decoded floats, same EF evolution.
  const std::size_t n = 5 * Fp16Codec::kParallelThreshold + 3 * kK;
  ShmComm inline_backend, threaded_backend;
  StreamPipeline inline_pipe(int8_config(4), kK,
                             StreamPipeline::Direction::kPush);
  StreamPipeline threaded_pipe(int8_config(4), kK,
                               StreamPipeline::Direction::kPush);

  for (int round = 0; round < 4; ++round) {
    const std::vector<float> src = evolving(n, round);
    std::vector<float> inline_dst(n, 0.0f), threaded_dst(n, 0.0f);
    StreamPipeline::set_threading(StreamPipeline::Threading::kInline);
    inline_pipe.transfer(inline_backend, src, inline_dst);
    StreamPipeline::set_threading(StreamPipeline::Threading::kThreaded);
    threaded_pipe.transfer(threaded_backend, src, threaded_dst);
    StreamPipeline::set_threading(StreamPipeline::Threading::kAuto);
    EXPECT_EQ(inline_dst, threaded_dst) << "round " << round;
  }
  EXPECT_EQ(inline_backend.stats().wire_bytes,
            threaded_backend.stats().wire_bytes);
  EXPECT_EQ(inline_backend.stats().copies, threaded_backend.stats().copies);
}

TEST(Pipeline, TransferSmallerThanOneChunkStillStreams) {
  // A depth-4 pipeline on a payload below one chunk degenerates to a
  // single in-flight chunk but still rides the chunk API (and counts it).
  const std::size_t n = 3 * kK;  // far below chunk_floats()
  StreamPipeline pipe(int8_config(4), kK, StreamPipeline::Direction::kPush);
  ASSERT_EQ(pipe.chunk_count(n), 1u);
  const double chunks_before =
      obs::registry().counter("comm.pipeline.chunks").value();

  ShmComm backend;
  StreamPipeline ref(int8_config(1), kK, StreamPipeline::Direction::kPush);
  ShmComm ref_backend;
  for (int round = 0; round < 3; ++round) {
    const std::vector<float> src = evolving(n, round);
    std::vector<float> dst(n, 0.0f), ref_dst(n, 0.0f);
    pipe.transfer(backend, src, dst);
    ref.transfer(ref_backend, src, ref_dst);
    EXPECT_EQ(ref_dst, dst) << "round " << round;
  }
  EXPECT_GE(obs::registry().counter("comm.pipeline.chunks").value(),
            chunks_before + 3);
}

TEST(Pipeline, RowCountsStraddlingParallelThresholdStayExact) {
  // Sizes just below, at, and above kParallelThreshold (the codec
  // inline-vs-pool and chunk-size boundary) all round-trip identically to
  // the depth-1 path.
  const std::size_t threshold = Fp16Codec::kParallelThreshold;
  for (const std::size_t n :
       {threshold - kK, threshold, threshold + kK, 2 * threshold + kK}) {
    ShmComm b1, b4;
    StreamPipeline p1(int8_config(1), kK, StreamPipeline::Direction::kPush);
    StreamPipeline p4(int8_config(4), kK, StreamPipeline::Direction::kPush);
    for (int round = 0; round < 3; ++round) {
      const std::vector<float> src = evolving(n, round);
      std::vector<float> d1(n, 0.0f), d4(n, 0.0f);
      p1.transfer(b1, src, d1);
      p4.transfer(b4, src, d4);
      EXPECT_EQ(d1, d4) << "n=" << n << " round " << round;
    }
  }
}

TEST(Pipeline, DepthChangeBetweenEpochsForcesKeyframes) {
  const std::size_t n = 3 * Fp16Codec::kParallelThreshold;
  ShmComm backend;
  StreamPipeline pipe(int8_config(1), kK, StreamPipeline::Direction::kPush);

  // Reach int8 steady state at depth 1: the transfer is now lossy.
  std::vector<float> dst(n, 0.0f);
  for (int round = 0; round < 3; ++round) {
    pipe.transfer(backend, evolving(n, round), dst);
  }
  const std::vector<float> steady = evolving(n, 3);
  pipe.transfer(backend, steady, dst);
  EXPECT_NE(std::memcmp(dst.data(), steady.data(), n * sizeof(float)), 0)
      << "int8 steady state should quantize (test premise)";

  // Deepening the window re-partitions codec state; the next transfer per
  // chunk must be a lossless fp32 keyframe, not a decode against stale EF
  // references.
  pipe.set_depth(4);
  const std::vector<float> after = evolving(n, 4);
  pipe.transfer(backend, after, dst);
  EXPECT_EQ(std::memcmp(dst.data(), after.data(), n * sizeof(float)), 0)
      << "first transfer after a depth change must be a keyframe";

  // And back down to 1: same contract crossing the other way.
  pipe.set_depth(1);
  const std::vector<float> shallow = evolving(n, 5);
  pipe.transfer(backend, shallow, dst);
  EXPECT_EQ(std::memcmp(dst.data(), shallow.data(), n * sizeof(float)), 0);

  // reset_state() alone (no depth change) also forces keyframes.
  pipe.transfer(backend, evolving(n, 6), dst);  // steady again
  pipe.reset_state();
  const std::vector<float> reset_round = evolving(n, 7);
  pipe.transfer(backend, reset_round, dst);
  EXPECT_EQ(std::memcmp(dst.data(), reset_round.data(), n * sizeof(float)), 0);
}

TEST(Pipeline, ChecksumRetryResendsByteIdenticalWirePerChunk) {
  // Corrupt exactly one mid-stream chunk; the pipeline's retry must
  // re-submit the pristine slot bytes (EF state commits only at decode),
  // and the healed run must match an unfaulted depth-1 run bit for bit.
  const std::size_t n = 4 * Fp16Codec::kParallelThreshold;
  ShmComm backend;
  backend.set_checksum_enabled(true);
  StreamPipeline pipe(int8_config(3), kK, StreamPipeline::Direction::kPush);

  ShmComm ref_backend;
  ref_backend.set_checksum_enabled(true);
  StreamPipeline ref(int8_config(1), kK, StreamPipeline::Direction::kPush);

  std::vector<std::vector<std::byte>> seen;  // pristine copies, pre-corruption
  int corrupt_at = 2;  // the third chunk the tap sees
  backend.set_wire_tap([&](std::span<std::byte> wire) {
    seen.emplace_back(wire.begin(), wire.end());
    if (corrupt_at-- == 0 && !wire.empty()) wire[0] ^= std::byte{0xff};
  });

  int retries = 0;
  const StreamPipeline::RetryFn retry = [&](const std::function<void()>& f) {
    for (;;) {
      try {
        f();
        return;
      } catch (const ChecksumError&) {
        ++retries;
      }
    }
  };

  for (int round = 0; round < 3; ++round) {
    const std::vector<float> src = evolving(n, round);
    std::vector<float> dst(n, 0.0f), ref_dst(n, 0.0f);
    pipe.transfer(backend, src, dst, retry);
    ref.transfer(ref_backend, src, ref_dst);
    EXPECT_EQ(ref_dst, dst) << "round " << round;
  }
  EXPECT_EQ(retries, 1);
  // The re-sent chunk (first tap call after the corrupted one) must equal
  // the corrupted chunk's pristine bytes exactly.
  ASSERT_GE(seen.size(), 4u);
  EXPECT_EQ(seen[3], seen[2]) << "retry must re-send byte-identical wire";
}

TEST(Pipeline, SparseIndexedFramingRoundTripsAndRejectsMismatch) {
  // Satellite: sparse pushes route through the int8 codec with their row
  // indices in-band.  Values must match the un-framed int8 stream exactly;
  // a receiver whose expected row set disagrees must reject before commit.
  const std::size_t rows = 24;
  const std::size_t n = rows * kK;
  std::vector<std::uint32_t> indices(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    indices[r] = static_cast<std::uint32_t>(3 * r + 1);
  }

  SparseIndexedCodec framed(std::make_unique<Int8Codec>(kK, 0), kK);
  framed.set_rows(indices);
  Int8Codec plain(kK, 0);
  EXPECT_EQ(framed.name(), "sparse+int8");
  EXPECT_TRUE(framed.stateful());
  EXPECT_EQ(framed.encoded_bytes(n),
            SparseIndexedCodec::header_bytes(rows) + plain.encoded_bytes(n));

  for (int round = 0; round < 4; ++round) {
    const std::vector<float> src = evolving(n, round);
    std::vector<std::byte> framed_wire(framed.encoded_bytes(n));
    std::vector<std::byte> plain_wire(plain.encoded_bytes(n));
    framed.encode(src, framed_wire);
    plain.encode(src, plain_wire);
    // The inner payload is the exact int8 stream, shifted by the header.
    EXPECT_EQ(0, std::memcmp(
                     framed_wire.data() + SparseIndexedCodec::header_bytes(rows),
                     plain_wire.data(), plain_wire.size()));
    std::vector<float> framed_dst(n, 0.0f), plain_dst(n, 0.0f);
    framed.decode(framed_wire, framed_dst);
    plain.decode(plain_wire, plain_dst);
    EXPECT_EQ(plain_dst, framed_dst) << "round " << round;
  }

  // Mismatched expectation: decode must throw before the inner codec
  // commits any state.
  std::vector<std::byte> wire(framed.encoded_bytes(n));
  framed.encode(evolving(n, 9), wire);
  std::vector<std::uint32_t> other = indices;
  other[5] += 1;
  framed.set_rows(other);
  std::vector<float> dst(n, 0.0f);
  EXPECT_THROW(framed.decode(wire, dst), ChecksumError);
}

TEST(Pipeline, SessionWindowedChunksHealUnderChaos) {
  // Depth-4 chunks over chaos links: the session's retransmit / dedup
  // machinery heals each windowed frame below the chunk API and the decoded
  // stream matches a clean in-process run bit for bit.
  const std::size_t n = 4 * Fp16Codec::kParallelThreshold;
  auto chaos_session = [](const std::string& spec) {
    TransportConfig config;
    config.kind = TransportKind::kChaos;
    config.link = "local";
    config.plan = fault::FaultPlan::parse(spec);
    return SessionComm(make_transport(config, 0), config, 0);
  };
  SessionComm dropping = chaos_session("drop:w0@e0n3");
  SessionComm duping = chaos_session("dup:w0@e0n3");

  StreamPipeline drop_pipe(int8_config(4), kK,
                           StreamPipeline::Direction::kPush);
  StreamPipeline dup_pipe(int8_config(4), kK,
                          StreamPipeline::Direction::kPush);
  ShmComm clean_backend;
  StreamPipeline clean(int8_config(4), kK, StreamPipeline::Direction::kPush);

  for (int round = 0; round < 4; ++round) {
    const std::vector<float> src = evolving(n, round);
    std::vector<float> drop_dst(n, 0.0f), dup_dst(n, 0.0f);
    std::vector<float> clean_dst(n, 0.0f);
    drop_pipe.transfer(dropping, src, drop_dst);
    dup_pipe.transfer(duping, src, dup_dst);
    clean.transfer(clean_backend, src, clean_dst);
    EXPECT_EQ(clean_dst, drop_dst) << "drop round " << round;
    EXPECT_EQ(clean_dst, dup_dst) << "dup round " << round;
    EXPECT_EQ(dropping.chunks_in_flight(), 0u);
    EXPECT_EQ(duping.chunks_in_flight(), 0u);
  }
  EXPECT_GE(dropping.transport_stats().retransmits, 1u);
  EXPECT_GE(duping.transport_stats().dup_discards, 1u);
}

TEST(Pipeline, ThreadedRingRepeatsInlineWireOverChaosSession) {
  // The encoder thread only decides which thread encodes: over a chaos
  // session that drops, duplicates, reorders and severs, the threaded
  // ring makes the inline ring's backend calls in the same order, so the
  // decoded floats, every protocol counter and the virtual clock agree.
  const std::size_t n = 8 * Fp16Codec::kParallelThreshold + 3 * kK;
  auto chaos_session = [] {
    TransportConfig config;
    config.kind = TransportKind::kChaos;
    config.link = "local";
    config.plan = fault::FaultPlan::parse(
        "drop:w0@e0n2;dup:w0@e1n3;reorder:w0@e2n2;disconnect:w0@e3n2");
    return SessionComm(make_transport(config, 0), config, 0);
  };
  SessionComm inline_link = chaos_session();
  SessionComm threaded_link = chaos_session();
  StreamPipeline inline_pipe(int8_config(4), kK,
                             StreamPipeline::Direction::kPush);
  StreamPipeline threaded_pipe(int8_config(4), kK,
                               StreamPipeline::Direction::kPush);
  ASSERT_GT(inline_pipe.chunk_count(n), 5u);

  for (std::uint32_t round = 0; round < 5; ++round) {
    const std::vector<float> src = evolving(n, static_cast<int>(round));
    std::vector<float> inline_dst(n, 0.0f), threaded_dst(n, 0.0f);
    inline_link.begin_epoch(round);
    threaded_link.begin_epoch(round);
    StreamPipeline::set_threading(StreamPipeline::Threading::kInline);
    inline_pipe.transfer(inline_link, src, inline_dst);
    StreamPipeline::set_threading(StreamPipeline::Threading::kThreaded);
    threaded_pipe.transfer(threaded_link, src, threaded_dst);
    StreamPipeline::set_threading(StreamPipeline::Threading::kAuto);
    EXPECT_EQ(inline_dst, threaded_dst) << "round " << round;

    const TransportStats& a = inline_link.transport_stats();
    const TransportStats& b = threaded_link.transport_stats();
    EXPECT_EQ(a.frames, b.frames) << "round " << round;
    EXPECT_EQ(a.retransmits, b.retransmits) << "round " << round;
    EXPECT_EQ(a.reconnects, b.reconnects) << "round " << round;
    EXPECT_EQ(a.dup_discards, b.dup_discards) << "round " << round;
    EXPECT_EQ(inline_link.link_transport().now(),
              threaded_link.link_transport().now())
        << "round " << round;
  }
  // The schedule really fired, so the equalities above compare healing.
  const TransportStats& healed = threaded_link.transport_stats();
  EXPECT_GE(healed.retransmits, 1u);
  EXPECT_GE(healed.dup_discards, 1u);
  EXPECT_GE(healed.reconnects, 1u);
}

TEST(Pipeline, CostModelUsesOverlapTermForDeepPipelines) {
  // Eq. 1 extension: with depth > 1 and modeled codec rates, a direction
  // costs max(encode, wire, commit) instead of the serial wire time.
  const sim::DatasetShape shape{"netflix", 480190, 17771, 99072112, 128};
  const auto dev = sim::rtx_2080();
  CommConfig config;
  config.codec = CodecKind::kInt8;
  config.pipeline_depth = 1;
  const auto plan1 = comm::make_comm_plan(config, shape, dev);
  EXPECT_EQ(plan1.pipeline_depth, 1u);
  EXPECT_EQ(plan1.encode_gbs, 0.0);  // depth 1 never models overlap

  config.pipeline_depth = 4;
  const auto plan4 = comm::make_comm_plan(config, shape, dev);
  EXPECT_EQ(plan4.pipeline_depth, 4u);
  EXPECT_GT(plan4.encode_gbs, 0.0);
  EXPECT_GT(plan4.commit_gbs, 0.0);
  EXPECT_GT(plan4.pull_raw_bytes, plan4.pull_bytes);  // int8 compresses

  const double bus_gbs = sim::bus_bandwidth_gbs(dev.bus) *
                         plan4.bus_efficiency * 1e9;
  auto dir_s = [&](double wire, double raw) {
    return std::max({raw / (plan4.encode_gbs * 1e9), wire / bus_gbs,
                     raw / (plan4.commit_gbs * 1e9)});
  };
  const double expected_comm =
      dir_s(plan4.pull_bytes, plan4.pull_raw_bytes) +
      dir_s(plan4.push_bytes, plan4.push_raw_bytes);
  const double comp = sim::compute_seconds(dev, shape, 0.5);
  const double t = core::predicted_worker_seconds(dev, shape, 0.5, plan4);
  EXPECT_NEAR(t, comp + expected_comm, 1e-12);

  // An unmodeled (fp16) codec at depth 4 predicts exactly the legacy time.
  CommConfig fp16 = config;
  fp16.codec = CodecKind::kFp16;
  const auto plan_fp16 = comm::make_comm_plan(fp16, shape, dev);
  EXPECT_EQ(plan_fp16.encode_gbs, 0.0);
  auto legacy = plan_fp16;
  legacy.pipeline_depth = 1;
  EXPECT_EQ(core::predicted_worker_seconds(dev, shape, 0.5, plan_fp16),
            core::predicted_worker_seconds(dev, shape, 0.5, legacy));
}

TEST(Pipeline, ConfigRejectsZeroOrHugeDepth) {
  core::HccMfConfig config;
  config.platform = sim::paper_workstation_hetero();
  config.sgd = mf::SgdConfig::for_dataset(0.05f, 0.01f, 16);
  config.comm.pipeline_depth = 0;
  auto has_depth_error = [](const std::vector<core::ConfigError>& errors) {
    return std::any_of(errors.begin(), errors.end(), [](const auto& e) {
      return e.code == core::ConfigErrorCode::kBadPipelineDepth;
    });
  };
  EXPECT_TRUE(has_depth_error(config.validate()));
  config.comm.pipeline_depth = 65;
  EXPECT_TRUE(has_depth_error(config.validate()));
  config.comm.pipeline_depth = 4;
  EXPECT_FALSE(has_depth_error(config.validate()));
}

TEST(Pipeline, DepthFourTrainingMatchesDepthOneRmseExactly) {
  // End-to-end anchor: full training at depth 4 (int8 wire, sparse off)
  // reproduces the depth-1 trajectory to parity — chunked state
  // partitioning is exact, not approximate.
  data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 23;
  gen.planted_rank = 4;
  const auto full = data::generate(spec, gen);
  util::Rng rng(24);
  auto [train, test] = data::train_test_split(full, 0.1, rng);

  auto config_for_depth = [&](std::uint32_t depth) {
    core::HccMfConfig config;
    config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
    config.sgd.epochs = 5;
    config.comm.codec = CodecKind::kInt8;
    config.comm.pipeline_depth = depth;
    config.platform = sim::paper_workstation_hetero();
    config.platform.workers.resize(3);
    for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
    config.dataset_name = spec.name;
    return config;
  };

  const core::TrainReport base =
      core::HccMf(config_for_depth(1)).train(train, &test);
  const core::TrainReport deep =
      core::HccMf(config_for_depth(4)).train(train, &test);
  ASSERT_EQ(base.epochs.size(), deep.epochs.size());
  EXPECT_NEAR(deep.epochs.back().test_rmse, base.epochs.back().test_rmse,
              1e-6);
}

}  // namespace
}  // namespace hcc::comm
