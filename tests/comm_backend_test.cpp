// Tests for the in-process COMM link (ShmComm): lossless delivery through a
// depth-1 pipeline, copy and byte accounting, and the chunk API's
// checksum / pristine re-send contract.
#include "comm/backend.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "comm/pipeline.hpp"
#include "util/rng.hpp"

namespace hcc::comm {
namespace {

std::vector<float> payload(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.2, 0.1));
  return v;
}

/// One chunk per transfer through `kind`'s codec.
StreamPipeline depth_one(CodecKind kind) {
  CommConfig config;
  config.codec = kind;
  return StreamPipeline(config, /*row_elems=*/1,
                        StreamPipeline::Direction::kPush);
}

std::vector<std::byte> bytes_of(std::size_t n, std::byte fill) {
  return std::vector<std::byte>(n, fill);
}

TEST(ShmComm, DeliversPayloadLosslesslyWithFp32) {
  ShmComm shm;
  StreamPipeline pipe = depth_one(CodecKind::kFp32);
  const auto src = payload(10000, 1);
  std::vector<float> dst(src.size());
  pipe.transfer(shm, src, dst);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(shm.name(), "COMM");
}

TEST(ShmComm, CountsOneCopyPerTransfer) {
  ShmComm shm;
  StreamPipeline pipe = depth_one(CodecKind::kFp32);
  const auto src = payload(100, 3);
  std::vector<float> dst(src.size());
  pipe.transfer(shm, src, dst);
  pipe.transfer(shm, src, dst);
  EXPECT_EQ(shm.stats().copies, 2u);
  EXPECT_EQ(shm.stats().wire_bytes, 2u * 400u);
  EXPECT_EQ(shm.stats().messages, 0u);
}

TEST(ShmComm, ChecksumResendReplacesTheCorruptChunkInOrder) {
  // A corrupt delivery throws; the caller's pristine re-send takes the
  // discarded chunk's place ahead of younger chunks already queued.
  ShmComm shm;
  shm.set_checksum_enabled(true);
  bool corrupt = true;
  shm.set_wire_tap([&corrupt](std::span<std::byte> wire) {
    if (corrupt) wire[0] ^= std::byte{0xff};
    corrupt = false;
  });
  const auto first = bytes_of(16, std::byte{1});
  const auto second = bytes_of(8, std::byte{2});
  shm.submit_chunk(first);
  shm.submit_chunk(second);
  EXPECT_EQ(shm.chunks_in_flight(), 2u);
  EXPECT_THROW(shm.await_chunk(), ChecksumError);
  shm.submit_chunk(first);
  auto got = shm.await_chunk();
  EXPECT_EQ(std::vector<std::byte>(got.begin(), got.end()), first);
  got = shm.await_chunk();
  EXPECT_EQ(std::vector<std::byte>(got.begin(), got.end()), second);
  EXPECT_EQ(shm.chunks_in_flight(), 0u);
  // Billed per delivered chunk, with the 8 out-of-band checksum bytes.
  EXPECT_EQ(shm.stats().wire_bytes, (16u + 8u) + (8u + 8u));
  EXPECT_THROW(shm.await_chunk(), std::runtime_error);
}

TEST(Backends, Fp16TransferHalvesWireBytes) {
  ShmComm shm;
  StreamPipeline pipe = depth_one(CodecKind::kFp16);
  const auto src = payload(1000, 6);
  std::vector<float> dst(src.size());
  pipe.transfer(shm, src, dst);
  EXPECT_EQ(shm.stats().wire_bytes, 2000u);
  // Payload arrives quantized but close.
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_NEAR(dst[i], src[i], 0.01f);
  }
}

TEST(Backends, StatsAccumulateAndReset) {
  ShmComm shm;
  StreamPipeline pipe = depth_one(CodecKind::kFp32);
  const auto src = payload(10, 7);
  std::vector<float> dst(src.size());
  pipe.transfer(shm, src, dst);
  EXPECT_GT(shm.stats().wire_bytes, 0u);
  shm.reset_stats();
  EXPECT_EQ(shm.stats().wire_bytes, 0u);
  EXPECT_EQ(shm.stats().copies, 0u);
}

TEST(TransferStats, PlusEqualsAggregates) {
  TransferStats a{100, 1, 2};
  const TransferStats b{50, 3, 4};
  a += b;
  EXPECT_EQ(a.wire_bytes, 150u);
  EXPECT_EQ(a.copies, 4u);
  EXPECT_EQ(a.messages, 6u);
}

}  // namespace
}  // namespace hcc::comm
