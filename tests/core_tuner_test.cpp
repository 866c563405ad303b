// Tests for the communication auto-tuner.
#include "core/tuner.hpp"

#include <gtest/gtest.h>

namespace hcc::core {
namespace {

sim::DatasetShape netflix_shape() {
  return {"netflix", 480190, 17771, 99072112, 128};
}
sim::DatasetShape movielens_shape() {
  return {"movielens", 138494, 131263, 20000260, 128};
}
sim::DatasetShape r1star_shape() {
  return {"r1star", 1948883, 1101750, 199999997, 128};
}

TEST(Tuner, TriesTheWholeGrid) {
  const TuneResult result =
      tune_comm(sim::paper_workstation_hetero(), netflix_shape());
  EXPECT_EQ(result.trials.size(), 2u * 2u * 3u * 2u);
  // Trials sorted best-first.
  for (std::size_t i = 1; i < result.trials.size(); ++i) {
    EXPECT_LE(result.trials[i - 1].epoch_seconds,
              result.trials[i].epoch_seconds);
  }
  EXPECT_EQ(result.best.epoch_seconds, result.trials.front().epoch_seconds);
}

TEST(Tuner, BestNeverLosesToDefault) {
  for (const auto& shape :
       {netflix_shape(), movielens_shape(), r1star_shape()}) {
    const TuneResult result =
        tune_comm(sim::paper_workstation_hetero(), shape);
    // The default config (reduced payload, fp16, 1 stream, no pruning) is
    // in the grid, so the winner can only be at least as good.
    comm::CommConfig default_comm;
    DataManager manager(sim::paper_workstation_hetero(), shape,
                        default_comm);
    const double default_epoch =
        manager.simulated_epoch_seconds(manager.plan());
    EXPECT_LE(result.best.epoch_seconds, default_epoch * (1.0 + 1e-9))
        << shape.name;
  }
}

TEST(Tuner, PicksPayloadReductionAndFp16) {
  // On every paper shape the wire optimizations are strict wins.
  for (const auto& shape : {netflix_shape(), movielens_shape()}) {
    const TuneResult result =
        tune_comm(sim::paper_workstation_hetero(), shape);
    EXPECT_TRUE(result.best.comm.reduce_payload) << shape.name;
    EXPECT_EQ(result.best.comm.codec, comm::CodecKind::kFp16) << shape.name;
  }
}

TEST(Tuner, EnginesMatterOnCommBoundShapes) {
  // MovieLens (comm ~ compute): the winner uses streams and/or pruning.
  const TuneResult result =
      tune_comm(sim::paper_workstation_hetero(), movielens_shape());
  EXPECT_TRUE(result.best.comm.streams > 1 || result.best.prune)
      << result.summary();
}

TEST(Tuner, SummaryMentionsDecisions) {
  const TuneResult result =
      tune_comm(sim::paper_workstation_hetero(), netflix_shape());
  const std::string s = result.summary();
  EXPECT_NE(s.find("payload="), std::string::npos);
  EXPECT_NE(s.find("codec=fp16"), std::string::npos);
  EXPECT_NE(s.find("streams="), std::string::npos);
  EXPECT_NE(s.find("strategy="), std::string::npos);
}

TEST(Tuner, DeterministicAcrossRuns) {
  const TuneResult a =
      tune_comm(sim::paper_workstation_hetero(), r1star_shape());
  const TuneResult b =
      tune_comm(sim::paper_workstation_hetero(), r1star_shape());
  EXPECT_EQ(a.best.epoch_seconds, b.best.epoch_seconds);
  EXPECT_EQ(a.best.comm.streams, b.best.comm.streams);
  EXPECT_EQ(a.best.comm.codec, b.best.comm.codec);
}

}  // namespace
}  // namespace hcc::core
