// Unit tests for the fault-tolerance building blocks: plan parsing, the
// deterministic injector, checkpoint stores, deadline detection, and the
// degraded-mode repartition helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <vector>

#include "comm/backend.hpp"
#include "core/adaptive.hpp"
#include "core/hccmf.hpp"
#include "fault/checkpoint.hpp"
#include "fault/errors.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "util/rng.hpp"

namespace hcc::fault {
namespace {

TEST(FaultPlan, ParsesEveryEventKind) {
  const FaultPlan plan =
      FaultPlan::parse("kill:w1@e3;stall:w0@e2x4;corrupt:w2@e1s1n2");
  ASSERT_EQ(plan.events.size(), 3u);

  EXPECT_EQ(plan.events[0].kind, FaultKind::kKill);
  EXPECT_EQ(plan.events[0].worker, 1u);
  EXPECT_EQ(plan.events[0].epoch, 3u);

  EXPECT_EQ(plan.events[1].kind, FaultKind::kStall);
  EXPECT_EQ(plan.events[1].worker, 0u);
  EXPECT_EQ(plan.events[1].epoch, 2u);
  EXPECT_DOUBLE_EQ(plan.events[1].stall_factor, 4.0);

  EXPECT_EQ(plan.events[2].kind, FaultKind::kCorrupt);
  EXPECT_EQ(plan.events[2].worker, 2u);
  EXPECT_EQ(plan.events[2].epoch, 1u);
  EXPECT_EQ(plan.events[2].chunk, 1u);
  EXPECT_EQ(plan.events[2].count, 2u);
}

TEST(FaultPlan, CorruptDefaultsChunkZeroCountOne) {
  const FaultPlan plan = FaultPlan::parse("corrupt:w0@e5");
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].chunk, 0u);
  EXPECT_EQ(plan.events[0].count, 1u);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const char* spec = "kill:w1@e3;stall:w0@e2x4;corrupt:w2@e1s1n2";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.to_string(), spec);
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).events, plan.events);
}

TEST(FaultPlan, EmptySpecMeansInertPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(";;").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("explode:w0@e1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill:w@e1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill:w0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("stall:w0@e1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("stall:w0@e1x1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("corrupt:w0@e1n0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("kill:w0@e1junk"), std::invalid_argument);
}

TEST(FaultPlan, ReadsEnvironmentVariable) {
  ::setenv("HCCMF_FAULT_PLAN", "kill:w2@e7", 1);
  ::setenv("HCCMF_FAULT_SEED", "99", 1);
  const FaultPlan plan = plan_from_env();
  ::unsetenv("HCCMF_FAULT_PLAN");
  ::unsetenv("HCCMF_FAULT_SEED");
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].worker, 2u);
  EXPECT_EQ(plan.events[0].epoch, 7u);
  EXPECT_EQ(plan.seed, 99u);
  EXPECT_TRUE(plan_from_env().empty());
}

TEST(FaultInjector, KillFiresExactlyOnceAtItsEpoch) {
  FaultInjector injector(FaultPlan::parse("kill:w0@e1"));
  injector.begin_epoch(0);
  EXPECT_NO_THROW(injector.check_phase(0));
  injector.begin_epoch(1);
  EXPECT_THROW(injector.check_phase(0), WorkerKilledError);
  // Replaying the epoch after recovery must not re-fire the latched kill.
  injector.begin_epoch(1);
  EXPECT_NO_THROW(injector.check_phase(0));
  EXPECT_NO_THROW(injector.check_phase(1));
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_TRUE(injector.kill_scheduled(0, 1));
  EXPECT_FALSE(injector.kill_scheduled(0, 2));
  EXPECT_FALSE(injector.kill_scheduled(1, 1));
}

TEST(FaultInjector, StallFactorsStack) {
  FaultInjector injector(
      FaultPlan::parse("stall:w1@e2x4;stall:w1@e2x2;stall:w0@e3x8"));
  EXPECT_DOUBLE_EQ(injector.stall_factor(1, 2), 8.0);
  EXPECT_DOUBLE_EQ(injector.stall_factor(0, 3), 8.0);
  EXPECT_DOUBLE_EQ(injector.stall_factor(1, 3), 1.0);
  EXPECT_DOUBLE_EQ(injector.stall_factor(0, 0), 1.0);
}

TEST(FaultInjector, WireCorruptionIsDeterministicAndBounded) {
  const auto run_once = [](std::uint64_t seed) {
    FaultPlan plan = FaultPlan::parse("corrupt:w0@e0n1");
    plan.seed = seed;
    FaultInjector injector(std::move(plan));
    injector.begin_epoch(0);
    std::vector<std::byte> wire(64, std::byte{0});
    injector.begin_push(0, 0);
    injector.tap_wire(wire, 0);
    injector.end_push(0);
    return wire;
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  const auto c = run_once(8);
  EXPECT_EQ(a, b) << "same seed must corrupt the same bytes";
  EXPECT_NE(a, std::vector<std::byte>(64, std::byte{0}))
      << "armed tap must actually corrupt";
  EXPECT_NE(a, c) << "different seed should move the corruption";

  // The attempt budget (n1) is spent: a second delivery passes clean.
  FaultInjector injector(FaultPlan::parse("corrupt:w0@e0n1"));
  injector.begin_epoch(0);
  std::vector<std::byte> wire(64, std::byte{0});
  injector.begin_push(0, 0);
  injector.tap_wire(wire, 0);
  injector.end_push(0);
  EXPECT_NE(wire, std::vector<std::byte>(64, std::byte{0}));
  std::vector<std::byte> retry(64, std::byte{0});
  injector.begin_push(0, 0);
  injector.tap_wire(retry, 0);
  injector.end_push(0);
  EXPECT_EQ(retry, std::vector<std::byte>(64, std::byte{0}));
}

TEST(FaultInjector, CorruptionTripsWireChecksum) {
  std::vector<std::byte> wire(128, std::byte{0x3c});
  const std::uint64_t before = comm::wire_checksum(wire);
  FaultInjector injector(FaultPlan::parse("corrupt:w0@e0"));
  injector.begin_epoch(0);
  injector.begin_push(0, 0);
  injector.tap_wire(wire, 0);
  injector.end_push(0);
  EXPECT_NE(comm::wire_checksum(wire), before);
}

TEST(CheckpointStore, MemoryRoundTrip) {
  CheckpointStore store;
  EXPECT_FALSE(store.has_checkpoint());
  mf::FactorModel model(4, 3, 8);
  util::Rng rng(11);
  model.init_random(rng, 1.0f);
  store.save({5, 0.025f, 42, model});
  ASSERT_TRUE(store.has_checkpoint());
  EXPECT_EQ(store.latest().next_epoch, 5u);
  EXPECT_FLOAT_EQ(store.latest().lr, 0.025f);
  EXPECT_EQ(store.latest().rng_state, 42u);
  EXPECT_EQ(store.latest().model.p_data()[0], model.p_data()[0]);
  EXPECT_EQ(store.saved(), 1u);
}

TEST(CheckpointStore, DiskPersistAndLoadLatest) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "hccmf_ckpt_test").string();
  std::filesystem::remove_all(dir);
  CheckpointStore store(dir);
  mf::FactorModel model(4, 3, 8);
  util::Rng rng(12);
  model.init_random(rng, 1.0f);
  store.save({1, 0.01f, 7, model});
  model.p(0)[0] = 123.5f;
  store.save({2, 0.009f, 7, model});
  ASSERT_TRUE(std::filesystem::exists(dir + "/ckpt_1.hcck"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/ckpt_2.hcck"));

  const auto loaded = CheckpointStore::load_latest(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->next_epoch, 2u);
  EXPECT_FLOAT_EQ(loaded->lr, 0.009f);
  EXPECT_EQ(loaded->rng_state, 7u);
  EXPECT_FLOAT_EQ(loaded->model.p(0)[0], 123.5f);
  std::filesystem::remove_all(dir);
  EXPECT_FALSE(CheckpointStore::load_latest(dir).has_value());
}

TEST(StragglerMask, FlagsOnlyTheDeadlineViolator) {
  // Measured runs ~1000x slower than predicted across the board (different
  // clocks); worker 2 is 6x worse than its peers.
  const std::vector<obs::PhaseTimes> predicted = {
      {1e-3, 1e-2, 1e-3, 1e-4}, {1e-3, 1e-2, 1e-3, 1e-4},
      {1e-3, 1e-2, 1e-3, 1e-4}};
  std::vector<obs::PhaseTimes> measured = {
      {1.0, 10.0, 1.0, 0.1}, {1.1, 11.0, 1.1, 0.1}, {1.0, 60.0, 1.0, 0.1}};
  const auto mask = straggler_mask(measured, predicted, 4.0);
  ASSERT_EQ(mask.size(), 3u);
  EXPECT_FALSE(mask[0]);
  EXPECT_FALSE(mask[1]);
  EXPECT_TRUE(mask[2]);

  // Excluding the straggler via the alive mask clears every flag.
  const auto alive_mask =
      straggler_mask(measured, predicted, 4.0, {true, true, false});
  EXPECT_FALSE(alive_mask[0]);
  EXPECT_FALSE(alive_mask[1]);
  EXPECT_FALSE(alive_mask[2]);
}

TEST(Recovery, RedistributeDeadShareRenormalizes) {
  const auto shares = core::redistribute_dead_share({0.5, 0.3, 0.2}, 0);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_DOUBLE_EQ(shares[0], 0.0);
  EXPECT_NEAR(shares[1], 0.6, 1e-12);
  EXPECT_NEAR(shares[2], 0.4, 1e-12);
  EXPECT_NEAR(shares[0] + shares[1] + shares[2], 1.0, 1e-12);

  // Out-of-range dead index and all-dead platforms are left untouched.
  EXPECT_EQ(core::redistribute_dead_share({0.5, 0.5}, 7).size(), 2u);
  const auto all_dead = core::redistribute_dead_share({1.0, 0.0}, 0);
  EXPECT_DOUBLE_EQ(all_dead[0], 1.0);
}

TEST(Recovery, SplitEntriesRespectsRowBoundariesAndWeights) {
  data::RatingMatrix slice(10, 4);
  for (std::uint32_t u = 0; u < 10; ++u) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      slice.add(u, i, 1.0f + static_cast<float>(i));
    }
  }
  slice.sort_by_row();
  const auto batches = split_entries_by_shares(slice, {0.5, 0.0, 0.5});
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_TRUE(batches[1].empty()) << "zero-weight receivers get nothing";

  std::size_t total = 0;
  std::set<std::uint32_t> seen_rows;
  for (const auto& batch : batches) {
    std::set<std::uint32_t> batch_rows;
    for (const auto& e : batch) batch_rows.insert(e.u);
    for (const auto row : batch_rows) {
      EXPECT_TRUE(seen_rows.insert(row).second)
          << "row " << row << " split across receivers";
    }
    total += batch.size();
  }
  EXPECT_EQ(total, slice.nnz()) << "every entry must land somewhere";
  EXPECT_NEAR(static_cast<double>(batches[0].size()),
              static_cast<double>(batches[2].size()), 3.0 + 1e-9)
      << "near-equal weights should split near-equally";
}

TEST(Recovery, SplitEntriesOfAShuffledSliceMatchesAComparisonSort) {
  // A schedule-permuted victim slice: rows repeat, many (u, i) pairs
  // repeat, and each value is the input position.
  util::Rng rng(21);
  data::RatingMatrix slice(30, 6);
  for (std::uint32_t j = 0; j < 400; ++j) {
    slice.add(5 + static_cast<std::uint32_t>(rng.uniform_u64(20)),
              static_cast<std::uint32_t>(rng.uniform_u64(3)),
              static_cast<float>(j));
  }
  slice.shuffle(rng);

  // What the split did before its counting pass: a stable comparison
  // sort by row, then the row walk.  On row-sorted input the walk is all
  // there is, which the concatenation check below pins.
  std::vector<data::Rating> by_row(slice.entries().begin(),
                                   slice.entries().end());
  std::stable_sort(by_row.begin(), by_row.end(),
                   [](const data::Rating& a, const data::Rating& b) {
                     return a.u < b.u;
                   });
  const data::RatingMatrix sorted(slice.rows(), slice.cols(), by_row);

  for (const std::vector<double>& weights :
       {std::vector<double>{0.3, 0.0, 0.7}, std::vector<double>{0.25, 0.25,
                                                                0.25, 0.25},
        std::vector<double>{1.0}}) {
    const auto want = split_entries_by_shares(sorted, weights);
    std::vector<data::Rating> joined;
    for (const auto& batch : want) {
      joined.insert(joined.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(joined, by_row);
    EXPECT_EQ(split_entries_by_shares(slice, weights), want);
  }
}

TEST(ConfigValidate, CollectsTypedErrors) {
  core::HccMfConfig config;
  config.platform = sim::paper_workstation_hetero();
  EXPECT_TRUE(config.validate().empty());

  config.sgd.epochs = 0;
  config.sgd.learn_rate = -0.5f;
  config.comm.streams = 0;
  config.fault.deadline_factor = 0.0;
  const auto errors = config.validate();
  std::set<core::ConfigErrorCode> codes;
  for (const auto& err : errors) {
    codes.insert(err.code);
    EXPECT_FALSE(err.message.empty());
  }
  EXPECT_TRUE(codes.contains(core::ConfigErrorCode::kZeroEpochs));
  EXPECT_TRUE(codes.contains(core::ConfigErrorCode::kBadLearnRate));
  EXPECT_TRUE(codes.contains(core::ConfigErrorCode::kZeroStreams));
  EXPECT_TRUE(codes.contains(core::ConfigErrorCode::kBadDeadlineFactor));
}

TEST(ConfigValidate, TrainRefusesInvalidConfig) {
  core::HccMfConfig config;
  config.sgd.epochs = 0;
  core::HccMf framework(config);
  data::RatingMatrix ratings(4, 4);
  ratings.add(0, 0, 1.0f);
  EXPECT_THROW((void)framework.train(ratings), std::invalid_argument);
  EXPECT_THROW((void)framework.simulate({"tiny", 4, 4, 1, 8}),
               std::invalid_argument);
}

}  // namespace
}  // namespace hcc::fault
