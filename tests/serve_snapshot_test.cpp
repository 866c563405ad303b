// Tests for RCU snapshot publishing (serve/snapshot.hpp) and the
// train-while-serve path: concurrent readers during parallel training must
// race-free (TSan runs this suite) and must only ever observe complete
// epochs.
#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/hccmf.hpp"
#include "mf/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/metrics.hpp"
#include "util/rng.hpp"

namespace hcc::serve {
namespace {

std::shared_ptr<const ModelSnapshot> constant_snapshot(std::uint32_t epoch,
                                                       float value) {
  const std::uint32_t users = 8, items = 64, k = 16;
  std::vector<float> p(std::size_t(users) * k, value);
  std::vector<float> q(std::size_t(items) * k, value);
  auto s = std::make_shared<ModelSnapshot>();
  s->epoch = epoch;
  s->store = FactorStore(StoreKind::kFp32, users, items, k, p, q);
  return s;
}

TEST(ServeSnapshot, CurrentIsNullBeforeFirstPublish) {
  SnapshotRegistry registry;
  EXPECT_EQ(registry.current(), nullptr);
  EXPECT_EQ(registry.published(), 0u);
  registry.publish(constant_snapshot(1, 1.0f));
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->epoch, 1u);
  EXPECT_EQ(registry.published(), 1u);
}

TEST(ServeSnapshot, OldReadersKeepTheirSnapshotAcrossPublishes) {
  SnapshotRegistry registry;
  registry.publish(constant_snapshot(1, 1.0f));
  const auto held = registry.current();
  registry.publish(constant_snapshot(2, 2.0f));
  EXPECT_EQ(held->epoch, 1u);
  EXPECT_EQ(registry.current()->epoch, 2u);
  std::vector<float> row(held->store.k());
  held->store.decode_p_row(0, row.data());
  EXPECT_EQ(row[0], 1.0f);
}

TEST(ServeSnapshot, ConcurrentReadersAlwaysSeeACompleteEpoch) {
  // The publisher swaps snapshots whose every value equals their epoch
  // number; readers decode random rows and verify internal consistency —
  // any torn publish or half-visible store shows up as a mixed row (and
  // as a TSan report under the sanitizer job).
  SnapshotRegistry registry;
  registry.publish(constant_snapshot(1, 1.0f));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(100 + t);
      std::vector<float> row;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = registry.current();
        const float expect = static_cast<float>(snap->epoch);
        row.resize(snap->store.k());
        const auto u =
            static_cast<std::uint32_t>(rng.uniform_u64(snap->store.users()));
        snap->store.decode_p_row(u, row.data());
        for (const float v : row) {
          if (v != expect) torn.store(true, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint32_t epoch = 2; epoch <= 40; ++epoch) {
    registry.publish(constant_snapshot(epoch, static_cast<float>(epoch)));
  }
  // On a loaded single-core host the 39 publishes can finish before any
  // reader is first scheduled; keep the snapshot live until every reader
  // has completed at least a few reads so the assertion below is
  // deterministic (readers never block, so this always terminates).
  while (reads.load(std::memory_order_relaxed) < 16) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(torn.load());
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(registry.published(), 40u);
}

struct SmallProblem {
  data::RatingMatrix train{0, 0};
  data::RatingMatrix test{0, 0};
  data::DatasetSpec spec;
};

SmallProblem netflix_small(double scale = 0.002) {
  SmallProblem pr;
  pr.spec = data::netflix_spec().scaled(scale);
  data::GeneratorConfig gen;
  gen.seed = 5;
  gen.planted_rank = 4;
  const auto full = data::generate(pr.spec, gen);
  util::Rng rng(6);
  auto [train, test] = data::train_test_split(full, 0.1, rng);
  pr.train = std::move(train);
  pr.test = std::move(test);
  return pr;
}

core::HccMfConfig serving_config(const data::DatasetSpec& spec) {
  core::HccMfConfig config;
  config.sgd = mf::SgdConfig::for_dataset(spec.reg_lambda, 0.01f, /*k=*/16);
  config.sgd.epochs = 6;
  config.comm.codec = comm::CodecKind::kFp32;
  config.platform = sim::paper_workstation_hetero();
  for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
  config.dataset_name = spec.name;
  config.publish_every = 1;
  config.publish_store = StoreKind::kFp32;
  config.snapshots = std::make_shared<SnapshotRegistry>();
  return config;
}

TEST(ServeSnapshot, ValidateRejectsPublishWithoutRegistry) {
  core::HccMfConfig config = serving_config(data::netflix_spec().scaled(0.002));
  config.snapshots = nullptr;
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, core::ConfigErrorCode::kPublishNeedsRegistry);
}

TEST(ServeTrainWhileServe, ParallelTrainingPublishesWhileReadersQuery) {
  // The acceptance scenario: parallel training with per-epoch publishes
  // and concurrent query threads.  Readers must always get answers, and
  // the final snapshot must equal the delivered model exactly.
  const SmallProblem pr = netflix_small();
  core::HccMfConfig config = serving_config(pr.spec);
  config.exec.mode = core::ExecMode::kParallel;
  auto registry = config.snapshots;
  const mf::SeenIndex seen(pr.train);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      TopKEngine engine;
      util::Rng rng(50 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = registry->current();
        if (snap == nullptr) continue;  // training hasn't published yet
        const auto u =
            static_cast<std::uint32_t>(rng.uniform_u64(snap->store.users()));
        const auto recs = engine.top_k(*snap, u, 5, &seen);
        if (!recs.empty()) answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  core::HccMf framework(config);
  const core::TrainReport report = framework.train(pr.train, &pr.test);
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_GT(answered.load(), 0u);
  // One publish per epoch boundary except the last, plus the final model.
  EXPECT_EQ(registry->published(),
            static_cast<std::uint64_t>(config.sgd.epochs));
  const auto final_snap = registry->current();
  ASSERT_NE(final_snap, nullptr);
  ASSERT_TRUE(report.model.has_value());
  // fp32 snapshot of the delivered model: byte-identical factors.
  const auto& model = *report.model;
  std::vector<float> row(model.k());
  for (const std::uint32_t u : {0u, model.users() - 1}) {
    final_snap->store.decode_p_row(u, row.data());
    for (std::uint32_t f = 0; f < model.k(); ++f) {
      EXPECT_EQ(row[f], model.p(u)[f]) << "user " << u;
    }
  }
  EXPECT_TRUE(std::isfinite(report.epochs.back().test_rmse));
}

TEST(ServeTrainWhileServe, SerialTrajectoryUnchangedByPublishing) {
  // Publishing is read-only for the trainer: the trained model with
  // snapshots on must be bit-identical to one trained without.
  const SmallProblem pr = netflix_small();
  core::HccMfConfig with = serving_config(pr.spec);
  core::HccMfConfig without = serving_config(pr.spec);
  without.publish_every = 0;
  without.snapshots = nullptr;
  const auto report_with = core::HccMf(with).train(pr.train, &pr.test);
  const auto report_without = core::HccMf(without).train(pr.train, &pr.test);
  ASSERT_TRUE(report_with.model.has_value());
  ASSERT_TRUE(report_without.model.has_value());
  const auto& a = *report_with.model;
  const auto& b = *report_without.model;
  ASSERT_EQ(a.users(), b.users());
  for (std::uint32_t u = 0; u < a.users(); ++u) {
    for (std::uint32_t f = 0; f < a.k(); ++f) {
      ASSERT_EQ(a.p(u)[f], b.p(u)[f]) << "user " << u;
    }
  }
  for (std::uint32_t i = 0; i < a.items(); ++i) {
    for (std::uint32_t f = 0; f < a.k(); ++f) {
      ASSERT_EQ(a.q(i)[f], b.q(i)[f]) << "item " << i;
    }
  }
}

TEST(ServeSnapshot, QuantileInterpolationFromHistogram) {
  obs::Histogram h(std::vector<double>{1.0, 2.0, 4.0});
  EXPECT_EQ(histogram_quantile(h, 0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) h.observe(0.5);   // all in (0, 1]
  EXPECT_NEAR(histogram_quantile(h, 0.5), 0.5, 1e-9);
  for (int i = 0; i < 100; ++i) h.observe(3.0);   // (2, 4]
  EXPECT_NEAR(histogram_quantile(h, 0.75), 3.0, 1e-9);
  EXPECT_NEAR(histogram_quantile(h, 1.0), 4.0, 1e-9);
  h.observe(100.0);  // overflow clamps to the last bound
  EXPECT_NEAR(histogram_quantile(h, 0.9999), 4.0, 1e-9);
}

}  // namespace
}  // namespace hcc::serve
