// Tests for the sparse-push extension ("Strategy 4"): only touched Q rows
// travel and merge.
#include <gtest/gtest.h>

#include <cmath>

#include "comm/strategy.hpp"
#include "core/hccmf.hpp"
#include "core/server.hpp"
#include "core/worker.hpp"
#include "data/datasets.hpp"
#include "mf/metrics.hpp"

namespace hcc {
namespace {

TEST(TouchedFraction, BallsInBinsLimits) {
  using comm::expected_touched_fraction;
  EXPECT_DOUBLE_EQ(expected_touched_fraction(0.0, 1000.0), 0.0);
  EXPECT_DOUBLE_EQ(expected_touched_fraction(10.0, 0.0), 0.0);
  // nnz == n: 1 - 1/e.
  EXPECT_NEAR(expected_touched_fraction(1000.0, 1000.0), 1.0 - std::exp(-1.0),
              1e-12);
  // nnz >> n: everything touched.
  EXPECT_NEAR(expected_touched_fraction(1e7, 1000.0), 1.0, 1e-9);
  // Monotone in nnz.
  EXPECT_LT(expected_touched_fraction(100.0, 1000.0),
            expected_touched_fraction(500.0, 1000.0));
}

TEST(SparsePlan, ShrinksBytesOnSparseAssignments) {
  // A worker holding few ratings relative to n transmits far less.
  const sim::DatasetShape shape{"", 8000000, 8000000, 100000000, 128};
  comm::CommConfig dense;
  dense.codec = comm::CodecKind::kFp32;
  comm::CommConfig sparse = dense;
  sparse.sparse = true;

  const auto dev = sim::rtx_2080s();
  const auto dense_plan =
      comm::make_comm_plan(dense, shape, dev, false, 0.25);
  const auto sparse_plan =
      comm::make_comm_plan(sparse, shape, dev, false, 0.25);
  // share 0.25 -> nnz_w/n ~ 3.1 -> touched ~ 96%: small gain here...
  EXPECT_LT(sparse_plan.push_bytes, dense_plan.push_bytes * 1.01);

  // ... but with 16 notional workers (share 1/16 -> nnz_w/n ~ 0.78,
  // touched ~ 54%) the gain is large.
  const auto sparse_small =
      comm::make_comm_plan(sparse, shape, dev, false, 1.0 / 16.0);
  const auto dense_small =
      comm::make_comm_plan(dense, shape, dev, false, 1.0 / 16.0);
  EXPECT_LT(sparse_small.push_bytes, 0.7 * dense_small.push_bytes);
  EXPECT_LT(sparse_small.sync_bytes, 0.6 * dense_small.sync_bytes);
}

TEST(SparsePlan, LastEpochStaysDense) {
  const sim::DatasetShape shape{"", 100000, 100000, 200000, 32};
  comm::CommConfig sparse;
  sparse.sparse = true;
  sparse.codec = comm::CodecKind::kFp32;
  const auto dev = sim::rtx_2080s();
  const auto mid = comm::make_comm_plan(sparse, shape, dev, false, 0.5);
  const auto last = comm::make_comm_plan(sparse, shape, dev, true, 0.5);
  EXPECT_GT(last.push_bytes, mid.push_bytes);  // final P&Q push is full
}

comm::CommConfig sparse_fp32() {
  comm::CommConfig c;
  c.sparse = true;
  c.codec = comm::CodecKind::kFp32;
  return c;
}

TEST(SparseWorker, CountsTouchedItemsAndShrinksWire) {
  // Slice touches 3 of 100 items; wire = 2 transfers x 3 rows x k floats.
  data::RatingMatrix slice(10, 100);
  slice.add(0, 5, 4.0f);
  slice.add(1, 50, 3.0f);
  slice.add(1, 99, 2.0f);
  slice.add(0, 5, 1.0f);  // duplicate item: still one row

  mf::FactorModel model(10, 100, 8);
  util::Rng rng(1);
  model.init_random(rng, 3.0f);
  core::Server server(std::move(model), sparse_fp32());
  core::TrainWorker worker(0, "dev", std::move(slice), sparse_fp32());
  EXPECT_EQ(worker.touched_items(), 3u);

  worker.pull(server);
  worker.push(server);
  EXPECT_EQ(worker.comm_stats().wire_bytes, 2u * 3u * 8u * 4u);
}

TEST(SparseWorker, UntouchedRowsNeverChange) {
  data::RatingMatrix slice(4, 20);
  slice.add(0, 7, 5.0f);
  mf::FactorModel model(4, 20, 4);
  util::Rng rng(2);
  model.init_random(rng, 3.0f);
  const std::vector<float> q_before(model.q_data().begin(),
                                    model.q_data().end());
  core::Server server(std::move(model), sparse_fp32());
  core::TrainWorker worker(0, "dev", std::move(slice), sparse_fp32());
  for (int e = 0; e < 5; ++e) {
    worker.pull(server);
    worker.compute_chunk(server, 0, 0.05f, 0.001f, 0.001f);
    worker.push(server);
  }
  const auto q_after = server.model().q_data();
  for (std::uint32_t item = 0; item < 20; ++item) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      const std::size_t idx = std::size_t(item) * 4 + f;
      if (item == 7) continue;
      EXPECT_EQ(q_after[idx], q_before[idx]) << "item " << item;
    }
  }
  // The touched item did move.
  EXPECT_NE(q_after[7 * 4], q_before[7 * 4]);
}

TEST(SparseHccMf, ConvergesLikeDense) {
  const data::DatasetSpec spec = data::netflix_spec().scaled(0.002);
  data::GeneratorConfig gen;
  gen.seed = 23;
  gen.planted_rank = 4;
  const auto full = data::generate(spec, gen);
  util::Rng rng(24);
  const auto [train, test] = data::train_test_split(full, 0.1, rng);

  auto run = [&](bool sparse) {
    core::HccMfConfig config;
    config.sgd = mf::SgdConfig::for_dataset(0.02f, 0.01f, 16);
    config.sgd.epochs = 8;
    config.comm.codec = comm::CodecKind::kFp32;
    config.comm.sparse = sparse;
    config.platform = sim::paper_workstation_hetero();
    for (auto& w : config.platform.workers) w.epoch_overhead_s = 0.0;
    config.dataset_name = spec.name;
    return core::HccMf(config).train(train, &test);
  };
  const core::TrainReport dense = run(false);
  const core::TrainReport sparse = run(true);
  EXPECT_NEAR(sparse.epochs.back().test_rmse, dense.epochs.back().test_rmse,
              0.05);
  // The wire can only get lighter.
  EXPECT_LE(sparse.comm_totals.wire_bytes, dense.comm_totals.wire_bytes);
}

}  // namespace
}  // namespace hcc
