// Tests for the dataset catalogue and the synthetic generator.
#include "data/datasets.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>

namespace hcc::data {
namespace {

TEST(DatasetSpecs, MatchTable3) {
  const DatasetSpec nf = netflix_spec();
  EXPECT_EQ(nf.m, 480190u);
  EXPECT_EQ(nf.n, 17771u);
  EXPECT_EQ(nf.nnz, 99072112u);
  EXPECT_FLOAT_EQ(nf.reg_lambda, 0.01f);

  const DatasetSpec r1 = yahoo_r1_spec();
  EXPECT_EQ(r1.m, 1948883u);
  EXPECT_EQ(r1.n, 1101750u);
  EXPECT_EQ(r1.nnz, 115579437u);
  EXPECT_FLOAT_EQ(r1.reg_lambda, 1.0f);

  EXPECT_EQ(yahoo_r1_star_spec().nnz, 199999997u);
  EXPECT_EQ(yahoo_r2_spec().nnz, 383838609u);
  EXPECT_EQ(movielens20m_spec().nnz, 20000260u);
  EXPECT_EQ(paper_datasets().size(), 5u);
}

TEST(DatasetSpecs, LookupByName) {
  EXPECT_EQ(dataset_by_name("Netflix").name, "netflix");
  EXPECT_EQ(dataset_by_name("R1").name, "r1");
  EXPECT_EQ(dataset_by_name("r1*").name, "r1star");
  EXPECT_EQ(dataset_by_name("movielens-20m").name, "movielens");
  EXPECT_THROW(dataset_by_name("nope"), std::invalid_argument);
}

TEST(DatasetSpecs, NnzPerDimFlagsCommBoundDatasets) {
  // Section 3.4: comm ~ compute when nnz/(m+n) is small.  MovieLens and R1
  // are the paper's communication-bound cases.
  EXPECT_GT(netflix_spec().nnz_per_dim(), 150.0);
  EXPECT_GT(yahoo_r2_spec().nnz_per_dim(), 300.0);
  EXPECT_LT(yahoo_r1_spec().nnz_per_dim(), 50.0);
  EXPECT_LT(movielens20m_spec().nnz_per_dim(), 100.0);
}

TEST(DatasetSpecs, ScaledPreservesAspect) {
  const DatasetSpec nf = netflix_spec();
  const DatasetSpec small = nf.scaled(0.01);
  EXPECT_LT(small.m, nf.m);
  EXPECT_LT(small.nnz, nf.nnz);
  // nnz/(m+n) is the decision quantity; keep it the same order of magnitude.
  EXPECT_NEAR(small.nnz_per_dim() / nf.nnz_per_dim(), 1.0, 0.5);
  EXPECT_NE(small.name.find("netflix@"), std::string::npos);
}

TEST(DatasetSpecs, ScaledClampedToMinimums) {
  const DatasetSpec tiny = netflix_spec().scaled(1e-9);
  EXPECT_GE(tiny.m, 16u);
  EXPECT_GE(tiny.n, 16u);
  EXPECT_GE(tiny.nnz, 256u);
}

TEST(Generator, RespectsSpecDimensions) {
  DatasetSpec spec = netflix_spec().scaled(0.001);
  GeneratorConfig config;
  config.seed = 1;
  const RatingMatrix m = generate(spec, config);
  EXPECT_EQ(m.rows(), spec.m);
  EXPECT_EQ(m.cols(), spec.n);
  EXPECT_EQ(m.nnz(), spec.nnz);
  for (const auto& e : m.entries()) {
    EXPECT_LT(e.u, spec.m);
    EXPECT_LT(e.i, spec.n);
    EXPECT_GE(e.r, spec.rating_min);
    EXPECT_LE(e.r, spec.rating_max);
  }
}

TEST(Generator, QuantizesToHalfSteps) {
  DatasetSpec spec = netflix_spec().scaled(0.001);
  GeneratorConfig config;
  config.quantize_half_steps = true;
  const RatingMatrix m = generate(spec, config);
  for (const auto& e : m.entries()) {
    const float steps = (e.r - spec.rating_min) / 0.5f;
    EXPECT_NEAR(steps, std::round(steps), 1e-4) << "rating " << e.r;
  }
}

TEST(Generator, DeterministicForSeed) {
  DatasetSpec spec = movielens20m_spec().scaled(0.001);
  GeneratorConfig config;
  config.seed = 77;
  const RatingMatrix a = generate(spec, config);
  const RatingMatrix b = generate(spec, config);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t i = 0; i < a.nnz(); ++i) {
    EXPECT_EQ(a.entries()[i], b.entries()[i]);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  DatasetSpec spec = movielens20m_spec().scaled(0.001);
  GeneratorConfig ca;
  ca.seed = 1;
  GeneratorConfig cb;
  cb.seed = 2;
  const RatingMatrix a = generate(spec, ca);
  const RatingMatrix b = generate(spec, cb);
  std::size_t same = 0;
  for (std::size_t i = 0; i < a.nnz(); ++i) {
    same += (a.entries()[i] == b.entries()[i]);
  }
  EXPECT_LT(same, a.nnz() / 10);
}

TEST(Generator, PopularitySkewIsZipfLike) {
  DatasetSpec spec = netflix_spec().scaled(0.002);
  GeneratorConfig config;
  config.zipf_item = 1.0;
  const RatingMatrix m = generate(spec, config);
  auto counts = m.col_counts();
  std::sort(counts.begin(), counts.end(), std::greater<>());
  // Head items should dominate the tail heavily: under Zipf(1.0) the top
  // quarter of items carries well over half the ratings.
  std::size_t head = 0;
  for (std::size_t i = 0; i < counts.size() / 4; ++i) head += counts[i];
  EXPECT_GT(static_cast<double>(head), 0.5 * static_cast<double>(m.nnz()));
}

TEST(Generator, PlantedBiasesWidenRatingSpread) {
  DatasetSpec spec = movielens20m_spec().scaled(0.002);
  GeneratorConfig plain_gen;
  plain_gen.seed = 10;
  GeneratorConfig biased_gen = plain_gen;
  biased_gen.user_bias_stddev = 1.0f;
  biased_gen.item_bias_stddev = 1.0f;

  auto spread = [](const RatingMatrix& m) {
    double mean = 0.0;
    for (const auto& e : m.entries()) mean += e.r;
    mean /= static_cast<double>(m.nnz());
    double var = 0.0;
    for (const auto& e : m.entries()) {
      var += (e.r - mean) * (e.r - mean);
    }
    return var / static_cast<double>(m.nnz());
  };
  EXPECT_GT(spread(generate(spec, biased_gen)),
            spread(generate(spec, plain_gen)));
}

TEST(TrainTestSplit, PartitionsAllEntries) {
  DatasetSpec spec = movielens20m_spec().scaled(0.001);
  GeneratorConfig config;
  const RatingMatrix m = generate(spec, config);
  util::Rng rng(5);
  const auto [train, test] = train_test_split(m, 0.2, rng);
  EXPECT_EQ(train.nnz() + test.nnz(), m.nnz());
  EXPECT_EQ(train.rows(), m.rows());
  EXPECT_EQ(test.cols(), m.cols());
  const double frac =
      static_cast<double>(test.nnz()) / static_cast<double>(m.nnz());
  EXPECT_NEAR(frac, 0.2, 0.05);
}

TEST(TrainTestSplit, ZeroHoldoutKeepsEverything) {
  DatasetSpec spec = movielens20m_spec().scaled(0.001);
  const RatingMatrix m = generate(spec, GeneratorConfig{});
  util::Rng rng(5);
  const auto [train, test] = train_test_split(m, 0.0, rng);
  EXPECT_EQ(train.nnz(), m.nnz());
  EXPECT_EQ(test.nnz(), 0u);
}

}  // namespace
}  // namespace hcc::data
