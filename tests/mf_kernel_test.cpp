// Tests for the factor model and the SGD update kernel.
#include "mf/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "data/datasets.hpp"
#include "mf/metrics.hpp"
#include "util/rng.hpp"

namespace hcc::mf {
namespace {

TEST(FactorModel, AllocatesZeroed) {
  const FactorModel m(10, 5, 4);
  EXPECT_EQ(m.users(), 10u);
  EXPECT_EQ(m.items(), 5u);
  EXPECT_EQ(m.k(), 4u);
  EXPECT_EQ(m.p_data().size(), 40u);
  EXPECT_EQ(m.q_data().size(), 20u);
  for (float v : m.p_data()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(m.predict(3, 2), 0.0f);
}

TEST(FactorModel, RandomInitLandsNearMeanRating) {
  FactorModel m(200, 200, 16);
  util::Rng rng(4);
  m.init_random(rng, 3.0f);
  // E[p_f q_f] = scale^2/4 per term (uniform [0, scale)); prediction mean
  // = k * (sqrt(mean/k)/2)^2 = mean/4 — the standard init keeps initial
  // predictions at the rating scale's order of magnitude.
  double sum = 0.0;
  for (std::uint32_t u = 0; u < 200; ++u) sum += m.predict(u, u);
  EXPECT_NEAR(sum / 200.0, 0.75, 0.25);
  for (float v : m.p_data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, std::sqrt(3.0f / 16.0f));
  }
}

TEST(FactorModel, RowAccessorsAreConsistent) {
  FactorModel m(3, 3, 2);
  m.p(1)[0] = 1.5f;
  m.p(1)[1] = 2.5f;
  m.q(2)[0] = 2.0f;
  m.q(2)[1] = 4.0f;
  EXPECT_FLOAT_EQ(m.p_data()[2], 1.5f);
  EXPECT_FLOAT_EQ(m.p_data()[3], 2.5f);
  EXPECT_FLOAT_EQ(m.predict(1, 2), 1.5f * 2.0f + 2.5f * 4.0f);
}

TEST(SgdUpdate, ReturnsPreUpdateError) {
  std::vector<float> p{1.0f, 0.0f};
  std::vector<float> q{1.0f, 1.0f};
  const float err =
      sgd_update(p.data(), q.data(), 2, 3.0f, 0.0f, 0.0f, 0.0f);
  EXPECT_FLOAT_EQ(err, 2.0f);  // 3 - <p,q> = 3 - 1
  // lr = 0: no movement.
  EXPECT_FLOAT_EQ(p[0], 1.0f);
  EXPECT_FLOAT_EQ(q[1], 1.0f);
}

TEST(SgdUpdate, MatchesHandComputedStep) {
  std::vector<float> p{0.5f, 0.5f};
  std::vector<float> q{1.0f, 2.0f};
  const float lr = 0.1f;
  const float reg = 0.01f;
  // err = 4 - (0.5 + 1.0) = 2.5
  const float err = sgd_update(p.data(), q.data(), 2, 4.0f, lr, reg, reg);
  EXPECT_FLOAT_EQ(err, 2.5f);
  // p0' = 0.5 + 0.1*(2.5*1.0 - 0.01*0.5) = 0.7495
  EXPECT_NEAR(p[0], 0.7495f, 1e-6);
  // q0' = 1.0 + 0.1*(2.5*0.5 - 0.01*1.0) = 1.124 (uses the pre-update p)
  EXPECT_NEAR(q[0], 1.124f, 1e-6);
  // p1' = 0.5 + 0.1*(2.5*2.0 - 0.005) = 0.9995
  EXPECT_NEAR(p[1], 0.9995f, 1e-6);
  // q1' = 2.0 + 0.1*(2.5*0.5 - 0.02) = 2.123
  EXPECT_NEAR(q[1], 2.123f, 1e-6);
}

TEST(SgdUpdate, ReducesSquaredErrorOnRepetition) {
  util::Rng rng(9);
  std::vector<float> p(8), q(8);
  for (auto& v : p) v = static_cast<float>(rng.uniform());
  for (auto& v : q) v = static_cast<float>(rng.uniform());
  float prev = std::abs(sgd_update(p.data(), q.data(), 8, 4.0f, 0.05f,
                                   0.001f, 0.001f));
  for (int step = 0; step < 50; ++step) {
    const float err = std::abs(
        sgd_update(p.data(), q.data(), 8, 4.0f, 0.05f, 0.001f, 0.001f));
    EXPECT_LE(err, prev + 1e-5);
    prev = err;
  }
  EXPECT_LT(prev, 0.05f);
}

TEST(SgdUpdate, RegularizationShrinksUnusedDirections) {
  // With r exactly predicted (err = 0), only the L2 term acts.
  std::vector<float> p{2.0f};
  std::vector<float> q{0.0f};
  sgd_update(p.data(), q.data(), 1, 0.0f, 0.1f, 0.5f, 0.5f);
  EXPECT_FLOAT_EQ(p[0], 2.0f - 0.1f * 0.5f * 2.0f);
}

TEST(Metrics, RmseOfPerfectModelIsZero) {
  FactorModel m(2, 2, 2);
  m.p(0)[0] = 1.0f;
  m.q(0)[0] = 3.0f;
  data::RatingMatrix r(2, 2);
  r.add(0, 0, 3.0f);
  EXPECT_DOUBLE_EQ(rmse(m, r), 0.0);
}

TEST(Metrics, RmseMatchesHandValue) {
  FactorModel m(2, 2, 1);
  m.p(0)[0] = 1.0f;
  m.p(1)[0] = 1.0f;
  m.q(0)[0] = 1.0f;
  m.q(1)[0] = 2.0f;
  data::RatingMatrix r(2, 2);
  r.add(0, 0, 2.0f);  // err 1
  r.add(1, 1, 4.0f);  // err 2
  EXPECT_NEAR(rmse(m, r), std::sqrt((1.0 + 4.0) / 2.0), 1e-12);
}

TEST(Metrics, ParallelRmseMatchesSerial) {
  // Both overloads reduce the same fixed blocks in block order, so the
  // pool's size and thread timing cannot move a single bit.
  const data::DatasetSpec spec = data::movielens20m_spec().scaled(0.001);
  const data::RatingMatrix r = data::generate(spec, data::GeneratorConfig{});
  ASSERT_GT(r.nnz(), 3u * 4096u);  // several blocks per pool thread
  FactorModel m(spec.m, spec.n, 8);
  util::Rng rng(2);
  m.init_random(rng, 2.5f);
  const double serial = rmse(m, r);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    for (int repeat = 0; repeat < 3; ++repeat) {
      EXPECT_EQ(rmse(m, r, pool), serial) << threads << " threads";
    }
  }
}

TEST(Metrics, RmseOfEmptySetIsZero) {
  const FactorModel m(2, 2, 2);
  EXPECT_DOUBLE_EQ(rmse(m, data::RatingMatrix(2, 2)), 0.0);
}

TEST(Metrics, ObjectiveIncludesRegularization) {
  FactorModel m(1, 1, 1);
  m.p(0)[0] = 2.0f;
  m.q(0)[0] = 1.0f;
  data::RatingMatrix r(1, 1);
  r.add(0, 0, 3.0f);
  // loss = (3-2)^2 = 1; reg = 0.5*(4) + 0.5*(1) = 2.5
  EXPECT_NEAR(objective(m, r, 0.5f, 0.5f), 3.5, 1e-9);
}

}  // namespace
}  // namespace hcc::mf
