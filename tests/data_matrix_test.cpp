// Tests for RatingMatrix.
#include "data/rating_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.hpp"

namespace hcc::data {
namespace {

RatingMatrix small_matrix() {
  RatingMatrix m(4, 3);
  m.add(0, 0, 5.0f);
  m.add(2, 1, 3.0f);
  m.add(1, 2, 4.0f);
  m.add(2, 0, 1.0f);
  m.add(3, 2, 2.0f);
  return m;
}

TEST(RatingMatrix, BasicAccounting) {
  const RatingMatrix m = small_matrix();
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 5u);
  EXPECT_DOUBLE_EQ(m.density(), 5.0 / 12.0);
}

TEST(RatingMatrix, EmptyDensityIsZero) {
  EXPECT_DOUBLE_EQ(RatingMatrix().density(), 0.0);
  EXPECT_DOUBLE_EQ(RatingMatrix(10, 10).density(), 0.0);
}

TEST(RatingMatrix, AppendBulkMatchesRepeatedAdd) {
  RatingMatrix bulk(4, 3);
  RatingMatrix one_by_one(4, 3);
  const std::vector<Rating> extra = {
      {0, 1, 2.5f}, {3, 0, 4.5f}, {1, 1, 1.0f}};
  bulk.add(2, 2, 3.0f);
  one_by_one.add(2, 2, 3.0f);
  bulk.append(extra);
  for (const Rating& r : extra) one_by_one.add(r.u, r.i, r.r);
  ASSERT_EQ(bulk.nnz(), one_by_one.nnz());
  const auto a = bulk.entries();
  const auto b = one_by_one.entries();
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].u, b[j].u);
    EXPECT_EQ(a[j].i, b[j].i);
    EXPECT_EQ(a[j].r, b[j].r);
  }
  // Appending nothing is a no-op.
  bulk.append({});
  EXPECT_EQ(bulk.nnz(), one_by_one.nnz());
}

TEST(RatingMatrix, SortByRowOrdersEntries) {
  RatingMatrix m = small_matrix();
  m.sort_by_row();
  const auto e = m.entries();
  for (std::size_t i = 1; i < e.size(); ++i) {
    EXPECT_TRUE(e[i - 1].u < e[i].u ||
                (e[i - 1].u == e[i].u && e[i - 1].i <= e[i].i));
  }
}

TEST(RatingMatrix, ShufflePreservesMultiset) {
  RatingMatrix m = small_matrix();
  util::Rng rng(1);
  m.shuffle(rng);
  EXPECT_EQ(m.nnz(), 5u);
  m.sort_by_row();
  const auto e = m.entries();
  EXPECT_EQ(e[0], (Rating{0, 0, 5.0f}));
  EXPECT_EQ(e[4], (Rating{3, 2, 2.0f}));
}

TEST(RatingMatrix, PermuteReordersByIndex) {
  RatingMatrix m = small_matrix();
  const std::vector<Rating> before(m.entries().begin(), m.entries().end());
  const std::vector<std::uint32_t> perm = {4, 2, 0, 3, 1};
  m.permute(perm);
  const auto after = m.entries();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t j = 0; j < perm.size(); ++j) {
    EXPECT_EQ(after[j], before[perm[j]]) << "position " << j;
  }
}

TEST(RatingMatrix, PermuteEmptyMatrixIsNoOp) {
  RatingMatrix empty(3, 3);
  empty.permute(std::span<const std::uint32_t>{});
  EXPECT_EQ(empty.nnz(), 0u);
}

TEST(RatingMatrix, PermuteSingleEntryIsIdentity) {
  RatingMatrix m(2, 2);
  m.add(1, 0, 2.5f);
  const std::vector<std::uint32_t> perm = {0};
  m.permute(perm);
  ASSERT_EQ(m.nnz(), 1u);
  EXPECT_EQ(m.entries()[0], (Rating{1, 0, 2.5f}));
}

TEST(RatingMatrix, PermuteKeepsDuplicatePairsDistinct) {
  // COO storage admits duplicate (u, i) pairs (e.g. re-rated items kept by
  // a loader); a permutation must move both copies, not collapse them.
  RatingMatrix m(2, 2);
  m.add(0, 1, 1.0f);
  m.add(0, 1, 2.0f);
  m.add(1, 1, 3.0f);
  const std::vector<std::uint32_t> perm = {1, 2, 0};
  m.permute(perm);
  ASSERT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.entries()[0], (Rating{0, 1, 2.0f}));
  EXPECT_EQ(m.entries()[1], (Rating{1, 1, 3.0f}));
  EXPECT_EQ(m.entries()[2], (Rating{0, 1, 1.0f}));
}

TEST(RatingMatrix, PermuteRoundTripRestoresOrderAndCounts) {
  util::Rng rng(7);
  RatingMatrix m(32, 16);
  for (int j = 0; j < 200; ++j) {
    m.add(static_cast<std::uint32_t>(rng.uniform() * 32),
          static_cast<std::uint32_t>(rng.uniform() * 16),
          static_cast<float>(rng.uniform() * 5.0));
  }
  const std::vector<Rating> before(m.entries().begin(), m.entries().end());
  const auto rows_before = m.row_counts();
  std::vector<std::uint32_t> perm(m.nnz());
  for (std::uint32_t j = 0; j < perm.size(); ++j) perm[j] = j;
  util::shuffle(perm, rng);
  std::vector<std::uint32_t> inverse(perm.size());
  for (std::uint32_t j = 0; j < perm.size(); ++j) inverse[perm[j]] = j;
  m.permute(perm);
  EXPECT_EQ(m.nnz(), before.size());
  EXPECT_EQ(m.row_counts(), rows_before);  // a permutation moves no mass
  m.permute(inverse);
  const auto restored = m.entries();
  for (std::size_t j = 0; j < before.size(); ++j) {
    EXPECT_EQ(restored[j], before[j]) << "position " << j;
  }
}

TEST(RatingMatrix, AppendAfterPermuteExtendsInOrder) {
  RatingMatrix m = small_matrix();
  const std::vector<std::uint32_t> perm = {3, 1, 4, 0, 2};
  m.permute(perm);
  const std::vector<Rating> extra = {{0, 2, 1.5f}, {3, 1, 4.5f}};
  m.append(extra);
  ASSERT_EQ(m.nnz(), 7u);
  EXPECT_EQ(m.entries()[5], extra[0]);
  EXPECT_EQ(m.entries()[6], extra[1]);
}

TEST(RatingMatrix, RowAndColCounts) {
  const RatingMatrix m = small_matrix();
  const auto rows = m.row_counts();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], 1u);
  EXPECT_EQ(rows[1], 1u);
  EXPECT_EQ(rows[2], 2u);
  EXPECT_EQ(rows[3], 1u);
  const auto cols = m.col_counts();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], 2u);
  EXPECT_EQ(cols[1], 1u);
  EXPECT_EQ(cols[2], 2u);
}

TEST(RatingMatrix, TransposeSwapsCoordinates) {
  const RatingMatrix t = small_matrix().transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.nnz(), 5u);
  bool found = false;
  for (const auto& e : t.entries()) {
    if (e.u == 1 && e.i == 2 && e.r == 3.0f) found = true;
    EXPECT_LT(e.u, 3u);
    EXPECT_LT(e.i, 4u);
  }
  EXPECT_TRUE(found) << "transposed (2,1,3.0) missing";
}

TEST(RatingMatrix, DoubleTransposeIsIdentity) {
  RatingMatrix m = small_matrix();
  m.sort_by_row();
  RatingMatrix tt = m.transposed().transposed();
  tt.sort_by_row();
  ASSERT_EQ(tt.nnz(), m.nnz());
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    EXPECT_EQ(tt.entries()[i], m.entries()[i]);
  }
}

TEST(RatingMatrix, SliceRowsKeepsGlobalCoordinates) {
  RatingMatrix m = small_matrix();
  m.sort_by_row();
  const RatingMatrix slice = m.slice_rows(1, 3);
  EXPECT_EQ(slice.rows(), 4u);  // dimensions stay global
  EXPECT_EQ(slice.nnz(), 3u);   // rows 1 and 2
  for (const auto& e : slice.entries()) {
    EXPECT_GE(e.u, 1u);
    EXPECT_LT(e.u, 3u);
  }
}

TEST(RatingMatrix, SliceRowsEmptyAndFull) {
  RatingMatrix m = small_matrix();
  m.sort_by_row();
  EXPECT_EQ(m.slice_rows(0, 0).nnz(), 0u);
  EXPECT_EQ(m.slice_rows(0, 4).nnz(), 5u);
  EXPECT_EQ(m.slice_rows(3, 4).nnz(), 1u);
}

}  // namespace
}  // namespace hcc::data
