// Properties of the row-order counting sort (data::sort_rows) and of what
// is built on it: sort_by_row(), assign_slices() and grid_ordered(), the
// test-set copy the training facades evaluate on.  The references are the
// comparison sorts the counting sort replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "data/datasets.hpp"
#include "data/grid.hpp"
#include "data/rating_matrix.hpp"
#include "mf/metrics.hpp"
#include "mf/model.hpp"
#include "util/rng.hpp"

namespace hcc::data {
namespace {

/// `nnz` ratings drawn from only `distinct` coordinates, so most (u, i)
/// pairs repeat; each value is its input position, which exposes the
/// relative order of duplicates.
RatingMatrix duplicate_heavy(std::uint32_t rows, std::uint32_t cols,
                             std::size_t nnz, std::size_t distinct,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Rating> pool;
  for (std::size_t d = 0; d < distinct; ++d) {
    pool.push_back({static_cast<std::uint32_t>(rng.uniform_u64(rows)),
                    static_cast<std::uint32_t>(rng.uniform_u64(cols)), 0.0f});
  }
  RatingMatrix m(rows, cols);
  for (std::size_t j = 0; j < nnz; ++j) {
    const Rating& at = pool[rng.uniform_u64(pool.size())];
    m.add(at.u, at.i, static_cast<float>(j));
  }
  return m;
}

std::vector<Rating> reference_sort(std::span<const Rating> entries) {
  std::vector<Rating> sorted(entries.begin(), entries.end());
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Rating& a, const Rating& b) {
                     return a.u != b.u ? a.u < b.u : a.i < b.i;
                   });
  return sorted;
}

/// The slicing sort_rows() replaced: a transposed copy under a column
/// grid, a stable comparison sort, then one slice_rows() copy per range.
std::vector<RatingMatrix> reference_slices(const RatingMatrix& matrix,
                                           GridKind kind,
                                           const std::vector<GridRange>& grid) {
  const RatingMatrix oriented =
      kind == GridKind::kColumn ? matrix.transposed() : matrix;
  const RatingMatrix sorted(oriented.rows(), oriented.cols(),
                            reference_sort(oriented.entries()));
  std::vector<RatingMatrix> slices;
  for (const auto& range : grid) {
    slices.push_back(sorted.slice_rows(range.begin, range.end));
  }
  return slices;
}

void expect_same_entries(std::span<const Rating> got,
                         std::span<const Rating> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j) {
    ASSERT_EQ(got[j], want[j]) << "position " << j;
  }
}

TEST(RowOrder, SortByRowMatchesStableSortWithHeavyDuplicates) {
  struct Shape {
    std::uint32_t rows, cols;
    std::size_t nnz, distinct;
  };
  // Distinct-coordinate pools far smaller than the grid leave most rows
  // and columns empty.
  for (const Shape s : {Shape{50, 20, 2000, 30}, Shape{7, 300, 3000, 500},
                        Shape{400, 3, 5000, 12}, Shape{1000, 1000, 800, 800}}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      RatingMatrix m = duplicate_heavy(s.rows, s.cols, s.nnz, s.distinct, seed);
      const std::vector<Rating> want = reference_sort(m.entries());
      m.sort_by_row();
      expect_same_entries(m.entries(), want);
    }
  }
}

TEST(RowOrder, SortByRowHandlesEmptyAndOneByOne) {
  RatingMatrix empty(0, 0);
  empty.sort_by_row();
  EXPECT_EQ(empty.nnz(), 0u);

  RatingMatrix no_ratings(5, 4);
  no_ratings.sort_by_row();
  EXPECT_EQ(no_ratings.nnz(), 0u);

  RatingMatrix one(1, 1);
  one.add(0, 0, 3.0f);
  one.add(0, 0, 1.0f);
  one.sort_by_row();
  ASSERT_EQ(one.nnz(), 2u);
  EXPECT_EQ(one.entries()[0], (Rating{0, 0, 3.0f}));
  EXPECT_EQ(one.entries()[1], (Rating{0, 0, 1.0f}));
}

TEST(RowOrder, RowPassMatchesStableSortByRowAlone) {
  const RatingMatrix m = duplicate_heavy(60, 40, 4000, 200, 9);
  std::vector<Rating> want(m.entries().begin(), m.entries().end());
  std::stable_sort(want.begin(), want.end(),
                   [](const Rating& a, const Rating& b) { return a.u < b.u; });
  const auto got = sort_rows(m, RowSort::kRow);
  ASSERT_EQ(got.size(), 1u);
  expect_same_entries(got[0].entries(), want);
}

TEST(RowOrder, AssignSlicesMatchReferenceSortThenSliceRows) {
  const std::vector<std::vector<double>> share_sets = {
      {1.0}, {0.3, 0.3, 0.4}, {0.0, 0.5, 0.0, 0.5}, {0.1, 0.2, 0.3, 0.4}};
  for (const GridKind kind : {GridKind::kRow, GridKind::kColumn}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const RatingMatrix m = duplicate_heavy(80, 50, 3000, 400, seed);
      for (const auto& shares : share_sets) {
        const auto grid = make_grid(m, kind, shares);
        const auto got = assign_slices(m, kind, grid);
        const auto want = reference_slices(m, kind, grid);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t w = 0; w < got.size(); ++w) {
          EXPECT_EQ(got[w].rows(), want[w].rows());
          EXPECT_EQ(got[w].cols(), want[w].cols());
          expect_same_entries(got[w].entries(), want[w].entries());
        }
      }
    }
  }
}

TEST(RowOrder, AssignSlicesOfAnEmptyMatrix) {
  const RatingMatrix m(6, 4);
  const auto grid = make_grid(m, GridKind::kRow, {0.5, 0.5});
  const auto slices = assign_slices(m, GridKind::kRow, grid);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].nnz() + slices[1].nnz(), 0u);
}

TEST(RowOrder, RejectsRangesThatDoNotTileTheRows) {
  const RatingMatrix m = duplicate_heavy(10, 4, 50, 20, 5);
  const std::vector<std::uint32_t> short_of_rows = {4, 9};
  const std::vector<std::uint32_t> descending = {6, 3, 10};
  EXPECT_THROW(sort_rows(m, RowSort::kRowColumn, short_of_rows),
               std::invalid_argument);
  EXPECT_THROW(sort_rows(m, RowSort::kRowColumn, descending),
               std::invalid_argument);
}

TEST(RowOrder, GridOrderedTestRmseMatchesOriginalOrder) {
  const DatasetSpec spec = netflix_spec().scaled(0.002);
  GeneratorConfig gen;
  gen.seed = 3;
  const RatingMatrix full = generate(spec, gen);
  util::Rng split_rng(4);
  auto [train, test] = train_test_split(full, 0.1, split_rng);
  ASSERT_GT(test.nnz(), 1000u);

  for (const bool transpose : {false, true}) {
    const RatingMatrix oriented = transpose ? test.transposed() : test;
    mf::FactorModel model(oriented.rows(), oriented.cols(), 16);
    util::Rng rng(11);
    model.init_random(rng, 3.5f);
    const RatingMatrix ordered =
        grid_ordered(test, transpose ? GridKind::kColumn : GridKind::kRow);
    EXPECT_EQ(ordered.rows(), oriented.rows());
    EXPECT_EQ(ordered.cols(), oriented.cols());
    expect_same_entries(ordered.entries(), reference_sort(oriented.entries()));
    EXPECT_NEAR(mf::rmse(model, ordered), mf::rmse(model, oriented), 1e-12)
        << "transpose " << transpose;
  }
}

}  // namespace
}  // namespace hcc::data
