// Row / column grid partitioning (Section 3.3, "Row (column) grid").
//
// HCC-MF's server divides the rating matrix into groups of consecutive rows
// (or columns), one group per worker.  The partition parameter x_i produced
// by the partition strategies (src/core/partition) is the *fraction of
// ratings* — not of rows — each worker should process, because the compute
// cost model is linear in assigned nnz (Eq. 2).  This module turns fractions
// into concrete contiguous row ranges whose nnz comes as close as possible
// to the targets.
#pragma once

#include <cstdint>
#include <vector>

#include "data/rating_matrix.hpp"

namespace hcc::data {

/// Grid orientation.  The paper uses row grids when m >= n (the common case
/// for recommender data) and column grids otherwise; row grids enable the
/// "Transmitting Q only" communication strategy.
enum class GridKind { kRow, kColumn };

/// Picks the grid orientation for a matrix per the paper's rule.
inline GridKind choose_grid(const RatingMatrix& matrix) {
  return matrix.rows() >= matrix.cols() ? GridKind::kRow : GridKind::kColumn;
}

/// One worker's assignment: the half-open row (or column) range and the
/// number of ratings that fall inside it.
struct GridRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;  ///< exclusive
  std::size_t nnz = 0;

  std::uint32_t width() const noexcept { return end - begin; }
  friend bool operator==(const GridRange&, const GridRange&) = default;
};

/// Splits rows (GridKind::kRow) or columns into contiguous ranges so that
/// range i contains as close as possible to fractions[i] of all ratings.
///
/// Preconditions: fractions are non-negative and sum to ~1 (within 1e-6).
/// Postconditions (tested as invariants): the ranges tile [0, dim) exactly —
/// cover everything, never overlap, preserve order — and sum(nnz) == total.
std::vector<GridRange> make_grid(const RatingMatrix& matrix, GridKind kind,
                                 const std::vector<double>& fractions);

/// Materializes each worker's training slice: the ratings of its range in
/// (row, item) order, coordinates global.  One sort_rows() call scatters
/// straight into the slices, so the input is only read — no sorted or
/// transposed copy of it is built.  For a column grid each rating is read
/// transposed (workers then treat columns as rows, matching the paper's
/// "switch to Transmitting P only" remark).  `grid` must tile the rows (or
/// columns), as make_grid()'s does.
std::vector<RatingMatrix> assign_slices(const RatingMatrix& matrix,
                                        GridKind kind,
                                        const std::vector<GridRange>& grid);

/// All of `matrix` in the order assign_slices() gives its slices — under a
/// column grid, transposed — as one matrix: the training facades evaluate
/// their test ratings in this order, so each evaluation streams P rows.
RatingMatrix grid_ordered(const RatingMatrix& matrix, GridKind kind);

}  // namespace hcc::data
