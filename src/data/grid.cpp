#include "data/grid.hpp"

#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace hcc::data {

std::vector<GridRange> make_grid(const RatingMatrix& matrix, GridKind kind,
                                 const std::vector<double>& fractions) {
  if (fractions.empty()) {
    throw std::invalid_argument("make_grid: no workers");
  }
  double sum = 0.0;
  for (double f : fractions) {
    if (f < 0.0) throw std::invalid_argument("make_grid: negative fraction");
    sum += f;
  }
  if (std::abs(sum - 1.0) > 1e-6) {
    throw std::invalid_argument("make_grid: fractions must sum to 1");
  }

  const std::vector<std::size_t> counts = kind == GridKind::kRow
                                              ? matrix.row_counts()
                                              : matrix.col_counts();
  const std::uint32_t dim = static_cast<std::uint32_t>(counts.size());
  const std::size_t total = matrix.nnz();

  std::vector<GridRange> grid(fractions.size());
  std::uint32_t cursor = 0;
  std::size_t consumed = 0;
  double target_cum = 0.0;
  for (std::size_t w = 0; w < fractions.size(); ++w) {
    target_cum += fractions[w];
    // Worker w's range ends where cumulative nnz first reaches the
    // cumulative target; choosing the closer of the two straddling
    // boundaries halves the rounding error.
    const double target =
        target_cum * static_cast<double>(total);
    std::uint32_t end = cursor;
    std::size_t cum = consumed;
    while (end < dim && static_cast<double>(cum) < target) {
      cum += counts[end];
      ++end;
    }
    if (end > cursor && end < dim) {
      const double over = static_cast<double>(cum) - target;
      const double under = target - static_cast<double>(cum - counts[end - 1]);
      if (under < over) {
        --end;
        cum -= counts[end];
      }
    }
    if (w + 1 == fractions.size()) {
      // Last worker absorbs any rounding remainder so the grid tiles fully.
      while (end < dim) {
        cum += counts[end];
        ++end;
      }
    }
    grid[w] = GridRange{cursor, end, cum - consumed};
    cursor = end;
    consumed = cum;
  }
  assert(cursor == dim && consumed == total);
  return grid;
}

namespace {

/// Workers under a column grid treat columns as rows.
RowSort row_sort_of(GridKind kind) {
  return kind == GridKind::kColumn ? RowSort::kTransposed
                                   : RowSort::kRowColumn;
}

}  // namespace

std::vector<RatingMatrix> assign_slices(const RatingMatrix& matrix,
                                        GridKind kind,
                                        const std::vector<GridRange>& grid) {
  std::vector<std::uint32_t> ends;
  ends.reserve(grid.size());
  for (const auto& range : grid) ends.push_back(range.end);
  return sort_rows(matrix, row_sort_of(kind), ends);
}

RatingMatrix grid_ordered(const RatingMatrix& matrix, GridKind kind) {
  return std::move(sort_rows(matrix, row_sort_of(kind)).front());
}

}  // namespace hcc::data
