#include "data/rating_matrix.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace hcc::data {

RatingMatrix::RatingMatrix(std::uint32_t rows, std::uint32_t cols,
                           std::vector<Rating> entries)
    : rows_(rows), cols_(cols), entries_(std::move(entries)) {
#ifndef NDEBUG
  for (const auto& e : entries_) {
    assert(e.u < rows_ && e.i < cols_);
  }
#endif
}

double RatingMatrix::density() const noexcept {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(entries_.size()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

void RatingMatrix::add(std::uint32_t u, std::uint32_t i, float r) {
  assert(u < rows_ && i < cols_);
  entries_.push_back(Rating{u, i, r});
}

void RatingMatrix::append(std::span<const Rating> entries) {
#ifndef NDEBUG
  for (const auto& e : entries) {
    assert(e.u < rows_ && e.i < cols_);
  }
#endif
  entries_.insert(entries_.end(), entries.begin(), entries.end());
}

void RatingMatrix::shuffle(util::Rng& rng) { util::shuffle(entries_, rng); }

void RatingMatrix::permute(std::span<const std::uint32_t> perm) {
  assert(perm.size() == entries_.size());
#ifndef NDEBUG
  {
    std::vector<bool> seen(perm.size(), false);
    for (const std::uint32_t src : perm) {
      assert(src < entries_.size() && !seen[src] &&
             "permute() requires a permutation of [0, nnz)");
      seen[src] = true;
    }
  }
#endif
  std::vector<Rating> reordered;
  reordered.reserve(entries_.size());
  for (const std::uint32_t src : perm) reordered.push_back(entries_[src]);
  entries_ = std::move(reordered);
}

void RatingMatrix::sort_by_row() {
  *this = std::move(sort_rows(*this, RowSort::kRowColumn).front());
}

std::vector<std::size_t> RatingMatrix::row_counts() const {
  std::vector<std::size_t> counts(rows_, 0);
  for (const auto& e : entries_) ++counts[e.u];
  return counts;
}

std::vector<std::size_t> RatingMatrix::col_counts() const {
  std::vector<std::size_t> counts(cols_, 0);
  for (const auto& e : entries_) ++counts[e.i];
  return counts;
}

RatingMatrix RatingMatrix::transposed() const {
  std::vector<Rating> flipped;
  flipped.reserve(entries_.size());
  for (const auto& e : entries_) flipped.push_back(Rating{e.i, e.u, e.r});
  return RatingMatrix(cols_, rows_, std::move(flipped));
}

RatingMatrix RatingMatrix::slice_rows(std::uint32_t row_begin,
                                      std::uint32_t row_end) const {
  assert(row_begin <= row_end && row_end <= rows_);
  const auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), row_begin,
      [](const Rating& e, std::uint32_t row) { return e.u < row; });
  const auto hi = std::lower_bound(
      lo, entries_.end(), row_end,
      [](const Rating& e, std::uint32_t row) { return e.u < row; });
  return RatingMatrix(rows_, cols_, std::vector<Rating>(lo, hi));
}

namespace {

/// A rating with the coordinates `kOrder` sorts by.
template <RowSort kOrder>
Rating keyed(const Rating& e) {
  if constexpr (kOrder == RowSort::kTransposed) {
    return Rating{e.i, e.u, e.r};
  } else {
    return e;
  }
}

template <RowSort kOrder>
std::vector<RatingMatrix> sort_rows_as(
    const RatingMatrix& matrix, std::span<const std::uint32_t> range_ends) {
  constexpr bool kFlip = kOrder == RowSort::kTransposed;
  const std::span<const Rating> src = matrix.entries();
  const std::uint32_t rows = kFlip ? matrix.cols() : matrix.rows();
  const std::uint32_t cols = kFlip ? matrix.rows() : matrix.cols();
  if (range_ends.empty()) range_ends = {&rows, 1};
  if (range_ends.back() != rows) {
    throw std::invalid_argument("sort_rows: the last range must end at row " +
                                std::to_string(rows));
  }

  // Row counts, and each column's start for the column pass (kRow: none).
  std::vector<std::size_t> row_nnz(rows, 0);
  std::vector<std::size_t> col_start(kOrder == RowSort::kRow ? 0 : cols + 1, 0);
  for (const Rating& e : src) {
    const Rating k = keyed<kOrder>(e);
    ++row_nnz[k.u];
    if constexpr (kOrder != RowSort::kRow) ++col_start[k.i + 1];
  }

  // Each row's write cursor inside the vector of the range that holds it.
  std::vector<std::vector<Rating>> out(range_ends.size());
  std::vector<Rating*> cursor(rows);
  std::uint32_t row = 0;
  for (std::size_t r = 0; r < range_ends.size(); ++r) {
    if (range_ends[r] < row) {
      throw std::invalid_argument("sort_rows: range ends must ascend");
    }
    std::size_t n = 0;
    for (std::uint32_t u = row; u < range_ends[r]; ++u) n += row_nnz[u];
    out[r].resize(n);
    Rating* at = out[r].data();
    for (; row < range_ends[r]; ++row) {
      cursor[row] = at;
      at += row_nnz[row];
    }
  }
  if constexpr (kOrder == RowSort::kRow) {
    for (const Rating& e : src) *cursor[e.u]++ = e;
  } else {
    // Column pass: each rating's row and value, bucketed by column in input
    // order (the bucket is the column).  Sequential reads and one write
    // stream per column.
    struct RowValue {
      std::uint32_t u;
      float r;
    };
    for (std::uint32_t c = 0; c < cols; ++c) col_start[c + 1] += col_start[c];
    std::vector<std::size_t> col_next(col_start.begin(), col_start.end() - 1);
    std::vector<RowValue> by_col(src.size());
    for (const Rating& e : src) {
      const Rating k = keyed<kOrder>(e);
      by_col[col_next[k.i]++] = {k.u, k.r};
    }
    // Row pass: columns in ascending order, so each row's ratings land in
    // column order and equal (row, column) pairs keep their input order.
    for (std::uint32_t c = 0; c < cols; ++c) {
      for (std::size_t j = col_start[c]; j < col_start[c + 1]; ++j) {
        const RowValue& at = by_col[j];
        *cursor[at.u]++ = Rating{at.u, c, at.r};
      }
    }
  }
  std::vector<RatingMatrix> sorted;
  sorted.reserve(out.size());
  for (auto& entries : out) sorted.emplace_back(rows, cols, std::move(entries));
  return sorted;
}

}  // namespace

std::vector<RatingMatrix> sort_rows(const RatingMatrix& matrix,
                                    RowSort order,
                                    std::span<const std::uint32_t> range_ends) {
  switch (order) {
    case RowSort::kRow:
      return sort_rows_as<RowSort::kRow>(matrix, range_ends);
    case RowSort::kRowColumn:
      return sort_rows_as<RowSort::kRowColumn>(matrix, range_ends);
    case RowSort::kTransposed:
      break;
  }
  return sort_rows_as<RowSort::kTransposed>(matrix, range_ends);
}

}  // namespace hcc::data
