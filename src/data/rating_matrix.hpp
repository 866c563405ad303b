// Sparse rating matrix storage.
//
// The rating matrix R of an MF problem is stored in coordinate (COO) form —
// the natural format for SGD, which visits ratings one by one — with helpers
// to shuffle (SGD wants random visit order) and to put it in row order (the
// paper's cache-hit-rate modification to CuMF_SGD's grid problem) with a
// stable counting sort that is linear in nnz.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace hcc::data {

/// One observed rating: user row `u`, item column `i`, value `r`.
struct Rating {
  std::uint32_t u = 0;
  std::uint32_t i = 0;
  float r = 0.0f;
  friend bool operator==(const Rating&, const Rating&) = default;
};

/// COO sparse matrix of observed ratings with known dimensions.
class RatingMatrix {
 public:
  RatingMatrix() = default;

  /// Creates an empty matrix of logical size rows x cols.
  RatingMatrix(std::uint32_t rows, std::uint32_t cols)
      : rows_(rows), cols_(cols) {}

  /// Creates a matrix from existing entries (entries may be unsorted).
  RatingMatrix(std::uint32_t rows, std::uint32_t cols,
               std::vector<Rating> entries);

  std::uint32_t rows() const noexcept { return rows_; }
  std::uint32_t cols() const noexcept { return cols_; }
  std::size_t nnz() const noexcept { return entries_.size(); }

  /// Fraction of cells observed: nnz / (rows * cols).
  double density() const noexcept;

  std::span<const Rating> entries() const noexcept { return entries_; }

  /// Appends one rating (bounds-checked with assert in debug builds).
  void add(std::uint32_t u, std::uint32_t i, float r);
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Bulk append: one reserve + one contiguous insert (bounds-checked with
  /// assert in debug builds) — the degraded-mode repartition path absorbs
  /// whole entry batches this way instead of O(entries) add() calls.
  void append(std::span<const Rating> entries);

  /// Randomizes visit order (step 1 of the paper's preprocessing).
  void shuffle(util::Rng& rng);

  /// Reorders entries by an arbitrary permutation of [0, nnz):
  /// new_entries[j] = old_entries[perm[j]].  The rating scheduler
  /// (data/schedule.hpp) visits through this; `perm` must be a valid
  /// permutation (checked with asserts in debug builds).
  void permute(std::span<const std::uint32_t> perm);

  /// Stable-sorts entries by row then column; improves cache hit rate for
  /// row-major factor access (the paper's CuMF_SGD modification iii).
  /// Runs sort_rows(), so O(nnz + rows + cols).
  void sort_by_row();

  /// Per-row nonzero counts; used by the grid partitioner to split rows so
  /// each worker receives its target *fraction of ratings*, not of rows.
  std::vector<std::size_t> row_counts() const;
  std::vector<std::size_t> col_counts() const;

  /// Returns the transposed matrix (swaps the roles of users and items).
  RatingMatrix transposed() const;

  /// Extracts the sub-matrix containing rows [row_begin, row_end).  Entry
  /// coordinates keep their global row ids, as HCC-MF workers index into the
  /// shared global P.  Requires entries sorted by row.
  RatingMatrix slice_rows(std::uint32_t row_begin, std::uint32_t row_end) const;

 private:
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  std::vector<Rating> entries_;
};

/// The key sort_rows() orders by.
enum class RowSort {
  kRow,         ///< u alone: one counting pass
  kRowColumn,   ///< (u, i): a column pass, then the row pass
  kTransposed,  ///< (i, u), each rating emitted as {i, u, r}
};

/// Stable counting sort of `matrix`'s ratings into row order: the order
/// std::stable_sort gives on the `order` key, duplicate keys kept in input
/// order.  An LSD radix sort — the column pass buckets each rating's row
/// and value by column, the row pass scatters them straight to their
/// place — so it takes O(nnz + rows + cols) time and 8 bytes per rating
/// beside the output (none for kRow).  The sorted matrix comes back cut
/// into the consecutive row ranges that end at `range_ends` (ascending;
/// the last is the sorted matrix's row count; std::invalid_argument
/// otherwise), one matrix per range with the full dimensions; with no
/// `range_ends`, as one matrix.
std::vector<RatingMatrix> sort_rows(
    const RatingMatrix& matrix, RowSort order,
    std::span<const std::uint32_t> range_ends = {});

}  // namespace hcc::data
