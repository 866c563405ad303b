// Dataset catalogue and synthetic generators.
//
// The paper evaluates on Netflix, Yahoo! Music R1 / R1* / R2 and
// MovieLens-20m (Table 3).  Those datasets are proprietary or withdrawn, so
// this module reproduces each one's *shape*: (m, n, nnz) at a configurable
// scale, Zipf-skewed user/item popularity, and a planted low-rank structure
// with noise so SGD training has a real signal to recover.  The framework's
// scheduling decisions depend only on the shape, and convergence behaviour
// depends on the planted structure, so experiments preserve the paper's
// qualitative results (see DESIGN.md, substitution table).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/rating_matrix.hpp"
#include "util/rng.hpp"

namespace hcc::data {

/// Static description of a dataset: the paper's Table 3 rows.
struct DatasetSpec {
  std::string name;
  std::uint32_t m = 0;      ///< users (rows of R)
  std::uint32_t n = 0;      ///< items (columns of R)
  std::uint64_t nnz = 0;    ///< observed ratings
  float reg_lambda = 0.01f; ///< L2 regularization (paper's lambda_1=lambda_2)
  float learn_rate = 0.005f;
  float rating_min = 1.0f;
  float rating_max = 5.0f;

  /// Returns a copy with m, n and nnz all scaled linearly by `factor`
  /// (0 < factor <= 1; at least 16 rows, 16 columns and 256 ratings), so the
  /// aspect ratio nnz/(m+n) is kept as far as rounding and those floors allow.
  DatasetSpec scaled(double factor) const;

  /// The paper's communication-boundedness indicator nnz/(m+n); Section 3.4
  /// argues comm and compute costs reach the same order of magnitude when
  /// this drops below ~1e3.
  double nnz_per_dim() const {
    return static_cast<double>(nnz) / (static_cast<double>(m) + n);
  }
};

/// Table 3 presets (gamma = 0.005 for all).
DatasetSpec netflix_spec();
DatasetSpec yahoo_r1_spec();
DatasetSpec yahoo_r1_star_spec();  ///< R1 densified with uniform extra data
DatasetSpec yahoo_r2_spec();
DatasetSpec movielens20m_spec();

/// All five presets in the paper's order.
std::vector<DatasetSpec> paper_datasets();

/// Looks up a preset by (case-insensitive) name: "netflix", "r1", "r1star",
/// "r2", "movielens".  Throws std::invalid_argument for unknown names.
DatasetSpec dataset_by_name(const std::string& name);

/// Knobs for the synthetic generator.
struct GeneratorConfig {
  std::uint64_t seed = 42;
  std::uint32_t planted_rank = 8;  ///< rank of the hidden P*,Q* structure
  float noise_stddev = 0.25f;      ///< observation noise added to P*Q*
  double zipf_user = 0.8;          ///< popularity skew over users
  double zipf_item = 1.0;          ///< popularity skew over items
  bool quantize_half_steps = true; ///< snap ratings to 0.5 steps (real
                                   ///< systems use coarse scales; motivates
                                   ///< the FP16 strategy, Section 3.4)
  float user_bias_stddev = 0.0f;   ///< planted per-user rating offset
  float item_bias_stddev = 0.0f;   ///< planted per-item rating offset
};

/// Generates a rating matrix with `spec`'s dimensions and a planted rank-
/// `config.planted_rank` structure.  Entries are shuffled (random visit
/// order).  Duplicate (u, i) draws are kept: for SGD they are simply repeated
/// observations of the same cell and do not affect the framework's behaviour.
RatingMatrix generate(const DatasetSpec& spec, const GeneratorConfig& config);

/// Splits `ratings` into train/test with one seeded Bernoulli draw per entry,
/// in entry order: an entry goes to test when rng.uniform() <
/// holdout_fraction.  Both outputs keep the input's relative order.  Returns
/// {train, test}.
std::pair<RatingMatrix, RatingMatrix> train_test_split(
    const RatingMatrix& ratings, double holdout_fraction, util::Rng& rng);

}  // namespace hcc::data
