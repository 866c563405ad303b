#include "data/datasets.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace hcc::data {

DatasetSpec DatasetSpec::scaled(double factor) const {
  DatasetSpec s = *this;
  if (factor >= 1.0) return s;
  // Dimensions scale linearly with nnz, so nnz/(m+n) — the compute-to-
  // communication ratio the framework keys off — is preserved.
  const double dim_factor = factor;
  s.m = std::max<std::uint32_t>(16, static_cast<std::uint32_t>(std::llround(m * dim_factor)));
  s.n = std::max<std::uint32_t>(16, static_cast<std::uint32_t>(std::llround(n * dim_factor)));
  s.nnz = std::max<std::uint64_t>(
      256, static_cast<std::uint64_t>(std::llround(static_cast<double>(nnz) * factor)));
  s.name = name + "@" + std::to_string(factor);
  return s;
}

DatasetSpec netflix_spec() {
  return DatasetSpec{.name = "netflix",
                     .m = 480190,
                     .n = 17771,
                     .nnz = 99072112,
                     .reg_lambda = 0.01f,
                     .learn_rate = 0.005f,
                     .rating_min = 1.0f,
                     .rating_max = 5.0f};
}

DatasetSpec yahoo_r1_spec() {
  return DatasetSpec{.name = "r1",
                     .m = 1948883,
                     .n = 1101750,
                     .nnz = 115579437,
                     .reg_lambda = 1.0f,
                     .learn_rate = 0.005f,
                     .rating_min = 0.0f,
                     .rating_max = 100.0f};
}

DatasetSpec yahoo_r1_star_spec() {
  DatasetSpec s = yahoo_r1_spec();
  s.name = "r1star";
  s.nnz = 199999997;  // R1 plus uniformly added ratings (paper Section 4.1)
  return s;
}

DatasetSpec yahoo_r2_spec() {
  return DatasetSpec{.name = "r2",
                     .m = 1000000,
                     .n = 136736,
                     .nnz = 383838609,
                     .reg_lambda = 0.01f,
                     .learn_rate = 0.005f,
                     .rating_min = 0.0f,
                     .rating_max = 5.0f};
}

DatasetSpec movielens20m_spec() {
  return DatasetSpec{.name = "movielens",
                     .m = 138494,
                     .n = 131263,
                     .nnz = 20000260,
                     .reg_lambda = 0.01f,
                     .learn_rate = 0.005f,
                     .rating_min = 0.5f,
                     .rating_max = 5.0f};
}

std::vector<DatasetSpec> paper_datasets() {
  return {netflix_spec(), yahoo_r1_spec(), yahoo_r1_star_spec(),
          yahoo_r2_spec(), movielens20m_spec()};
}

DatasetSpec dataset_by_name(const std::string& name) {
  std::string key;
  key.reserve(name.size());
  for (char ch : name) key += static_cast<char>(std::tolower(ch));
  if (key == "netflix") return netflix_spec();
  if (key == "r1") return yahoo_r1_spec();
  if (key == "r1star" || key == "r1*" || key == "r1_new") return yahoo_r1_star_spec();
  if (key == "r2") return yahoo_r2_spec();
  if (key == "movielens" || key == "movielens-20m" || key == "ml20m") return movielens20m_spec();
  throw std::invalid_argument("unknown dataset: " + name);
}

RatingMatrix generate(const DatasetSpec& spec, const GeneratorConfig& config) {
  util::Rng rng(config.seed);

  // Planted factors P* (m x k0) and Q* (k0 x n).  Entries are chosen so the
  // products land inside the rating scale: with k0 terms of mean mu^2, the
  // expected rating is k0*mu^2 = mid-scale.
  const std::uint32_t k0 = config.planted_rank;
  const float mid =
      0.5f * (spec.rating_min + spec.rating_max);
  const float mu = std::sqrt(mid / static_cast<float>(k0));
  const float sigma = 0.35f * mu;

  std::vector<float> pstar(static_cast<std::size_t>(spec.m) * k0);
  std::vector<float> qstar(static_cast<std::size_t>(spec.n) * k0);
  for (auto& v : pstar) v = static_cast<float>(rng.normal(mu, sigma));
  for (auto& v : qstar) v = static_cast<float>(rng.normal(mu, sigma));

  // Optional planted user/item rating offsets (for bias-model extensions).
  std::vector<float> user_bias(spec.m, 0.0f);
  std::vector<float> item_bias(spec.n, 0.0f);
  if (config.user_bias_stddev > 0.0f) {
    for (auto& b : user_bias) {
      b = static_cast<float>(rng.normal(0.0, config.user_bias_stddev));
    }
  }
  if (config.item_bias_stddev > 0.0f) {
    for (auto& b : item_bias) {
      b = static_cast<float>(rng.normal(0.0, config.item_bias_stddev));
    }
  }

  // Zipf popularity with a shuffled identity so that popular users/items are
  // scattered over the index space (real datasets are not sorted by
  // popularity; the paper's shuffling step also destroys such order).
  util::ZipfSampler user_pop(spec.m, config.zipf_user);
  util::ZipfSampler item_pop(spec.n, config.zipf_item);
  std::vector<std::uint32_t> user_map(spec.m), item_map(spec.n);
  for (std::uint32_t u = 0; u < spec.m; ++u) user_map[u] = u;
  for (std::uint32_t i = 0; i < spec.n; ++i) item_map[i] = i;
  util::shuffle(user_map, rng);
  util::shuffle(item_map, rng);

  // Pass 1 draws a block's randomness in the sequential stream order (user
  // uniform, item uniform, noise normal per rating); pass 2 turns each
  // rating's draws into its (u, i, r) in parallel.  Pass 2 reads only its
  // own rating's draws and shared read-only tables, so the output does not
  // depend on the thread count.
  constexpr std::size_t kBlock = std::size_t{1} << 18;
  std::vector<Rating> entries(spec.nnz);
  std::vector<double> draws(2 * std::min<std::size_t>(kBlock, spec.nnz));
  util::ThreadPool pool;
  const float span = spec.rating_max - spec.rating_min;
  const float step = span <= 10.0f ? 0.5f : 1.0f;  // coarse rating scales
  for (std::size_t base = 0; base < entries.size(); base += kBlock) {
    const std::size_t count = std::min(kBlock, entries.size() - base);
    for (std::size_t k = 0; k < count; ++k) {
      draws[2 * k] = rng.uniform();
      draws[2 * k + 1] = rng.uniform();
      entries[base + k].r =
          static_cast<float>(rng.normal(0.0, config.noise_stddev));
    }
    pool.parallel_for(0, count, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        const std::uint32_t u = user_map[user_pop.index(draws[2 * k])];
        const std::uint32_t i = item_map[item_pop.index(draws[2 * k + 1])];
        const float* pu = &pstar[static_cast<std::size_t>(u) * k0];
        const float* qi = &qstar[static_cast<std::size_t>(i) * k0];
        float dot = 0.0f;
        for (std::uint32_t f = 0; f < k0; ++f) dot += pu[f] * qi[f];
        Rating& out = entries[base + k];
        float r = dot + user_bias[u] + item_bias[i] + out.r;
        r = std::clamp(r, spec.rating_min, spec.rating_max);
        if (config.quantize_half_steps) {
          r = spec.rating_min + step * std::round((r - spec.rating_min) / step);
        }
        out = Rating{u, i, r};
      }
    });
  }
  RatingMatrix ratings(spec.m, spec.n, std::move(entries));
  ratings.shuffle(rng);
  return ratings;
}

std::pair<RatingMatrix, RatingMatrix> train_test_split(
    const RatingMatrix& ratings, double holdout_fraction, util::Rng& rng) {
  const auto entries = ratings.entries();
  std::vector<std::uint8_t> held_out(entries.size());
  std::size_t test_count = 0;
  for (auto& h : held_out) {
    h = rng.uniform() < holdout_fraction;
    test_count += h;
  }
  std::vector<Rating> train, test;
  train.reserve(entries.size() - test_count);
  test.reserve(test_count);
  for (std::size_t e = 0; e < entries.size(); ++e) {
    (held_out[e] ? test : train).push_back(entries[e]);
  }
  return {RatingMatrix(ratings.rows(), ratings.cols(), std::move(train)),
          RatingMatrix(ratings.rows(), ratings.cols(), std::move(test))};
}

}  // namespace hcc::data
