#include "data/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/clock.hpp"
#include "util/rng.hpp"

namespace hcc::data {

namespace {

/// Spreads consecutive epoch numbers across the seed space so epoch e and
/// e+1 produce unrelated permutations.
std::uint64_t epoch_seed(std::uint64_t base, std::uint32_t epoch) {
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * (epoch + 1));
  return util::splitmix64(state);
}

/// Interleaves the low 16 bits of x (even positions) and y (odd positions):
/// the Z-curve key over a (row offset, item offset) pair within a tile.
std::uint64_t morton_key(std::uint32_t x, std::uint32_t y) {
  auto spread = [](std::uint64_t v) {
    v &= 0xffffULL;
    v = (v | (v << 8)) & 0x00ff00ffULL;
    v = (v | (v << 4)) & 0x0f0f0f0fULL;
    v = (v | (v << 2)) & 0x33333333ULL;
    v = (v | (v << 1)) & 0x55555555ULL;
    return v;
  };
  return spread(x) | (spread(y) << 1);
}

}  // namespace

const char* schedule_name(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kShuffled:
      return "shuffled";
    case SchedulePolicy::kTiled:
      return "tiled";
    case SchedulePolicy::kAsIs:
    default:
      return "asis";
  }
}

SchedulePolicy parse_schedule(const std::string& name) {
  if (name == "asis") return SchedulePolicy::kAsIs;
  if (name == "shuffled") return SchedulePolicy::kShuffled;
  if (name == "tiled") return SchedulePolicy::kTiled;
  throw std::invalid_argument("unknown schedule: \"" + name +
                              "\" (expected asis|shuffled|tiled)");
}

RatingScheduler::RatingScheduler(const ScheduleOptions& options,
                                 std::uint32_t k)
    : options_(options), k_(std::max(1u, k)) {}

std::pair<std::uint32_t, std::uint32_t> RatingScheduler::tile_spans(
    std::uint32_t tile_kb, std::uint32_t k) {
  // The budget buys the *reused* side: Q.  Within a tile the stable sort
  // keeps entries in their original row-major order, so P streams
  // sequentially (hardware-prefetched) and does not need to be resident —
  // only the col_span Q rows do, and each is touched about
  // row_span * density times while it is.  At rating-matrix densities
  // (1e-3 and below) a square tile would touch each Q row roughly once,
  // which is no reuse at all; a tall tile is what turns the budget into
  // cache hits, so row_span gets a fixed 32x aspect over col_span (both
  // capped at the 16-bit Z-order key width).
  const std::uint64_t row_bytes = std::uint64_t(std::max(1u, k)) * 4;
  const std::uint64_t budget = std::uint64_t(tile_kb) * 1024;
  const std::uint64_t col_span =
      std::clamp<std::uint64_t>(budget / row_bytes, 1, 65536);
  const std::uint64_t row_span = std::min<std::uint64_t>(32 * col_span, 65536);
  return {static_cast<std::uint32_t>(row_span),
          static_cast<std::uint32_t>(col_span)};
}

ScheduleStats RatingScheduler::prepare(RatingMatrix& slice,
                                       std::uint32_t epoch) const {
  switch (options_.policy) {
    case SchedulePolicy::kAsIs:
      return {};  // guaranteed no-op: the legacy order stays bit-identical
    case SchedulePolicy::kShuffled: {
      util::Stopwatch watch;
      util::Rng rng(epoch_seed(options_.seed, epoch));
      slice.shuffle(rng);
      ScheduleStats stats;
      stats.reorder_ms = watch.seconds() * 1e3;
      return stats;
    }
    case SchedulePolicy::kTiled:
      return prepare_tiled(slice, epoch);
  }
  return {};
}

ScheduleStats RatingScheduler::prepare_tiled(RatingMatrix& slice,
                                             std::uint32_t epoch) const {
  util::Stopwatch watch;
  const auto entries = slice.entries();
  const std::size_t n = entries.size();
  ScheduleStats stats;
  auto [row_span, col_span] = tile_spans(options_.tile_kb, k_);
  stats.row_span = row_span;
  stats.col_span = col_span;
  if (n < 2) {
    stats.tiles = n == 0 ? 0 : 1;
    stats.reorder_ms = watch.seconds() * 1e3;
    return stats;
  }
  assert(n <= std::numeric_limits<std::uint32_t>::max());

  // Slices keep global row ids; tile rows relative to the slice's own row
  // range so the budget buys local rows, not the whole matrix.
  std::uint32_t u_min = entries[0].u, u_max = entries[0].u;
  for (const auto& e : entries) {
    u_min = std::min(u_min, e.u);
    u_max = std::max(u_max, e.u);
  }
  auto tiles_for = [&](std::uint64_t rs, std::uint64_t cs) {
    const std::uint64_t row_tiles = (std::uint64_t(u_max - u_min) + rs) / rs;
    const std::uint64_t col_tiles =
        (std::uint64_t(std::max(1u, slice.cols())) + cs - 1) / cs;
    return row_tiles * col_tiles;
  };
  // A degenerate budget (tiny tile_kb against a huge slice) could demand
  // more tile bookkeeping than ratings; grow the spans until the tile
  // count is in a sane O(nnz) range.
  while (tiles_for(row_span, col_span) > std::max<std::uint64_t>(n, 1024)) {
    row_span = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(2 * std::uint64_t(row_span), 1u << 30));
    col_span = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(2 * std::uint64_t(col_span), 1u << 30));
  }
  stats.row_span = row_span;
  stats.col_span = col_span;
  const std::uint64_t col_tiles =
      (std::uint64_t(std::max(1u, slice.cols())) + col_span - 1) / col_span;
  const auto tiles = static_cast<std::uint32_t>(tiles_for(row_span, col_span));

  // Counting sort by tile id, visiting tiles in a per-epoch seeded order.
  std::vector<std::uint32_t> tile_of(n);
  std::vector<std::uint32_t> counts(tiles, 0);
  for (std::size_t idx = 0; idx < n; ++idx) {
    const Rating& e = entries[idx];
    const auto t = static_cast<std::uint32_t>(
        std::uint64_t((e.u - u_min) / row_span) * col_tiles +
        e.i / col_span);
    tile_of[idx] = t;
    ++counts[t];
  }
  std::vector<std::uint32_t> tile_order(tiles);
  std::iota(tile_order.begin(), tile_order.end(), 0u);
  util::Rng rng(epoch_seed(options_.seed, epoch));
  util::shuffle(tile_order, rng);

  std::vector<std::uint32_t> cursor(tiles, 0);
  std::uint32_t offset = 0;
  std::uint32_t occupied = 0;
  for (const std::uint32_t t : tile_order) {
    cursor[t] = offset;
    offset += counts[t];
    if (counts[t] > 0) ++occupied;
  }
  stats.tiles = occupied;

  // Stable within a tile: entries keep their original relative order.
  std::vector<std::uint32_t> order(n);
  for (std::size_t idx = 0; idx < n; ++idx) {
    order[cursor[tile_of[idx]]++] = static_cast<std::uint32_t>(idx);
  }

  if (options_.zorder) {
    // cursor[t] now points one past tile t's range end.
    for (std::uint32_t t = 0; t < tiles; ++t) {
      if (counts[t] < 2) continue;
      const auto begin = order.begin() + (cursor[t] - counts[t]);
      const auto end = order.begin() + cursor[t];
      std::sort(begin, end, [&](std::uint32_t a, std::uint32_t b) {
        const Rating& ea = entries[a];
        const Rating& eb = entries[b];
        return morton_key((ea.u - u_min) % row_span, ea.i % col_span) <
               morton_key((eb.u - u_min) % row_span, eb.i % col_span);
      });
    }
  }

  slice.permute(order);
  stats.reorder_ms = watch.seconds() * 1e3;
  return stats;
}

}  // namespace hcc::data
