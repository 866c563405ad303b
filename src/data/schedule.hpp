// Cache-aware rating schedules (visit-order preprocessing).
//
// The paper's compute term is memory-bandwidth bound — Eq. 2 charges every
// rating 16k+4 bytes — so the *effective* B_i a worker sees is set by how
// often the P/Q rows it touches are still cache-resident.  Worker slices
// arrive sorted by row (see data/grid.cpp): P streams sequentially, but each
// user row sweeps the whole item range, so with n*k*4 bytes of Q beyond L2
// every Q row is evicted between consecutive touches.  CuMF_SGD and FPSGD
// both schedule ratings in cache-sized 2-D blocks for exactly this reason.
//
// A RatingScheduler reorders a worker's slice once per epoch:
//  - kAsIs      guaranteed no-op — the legacy (load/file) order, default,
//               bit-identical to the pre-scheduler trajectory;
//  - kShuffled  seeded per-epoch Fisher–Yates permutation (classic SGD
//               randomization, the baseline the tiled order must not lose
//               convergence against);
//  - kTiled     2-D tiles over (local-row x item) ranges sized to a cache
//               budget, visited block-major in a per-epoch seeded tile
//               order; within a tile the original relative order is kept
//               (stable), or a Z-curve with ScheduleOptions::zorder.
//
// SGD's visit order is already arbitrary (the generator shuffles, FPSGD
// blocks, HogWild races), so any permutation preserves convergence in
// distribution; tests bound the RMSE delta across policies.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "data/rating_matrix.hpp"

namespace hcc::data {

/// Visit-order policy for a worker's rating slice.
enum class SchedulePolicy : std::uint8_t {
  kAsIs = 0,      ///< legacy order, bit-identical no-op (default)
  kShuffled = 1,  ///< seeded per-epoch random permutation
  kTiled = 2,     ///< cache-sized 2-D blocks, seeded block-major order
};

/// "asis" / "shuffled" / "tiled" (CLI + logging + bench JSON).
const char* schedule_name(SchedulePolicy policy);

/// Parses "asis" / "shuffled" / "tiled"; throws std::invalid_argument.
SchedulePolicy parse_schedule(const std::string& name);

/// Everything configurable about a schedule.
struct ScheduleOptions {
  SchedulePolicy policy = SchedulePolicy::kAsIs;
  /// Cache budget per tile in KiB (kTiled): the tile's Q working set (the
  /// reused side) is kept within this many KiB.  Sized for a private L2 by
  /// default; 0 is invalid under kTiled (HccMfConfig::validate rejects it).
  std::uint32_t tile_kb = 2048;
  /// Z-curve traversal within each tile (kTiled): interleaves row/item
  /// bits so both the P and Q footprints grow locally instead of sweeping
  /// one dimension first.
  bool zorder = false;
  /// Base seed; epoch e reorders with seed ^ mix(e) so every epoch visits
  /// in a fresh (but reproducible) order.
  std::uint64_t seed = 0x5eedc0deULL;
};

/// What one prepare() pass did (fed into the sched.* metrics).
struct ScheduleStats {
  std::uint32_t tiles = 1;      ///< occupied tiles (1 for kAsIs/kShuffled)
  std::uint32_t row_span = 0;   ///< P rows per tile (kTiled)
  std::uint32_t col_span = 0;   ///< Q rows (items) per tile (kTiled)
  double reorder_ms = 0.0;      ///< wall time of the reorder pass
};

/// Reorders a rating slice into one epoch's visit order.  Stateless apart
/// from the options: the per-epoch permutation derives from (seed, epoch),
/// so recovery re-runs and multi-worker runs stay reproducible.
class RatingScheduler {
 public:
  RatingScheduler() = default;

  /// `k` is the factor rank — it sets the bytes-per-row term of the tile
  /// working set (col_span * k * 4 bytes <= tile_kb KiB).
  RatingScheduler(const ScheduleOptions& options, std::uint32_t k);

  const ScheduleOptions& options() const noexcept { return options_; }

  /// Reorders `slice`'s entries in place for epoch `epoch` and returns
  /// what happened.  kAsIs never touches the entries (bit-identical).
  ScheduleStats prepare(RatingMatrix& slice, std::uint32_t epoch) const;

  /// Tile geometry for a cache budget: (rows_per_tile, items_per_tile).
  /// The byte budget buys the Q (item) side — the one a tile reuses — and
  /// rows_per_tile rides a fixed 32x aspect over it, since P streams
  /// sequentially within a tile and needs no residency.  Both spans are at
  /// least 1 and at most 65536 (Z-order key width).
  static std::pair<std::uint32_t, std::uint32_t> tile_spans(
      std::uint32_t tile_kb, std::uint32_t k);

 private:
  ScheduleStats prepare_tiled(RatingMatrix& slice, std::uint32_t epoch) const;

  ScheduleOptions options_;
  std::uint32_t k_ = 0;
};

}  // namespace hcc::data
