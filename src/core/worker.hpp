// Functional worker (Section 3.1's steps 5-7).
//
// A worker owns a contiguous row slice of the rating matrix (its grid
// assignment), a private local copy of Q, and its own COMM channel to the
// server.  One epoch is pull -> asynchronous SGD over the slice -> push.
// P rows inside the slice are exclusive to this worker under a row grid, so
// it updates the global P in place — exactly why "Transmitting Q only"
// loses nothing (Section 3.4, Strategy 1).
//
// The epoch engine (core/epoch_executor.hpp) drives the phases: pull and
// compute_chunk of one chunk run on the worker's own thread under
// kParallel, while every push runs on the caller's thread after the phase
// barrier, so a pull never races a merge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "comm/pipeline.hpp"
#include "comm/strategy.hpp"
#include "core/server.hpp"
#include "data/rating_matrix.hpp"
#include "data/schedule.hpp"
#include "fault/recovery.hpp"
#include "obs/drift.hpp"
#include "util/aligned.hpp"

namespace hcc::core {

/// One collaborative-computing worker (CPU or GPU role; the role only
/// matters to the timing layer — functionally both run the same SGD).
class TrainWorker {
 public:
  /// `slice` holds this worker's ratings (global coordinates); `streams`
  /// chunks the epoch into that many pull-compute-push pipeline stages
  /// (Strategy 3's functional effect: fresher Q, more sync rounds).
  TrainWorker(std::uint32_t id, std::string device_name,
              data::RatingMatrix slice, const comm::CommConfig& config,
              std::uint32_t streams = 1);

  TrainWorker(TrainWorker&&) = default;
  TrainWorker& operator=(TrainWorker&&) = default;

  std::uint32_t id() const noexcept { return id_; }
  const std::string& device_name() const noexcept { return device_name_; }
  std::size_t assigned_nnz() const noexcept { return slice_.nnz(); }
  std::uint32_t streams() const noexcept { return streams_; }

  /// Items this worker's slice actually rates; under sparse push (see
  /// comm::CommConfig::sparse) only these Q rows travel.
  std::size_t touched_items() const noexcept { return touched_.size(); }

  /// SGD passes over each chunk per compute_chunk() (default 1).  A
  /// cluster node runs its `local_epochs` here: that many passes over its
  /// slice between one pull and one push.
  void set_passes(std::uint32_t passes) noexcept {
    passes_ = std::max(1u, passes);
  }

  /// Arms the cache-aware rating scheduler (data/schedule.hpp).  `k` is the
  /// factor rank (sets the tile working-set size).  The worker id is mixed
  /// into the seed so workers do not reorder in lockstep.  Default-armed
  /// with kAsIs, which keeps prepare_epoch() a guaranteed no-op.
  void set_schedule(const data::ScheduleOptions& options, std::uint32_t k);

  /// Reorders this worker's slice for the upcoming epoch (internal epoch
  /// counter).  Must run before the epoch's first pull: on the worker's
  /// own thread under kParallel (first-touch keeps the reordered entries
  /// NUMA-local), inline under kSerial.  kAsIs leaves the slice
  /// bit-identical and records nothing.
  void prepare_epoch();

  /// What the last prepare_epoch() did (tiles, spans, reorder wall time).
  /// Read it between epochs (from the harvest loop), never mid-phase.
  const data::ScheduleStats& schedule_stats() const noexcept {
    return sched_stats_;
  }

  /// Pulls the global Q through this worker's COMM channel (one wire copy)
  /// and snapshots it for the later delta merge.
  void pull(Server& server);

  /// Runs SGD over chunk `chunk` (of `streams` chunks) of the slice,
  /// `passes` times, on the calling thread: updates global P rows in place
  /// and the local Q copy.
  void compute_chunk(Server& server, std::uint32_t chunk, float lr,
                     float reg_p, float reg_q);

  /// Pushes the local Q through the COMM channel and has the server merge
  /// the delta against this worker's pull snapshot, weighted per item (see
  /// set_item_weights and Server::sync_q).
  void push(Server& server);

  /// Arms the fault-tolerance hooks: scheduled kill/corrupt injection,
  /// wire checksums, bounded retry on checksum failure, and the post-chunk
  /// divergence guard.  `runtime` must outlive the worker; nullptr disarms.
  /// When the runtime is idle (no plan, no checkpoint dir) the only hook
  /// left on is the divergence guard, which changes nothing unless a
  /// non-finite value actually appears.
  void set_fault_runtime(fault::FaultRuntime* runtime);

  /// Timing-layer stall composition: scales the *recorded* phase seconds
  /// (measured_ and the histograms) by `factor` without slowing the actual
  /// computation — a stalled worker produces identical results, later.
  void set_stall_factor(double factor) noexcept {
    stall_factor_ = factor > 0.0 ? factor : 1.0;
  }

  /// Real stalls (fault::FaultOptions::real_stalls): the compute phases
  /// sleep (stall_factor - 1) x their measured time on this thread, and the
  /// recorded seconds are then taken as-is (no multiplier — the wall clock
  /// already contains the stall).  Results stay bit-identical either way;
  /// only time moves.
  void set_real_stalls(bool on) noexcept { real_stalls_ = on; }

  /// This worker's rating slice (global coordinates).
  const data::RatingMatrix& slice() const noexcept { return slice_; }

  /// Degraded-mode repartition: appends a dead worker's entries to this
  /// worker's slice and refreshes the touched-item set.  The caller must
  /// re-derive per-item merge weights afterwards.
  void absorb_entries(const std::vector<data::Rating>& entries);

  /// Sets per-item merge weights (this worker's fraction of each item's
  /// ratings; see Server::sync_q).  A worker given none merges every item
  /// at weight 1.
  void set_item_weights(std::vector<float> weights) {
    item_weights_ = std::move(weights);
  }

  /// Wire-transfer accounting for this worker's channel.
  const comm::TransferStats& comm_stats() const { return backend_->stats(); }

  /// The worker's COMM channel (a SessionComm under a non-default
  /// transport; tests and reports read its protocol stats through this).
  const comm::CommBackend& backend() const noexcept { return *backend_; }

  /// Returns the wall-clock seconds this worker has spent in each phase
  /// since the last call, and resets them (one epoch's harvest) — the
  /// runtime-observed counterpart of the paper's T_pull/T_c/T_push/T_sync
  /// decomposition.  pull/compute/push accumulate inside the instrumented
  /// methods; sync is the server merge time this worker's pushes consumed.
  obs::PhaseTimes take_measured() noexcept {
    obs::PhaseTimes out = measured_;
    measured_ = {};
    return out;
  }

 private:
  /// Sizes every staging buffer for the current slice/mode once, so the
  /// per-epoch pull/push paths never reallocate (they assert instead), and
  /// defaults the item weights to 1 when none were set.
  void ensure_buffers(Server& server);

  /// Gathers this worker's touched Q rows into `packed`, or scatters them
  /// back; the sparse-push wire format (Strategy 4, extension).
  void gather_touched(std::span<const float> q, std::vector<float>& packed,
                      std::uint32_t k) const;
  void scatter_touched(const std::vector<float>& packed, std::span<float> q,
                       std::uint32_t k) const;

  /// Recomputes touched_ from the slice (after absorb_entries).
  void rebuild_touched();

  /// The worker's delivery-retry policy, handed to the stream pipelines:
  /// bounded retry + exponential backoff on checksum failure, giving up
  /// with fault::TransferFailure.  Safe for stateful codecs: their state
  /// commits at decode, which a checksum failure precedes, so the retry
  /// re-sends byte-identical wire (per chunk, under a depth > 1 pipeline).
  comm::StreamPipeline::RetryFn retry_policy();

  /// Records one phase's wall-clock seconds (stall-inflated, unless the
  /// stall was already real — see set_real_stalls).
  void record_phase(double seconds, double obs::PhaseTimes::*field,
                    obs::Histogram* hist);

  /// Sleeps (stall_factor - 1) x `elapsed_s` when real stalls are armed;
  /// called at the end of a compute phase, inside its span.
  void apply_real_stall(double elapsed_s) const;

  std::uint32_t id_;
  std::string device_name_;
  obs::PhaseTimes measured_;
  /// Per-worker phase histograms, resolved once (registry lookups lock).
  obs::Histogram* hist_pull_ = nullptr;
  obs::Histogram* hist_compute_ = nullptr;
  obs::Histogram* hist_push_ = nullptr;
  obs::Histogram* hist_sync_ = nullptr;
  /// Process-wide count of dispatched SGD updates (simd.sgd_updates);
  /// bumped once per chunk, not per rating.
  obs::Counter* counter_updates_ = nullptr;
  data::RatingMatrix slice_;
  std::uint32_t streams_;
  bool sparse_ = false;
  std::uint32_t passes_ = 1;
  std::vector<std::uint32_t> touched_;  ///< items this slice rates (sparse)
  std::vector<float> item_weights_;
  fault::FaultRuntime* fault_ = nullptr;
  double stall_factor_ = 1.0;
  bool real_stalls_ = false;
  data::RatingScheduler scheduler_;    ///< kAsIs by default (no-op)
  std::uint32_t sched_epoch_ = 0;      ///< epochs prepared so far
  data::ScheduleStats sched_stats_;    ///< last prepare_epoch() result
  std::uint32_t last_chunk_ = 0;  ///< chunk index the pending push covers
  std::unique_ptr<comm::CommBackend> backend_;
  /// Kept to build the per-direction pipelines once the rank k is known
  /// (ensure_buffers), so quantized codecs get one absmax scale per Q row.
  comm::CommConfig comm_config_;
  /// This worker's wire paths, one StreamPipeline per direction: the
  /// sub-FP16 codecs are stateful delta coders, so pull and push are
  /// separate streams, and sharing the server's instance across workers
  /// would interleave them.  At depth 1 each pipeline is exactly the old
  /// single-codec transfer; at depth > 1 it streams row-aligned chunks.
  /// The epoch engine orders every use, so no locking is needed.
  std::unique_ptr<comm::StreamPipeline> pull_pipe_;
  std::unique_ptr<comm::StreamPipeline> push_pipe_;
  /// 64-byte-aligned: the SGD inner loop streams over these Q rows.
  util::AlignedFloats local_q_;
  std::vector<float> snapshot_q_;
  std::vector<float> push_staging_;
  std::vector<float> packed_send_;
  std::vector<float> packed_recv_;
};

}  // namespace hcc::core
