// The parameter server (Section 3.1 / 3.5).
//
// Owns the global feature matrices and the synchronization step: every
// worker push is merged into the global Q with one multiply-add per feature
// against the snapshot that worker pulled — this resolves the write-after-
// write races between workers that share Q columns (the reason the paper's
// design keeps a synchronizing server at all).
//
// The epoch engine (core/epoch_executor.hpp) calls sync_q from one thread,
// in worker order, after each phase barrier, and pulls only read Q while
// no merge runs; so the server needs no lock, and every Q element sees one
// fixed merge order in either execution mode.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/strategy.hpp"
#include "mf/model.hpp"
#include "serve/snapshot.hpp"

namespace hcc::core {

/// Functional parameter server.
class Server {
 public:
  /// Takes ownership of the initialized global model.
  Server(mf::FactorModel global, const comm::CommConfig& config);

  mf::FactorModel& model() noexcept { return global_; }
  const mf::FactorModel& model() const noexcept { return global_; }

  /// Merges one worker's pushed Q into the global Q with one multiply-add
  /// per feature parameter (Eq. 3's sync cost), one weight per Q row:
  ///   global[item][f] += item_weights[item] * (pushed - snapshot)[item][f]
  /// where `snapshot` is the Q state that worker received at its pull.
  /// The training loop derives each worker's item weight from its share of
  /// that item's ratings, so an item rated only inside one worker's row
  /// slice merges at weight 1 (exactly the serial update), while items
  /// contested by several workers combine proportionally to their data: a
  /// convex combination of the workers' results, which resolves the
  /// write-after-write races between workers that trained the same Q rows
  /// concurrently (the reason the paper keeps a synchronizing server)
  /// without over-applying popular rows' gradients p-fold.  Zero-weight
  /// rows are skipped.
  void sync_q(std::span<const float> pushed, std::span<const float> snapshot,
              std::span<const float> item_weights);

  /// Emulates transmitting P through the wire codec (the final P&Q push):
  /// every P value is replaced by its encode/decode round trip, so FP16's
  /// quantization shows up in the delivered model exactly once, like the
  /// real system.
  void roundtrip_p_through_codec();

  /// Attaches the serving publish hook: subsequent publish_snapshot()
  /// calls encode the global model as `kind` and swap it into `registry`
  /// (which the caller keeps alive for the server's lifetime).
  void attach_snapshots(serve::SnapshotRegistry* registry,
                        serve::StoreKind kind) noexcept {
    snapshots_ = registry;
    snapshot_kind_ = kind;
  }
  serve::SnapshotRegistry* snapshots() const noexcept { return snapshots_; }

  /// Encodes the current global P/Q into an immutable serve::ModelSnapshot
  /// tagged `epoch` and publishes it.  P and Q are read directly, so
  /// callers must only publish at the epoch barrier (HccMf::train), where
  /// no worker runs and every row is quiescent.  No-op when no
  /// registry is attached.  Readers of previously published snapshots are
  /// never blocked: they hold their own references.
  void publish_snapshot(std::uint32_t epoch);

  /// Number of sync_q merges performed (tests assert one per worker-push).
  std::uint64_t sync_count() const noexcept { return sync_count_; }

  /// Wall-clock seconds spent merging — the measured counterpart of
  /// Eq. 3's T_sync, across all workers.
  double measured_sync_s() const noexcept { return measured_sync_s_; }

 private:
  mf::FactorModel global_;
  std::unique_ptr<comm::Codec> codec_;
  std::uint64_t sync_count_ = 0;
  double measured_sync_s_ = 0.0;
  serve::SnapshotRegistry* snapshots_ = nullptr;
  serve::StoreKind snapshot_kind_ = serve::StoreKind::kFp32;
};

}  // namespace hcc::core
