// RCU-style model snapshots: training publishes, serving reads.
//
// The Server owns the live P/Q that workers mutate; queries must
// never see a half-written epoch and must never make training wait.  So
// training encodes an immutable FactorStore at each epoch boundary (workers
// are parked at the barrier, rows are quiescent) and swaps it in here as a
// `shared_ptr<const ModelSnapshot>`.  Readers grab a reference and keep
// scoring against it even while newer epochs land; the old snapshot is
// freed when its last reader drops it — classic read-copy-update without a
// grace period, the shared_ptr control block being the reclamation.
//
// The swap itself is guarded by a shared_mutex rather than
// std::atomic<shared_ptr> because libstdc++ only grew the latter in GCC 12
// and CI still builds on older toolchains: readers take the shared side
// only long enough to copy one pointer (no allocation, no contention among
// themselves), and the writer takes the exclusive side once per published
// epoch for the same single pointer store.  Training reads P/Q at the
// barrier, with no lock, and readers never touch the live model at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>

#include "serve/store.hpp"

namespace hcc::serve {

/// One immutable published model: the epoch it completed plus the encoded
/// factors.  Never mutated after publish — safe to share across threads.
struct ModelSnapshot {
  std::uint32_t epoch = 0;
  FactorStore store;
};

/// The publish/subscribe point between the trainer and the query threads.
class SnapshotRegistry {
 public:
  /// Replaces the current snapshot.  Called by the training side only;
  /// also refreshes the serve.store_bytes gauge.
  void publish(std::shared_ptr<const ModelSnapshot> snapshot);

  /// The latest published snapshot (nullptr before the first publish).
  /// The returned reference stays valid for as long as the caller holds
  /// it, regardless of later publishes.
  std::shared_ptr<const ModelSnapshot> current() const;

  /// Number of publish() calls so far.
  std::uint64_t published() const noexcept {
    return published_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::shared_mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_;
  std::atomic<std::uint64_t> published_{0};
};

}  // namespace hcc::serve
