// Deterministic fault plans (the failure-injection schedule).
//
// Production multi-CPU/GPU training must survive the failure modes the
// heterogeneous-SGD literature calls out as *common* — a device dropping
// off the bus, a co-tenant job turning a worker into an Nx straggler, a
// DMA transfer delivering corrupt bytes.  A FaultPlan scripts those events
// deterministically (worker, epoch, kind, magnitude) so every fault run is
// reproducible and every recovery path is testable.  Plans come from code,
// from a CLI flag, or from the HCCMF_FAULT_PLAN environment variable; an
// empty plan means the injection machinery is completely inert.
//
// Spec grammar (events separated by ';'):
//   kill:w<W>@e<E>              worker W dies at the start of epoch E
//   stall:w<W>@e<E>x<F>         worker W straggles by factor F in epoch E
//   corrupt:w<W>@e<E>[s<S>][n<N>]
//                               worker W's push payload is corrupted on the
//                               wire at epoch E, pipeline chunk S (default
//                               0), for the first N delivery attempts
//                               (default 1 — one retry heals it)
// Transport faults (chaos transport, comm/transport.hpp; all deterministic
// first-N-frames semantics, burned once per event across the run):
//   drop:w<W>@e<E>[n<N>]        worker W's first N wire frames of epoch E
//                               vanish in flight (default 1)
//   dup:w<W>@e<E>[n<N>]         ... are delivered twice (receiver dedups)
//   reorder:w<W>@e<E>[n<N>]     ... are held back and delivered after the
//                               following frame (swapped pairs)
//   delay:w<W>@e<E>x<T>[n<N>]   ... are held for T link ticks before
//                               delivery (long T forces a retransmission)
//   disconnect:w<W>@e<E>[n<N>]  worker W's link severs at its first frame
//                               of epoch E; the first N reconnection
//                               attempts fail (default 1), then the link
//                               heals and the session replays unacked
//                               frames.  N >= the reconnect budget kills
//                               the link for good (membership/recovery).
//   join:w<W>@e<E>              cluster scope: node W (re)joins the run at
//                               global epoch E (elastic membership)
// Example: "kill:w1@e3;stall:w0@e2x4;corrupt:w2@e1s0n2;drop:w0@e1n2"
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hcc::fault {

enum class FaultKind : std::uint8_t {
  kKill,
  kStall,
  kCorrupt,
  // Transport faults (the chaos transport's schedule):
  kDrop,
  kDuplicate,
  kReorder,
  kDelay,
  kDisconnect,
  // Elastic membership (cluster scope):
  kJoin,
};

const char* fault_kind_name(FaultKind kind);

/// True for the kinds the chaos transport (comm/transport.hpp) consumes.
bool is_transport_fault(FaultKind kind);

/// One scripted fault.
struct FaultEvent {
  FaultKind kind = FaultKind::kKill;
  std::uint32_t worker = 0;
  std::uint32_t epoch = 0;
  std::uint32_t chunk = 0;       ///< corrupt: pipeline chunk (stream) index
  double stall_factor = 1.0;     ///< stall: phase-time multiplier (> 1)
  std::uint32_t count = 1;       ///< corrupt/transport: frames or attempts
  std::uint32_t delay_ticks = 0; ///< delay: link ticks a frame is held

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// The full injection schedule for one training run.
struct FaultPlan {
  std::vector<FaultEvent> events;
  /// Seeds the corruption byte positions (deterministic run to run).
  std::uint64_t seed = 0x5eedfa17u;

  bool empty() const noexcept { return events.empty(); }

  /// Parses the spec grammar above; throws std::invalid_argument with the
  /// offending token on malformed input.
  static FaultPlan parse(std::string_view spec);

  /// Renders back to the spec grammar (parse round-trips).
  std::string to_string() const;
};

/// Plan from the HCCMF_FAULT_PLAN environment variable (empty plan when the
/// variable is unset or blank); HCCMF_FAULT_SEED overrides the seed.
FaultPlan plan_from_env();

/// Everything configurable about the fault-tolerance subsystem.
struct FaultOptions {
  FaultPlan plan;

  /// Detection: a phase is flagged as straggling when its measured time
  /// exceeds deadline_factor x the Eq. 1-5 cost-model prediction (after
  /// median normalization across workers; see straggler_mask()).
  double deadline_factor = 4.0;

  /// Bounded retry on pull/push checksum failures, with exponential
  /// backoff: attempt a sleeps backoff_base_s * 2^a.
  std::uint32_t max_retries = 3;
  double backoff_base_s = 1e-4;

  /// Epoch-boundary checkpoint cadence (model + epoch + learning rate).
  /// Checkpoints are kept in memory for rollback; `checkpoint_dir`
  /// additionally persists each one to disk via mf::model_io.
  std::uint32_t checkpoint_every = 1;
  std::string checkpoint_dir;

  /// Makes scripted stalls *real*: the stalled worker's compute thread
  /// sleeps (factor - 1) x its measured compute time per chunk, instead of
  /// only inflating the recorded phase seconds.  Off by default — virtual
  /// stalls keep the original injection semantics (identical results,
  /// identical wall clock).  A real stall puts a measurable slowdown on
  /// the wall clock, so deadline detection can be tested against it.
  bool real_stalls = false;

  /// NaN/Inf divergence guard on the ASGD inner loop: on detection the run
  /// rolls back to the last checkpoint with a halved learning rate, at
  /// most max_rollbacks times.
  bool divergence_guard = true;
  std::uint32_t max_rollbacks = 8;

  /// Injection / checksum machinery engages only when a plan is scripted
  /// or checkpoints are persisted; with this false and no plan the wire
  /// format and training trajectory are bit-identical to a fault-free
  /// build.  (The divergence guard is detection-only and always safe.)
  bool enabled() const noexcept {
    return !plan.empty() || !checkpoint_dir.empty();
  }
};

}  // namespace hcc::fault
