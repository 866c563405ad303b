// Pluggable inter-node links under SessionComm (the transport tier of the
// elastic parameter server).
//
// The paper's framework is a single box; scaling it out (ROADMAP item 4)
// means the pull/push wire may now be a real network link that drops,
// duplicates, reorders, delays and severs.  This header models that link as
// a Transport: a raw frame mover between the two ends of one worker <->
// server channel, running on a *virtual tick clock* so every schedule is
// deterministic and tests never sleep.
//
// The default TransportKind::kInProcess constructs no transport at all:
// make_backend gives the single-box ShmComm link, which copies each chunk
// once and skips the session's framing and per-frame checksums.  Two
// implementations model a network link:
//  - SimLatencyTransport: arrival times follow a sim::LinkSpec calibrated
//    like Table 2 calibrated the intra-box buses (peak bandwidth, per-
//    message latency, sustained efficiency), so a "100GbE" run observes
//    100GbE round-trip times in its transport.rtt_ms histogram.
//  - ChaosTransport: a SimLatencyTransport whose forward direction obeys
//    the transport events of a seeded fault::FaultPlan (drop / dup /
//    reorder / delay / disconnect), deterministic first-N-frames-of-epoch
//    semantics, each event's budget burned once across the run.
//
// The reliability protocol on top (sequence numbers, acks, heartbeats,
// retransmission, reconnection) lives in comm/session.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "obs/metrics.hpp"
#include "sim/platform.hpp"

namespace hcc::comm {

enum class TransportKind : std::uint8_t { kInProcess, kSimLatency, kChaos };

const char* transport_kind_name(TransportKind kind);

/// Parses "in-process", "sim-latency" or "chaos" (the --transport CLI
/// values); throws std::invalid_argument otherwise.
TransportKind transport_kind_by_name(const std::string& name);

/// Everything configurable about the worker<->server links.
struct TransportConfig {
  TransportKind kind = TransportKind::kInProcess;

  /// sim::link_by_name preset the latency model reads ("local", "100GbE",
  /// "10GbE", "IB-HDR").  Ignored by kInProcess.
  std::string link = "100GbE";

  /// Per-link heartbeat interval (virtual milliseconds): the longest the
  /// session stays silent while it is waiting on the peer.
  double heartbeat_ms = 5.0;

  /// Dead-link timeout (virtual milliseconds).  0 derives it from the cost
  /// model — max(4 x modeled frame RTT, 3 x heartbeat) — the same way the
  /// straggler deadline derives from the Eq. 1-5 phase predictions.
  double timeout_ms = 0.0;

  /// Bounded reconnection: attempts (with exponential virtual backoff)
  /// before the link is declared dead and fault::LinkDeadError hands the
  /// worker to the dead-worker recovery path.
  std::uint32_t reconnect_budget = 5;

  /// Backoff base (virtual milliseconds): attempt a waits base * 2^a.
  double backoff_base_ms = 1.0;

  /// Chaos schedule (kChaos only): the transport events of this plan drive
  /// the lossy link.  Kept in sync with FaultOptions::plan by the trainers.
  fault::FaultPlan plan;
};

/// One direction of the full-duplex link (data flows forward, acks flow
/// reverse — "forward" is whichever end is submitting chunks).
enum class Dir : std::uint8_t { kForward, kReverse };

/// Raw frame mover between the two ends of one worker<->server link.
///
/// Time is a virtual tick counter advanced by the session pump; a tick
/// models `tick_seconds()` of wall time.  Nothing here sleeps.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueues a frame for delivery (a lossy link may drop, duplicate,
  /// reorder or delay it — or swallow it whole while disconnected).
  virtual void send(Dir dir, std::vector<std::byte> frame) = 0;

  /// Pops the next frame whose virtual arrival time has passed.
  virtual bool recv(Dir dir, std::vector<std::byte>& frame) = 0;

  /// Advances the virtual clock.
  void advance(std::uint64_t ticks = 1) noexcept { now_ += ticks; }
  std::uint64_t now() const noexcept { return now_; }

  /// Seconds one tick models (drives the transport.rtt_ms histogram and
  /// the ms -> tick conversions of heartbeat/timeout/backoff).
  virtual double tick_seconds() const noexcept { return 1e-6; }

  /// Ticks a `bytes`-sized frame needs one way (latency + serialization).
  virtual std::uint64_t one_way_ticks(std::size_t bytes) const {
    (void)bytes;
    return 0;
  }

  virtual bool connected() const noexcept { return true; }

  /// One reconnection attempt; true on success.  In-flight frames of a
  /// severed link are gone — the session replays unacked ones.
  virtual bool try_reconnect() { return true; }

  /// Chaos schedule cursor (no-op elsewhere): the trainers forward the
  /// fault injector's epoch so first-N-frames-of-epoch events line up.
  virtual void begin_epoch(std::uint32_t epoch) { (void)epoch; }

  virtual std::string name() const = 0;

 protected:
  std::uint64_t now_ = 0;
};

/// Calibrated-latency link: FIFO per direction, each frame's arrival tick
/// computed from the sim::LinkSpec (one-way latency plus serialization at
/// the sustained bandwidth).  Delivery is head-of-line: a held-up front
/// frame delays those behind it, like a real stream.
class SimLatencyTransport : public Transport {
 public:
  explicit SimLatencyTransport(sim::LinkSpec link);

  void send(Dir dir, std::vector<std::byte> frame) override;
  bool recv(Dir dir, std::vector<std::byte>& frame) override;
  double tick_seconds() const noexcept override { return tick_s_; }
  std::uint64_t one_way_ticks(std::size_t bytes) const override;
  std::string name() const override { return link_.name; }

  const sim::LinkSpec& link() const noexcept { return link_; }

 protected:
  struct Timed {
    std::uint64_t arrival = 0;
    std::vector<std::byte> frame;
  };

  /// Enqueues with an explicit arrival tick (the chaos subclass uses this
  /// to delay frames past their natural arrival).
  void enqueue(Dir dir, std::vector<std::byte> frame, std::uint64_t arrival);
  void clear_in_flight();

  sim::LinkSpec link_;
  double tick_s_;
  std::deque<Timed> queues_[2];
};

/// Lossy link: a SimLatencyTransport whose forward direction executes the
/// transport events of a seeded FaultPlan.  Each frame is matched against
/// the plan's (worker, epoch) events in plan order; the first event with
/// budget left fires and burns one count.  Budgets burn once per run, so a
/// post-rollback replay of an epoch does not re-fire its faults (recovery
/// converges instead of looping).
class ChaosTransport final : public SimLatencyTransport {
 public:
  ChaosTransport(sim::LinkSpec link, const fault::FaultPlan& plan,
                 std::uint32_t worker);

  void send(Dir dir, std::vector<std::byte> frame) override;
  bool recv(Dir dir, std::vector<std::byte>& frame) override;
  bool connected() const noexcept override { return connected_; }
  bool try_reconnect() override;
  void begin_epoch(std::uint32_t epoch) override;
  std::string name() const override {
    return "chaos(" + link_.name + ")";
  }

  /// Frames the link swallowed (drop events + frames sent while severed).
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  struct Scheduled {
    fault::FaultEvent event;
    std::uint32_t remaining;  ///< budget left (count, burned once per run)
    bool triggered = false;   ///< disconnect: sever latched
  };

  void ensure_metrics();
  /// First matching event with budget, in plan order; nullptr when clean.
  Scheduled* match(fault::FaultKind kind);
  void sever();

  std::uint32_t worker_;
  std::uint32_t epoch_ = 0;
  bool connected_ = true;
  std::vector<Scheduled> schedule_;
  std::vector<std::byte> held_;  ///< reorder: frame awaiting a follower
  bool holding_ = false;
  std::uint64_t dropped_ = 0;
  obs::Counter* drops_counter_ = nullptr;
};

/// Builds the configured network transport for one worker link.  Throws
/// std::invalid_argument for kInProcess, which is ShmComm's link and has no
/// transport (see make_backend).
std::unique_ptr<Transport> make_transport(const TransportConfig& config,
                                          std::uint32_t worker);

}  // namespace hcc::comm
