// Sequence-numbered reliable sessions over a Transport (the protocol tier
// of the elastic parameter server).
//
// A SessionComm is a CommBackend that frames each submitted chunk and
// moves it through a lossy link with TCP-shaped machinery, sized down to
// what a deterministic single-process harness needs:
//
//  - every data frame carries a session id, a sequence number and an
//    FNV-1a payload checksum (the PR-2 wire checksum, now a frame field);
//  - the receiver delivers in order exactly once: stale seqs are deduped,
//    early seqs parked in a reorder buffer, corrupt frames discarded
//    before decode (the sender retransmits);
//  - acks are cumulative; the ack round-trip feeds transport.rtt_ms;
//  - heartbeats probe the link whenever it goes silent mid-transfer, at
//    TransportConfig::heartbeat_ms of virtual time;
//  - no ack progress for the cost-model-derived timeout (max(4 x modeled
//    frame RTT, 3 x heartbeat)) triggers retransmission, then bounded
//    reconnection with exponential virtual backoff; a new session id is
//    minted and every unacked frame is replayed idempotently;
//  - a reconnect budget exhausted throws fault::LinkDeadError, which is a
//    WorkerFault — the trainer's existing dead-worker recovery (checkpoint
//    rollback + repartition) takes it from there.
//
// Because the session delivers the exact encoded bytes exactly once, in
// order, a chaos run that heals produces a bit-identical training
// trajectory to the in-process link (ShmComm) — the RMSE-parity property
// the replay tests pin down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "comm/backend.hpp"
#include "comm/transport.hpp"
#include "obs/metrics.hpp"

namespace hcc::comm {

enum class FrameType : std::uint8_t {
  kData = 1,       ///< payload-bearing, sequence-numbered
  kAck = 2,        ///< cumulative ack (seq = highest in-order delivered)
  kHeartbeat = 3,  ///< silence probe; peer answers with an ack
};

/// Fixed 33-byte wire header preceding the payload.
struct FrameHeader {
  static constexpr std::uint32_t kMagic = 0x48434d46u;  // "HCMF"
  static constexpr std::size_t kBytes = 33;

  std::uint32_t magic = kMagic;
  FrameType type = FrameType::kData;
  std::uint32_t session = 0;
  std::uint64_t seq = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a 64 over the payload

  void store(std::span<std::byte> dst) const;
  static FrameHeader load(std::span<const std::byte> src);
};

/// Protocol accounting (mirrored into the transport.* registry metrics).
struct TransportStats {
  std::uint64_t frames = 0;          ///< data frames sent, incl. replays
  std::uint64_t heartbeats = 0;      ///< silence probes sent
  std::uint64_t retransmits = 0;     ///< data frames re-sent (RTO or replay)
  std::uint64_t reconnects = 0;      ///< successful session re-establishments
  std::uint64_t dup_discards = 0;    ///< duplicate data frames deduped
  std::uint64_t checksum_drops = 0;  ///< corrupt frames discarded pre-decode
};

/// Reliable exactly-once CommBackend over a (possibly lossy) Transport.
class SessionComm final : public CommBackend {
 public:
  SessionComm(std::unique_ptr<Transport> transport,
              const TransportConfig& config, std::uint32_t worker);

  std::string name() const override { return "COMM-T"; }
  void begin_epoch(std::uint32_t epoch) override;

  /// Each chunk is its own sequence-numbered data frame, so a pipeline
  /// window keeps several in flight per logical transfer.  The receiver
  /// still delivers in order exactly once — chaos drop/dup/reorder heal
  /// through the same retransmit/reorder machinery — and settle_chunks()
  /// pumps until every frame is acked, restoring the one-transfer-at-a-time
  /// invariant between transfers.
  void submit_chunk(std::span<const std::byte> wire) override;
  std::span<const std::byte> await_chunk() override;
  void settle_chunks() override;
  std::size_t chunks_in_flight() const noexcept override {
    return outstanding_chunks_;
  }

  const TransportStats& transport_stats() const noexcept { return tstats_; }
  Transport& link_transport() noexcept { return *transport_; }
  std::uint32_t session_id() const noexcept { return session_; }

 private:
  void ensure_transport_metrics();
  std::vector<std::byte> make_frame(FrameType type, std::uint64_t seq,
                                    std::span<const std::byte> payload) const;
  /// (Re)sends the pristine stored copy of `seq`, restamping the current
  /// session id.
  void transmit(std::uint64_t seq);
  void send_control(FrameType type, std::uint64_t seq);
  /// Sizes the RTT/RTO/timeout timers from the frame just submitted.
  void refresh_timers(std::size_t frame_bytes);
  /// Core protocol loop shared by every blocking wait: drains, heartbeats,
  /// retransmits on RTO and reconnects on timeout until `done()` holds.
  void pump_until(const std::function<bool()>& done);
  /// Drains both directions; true when anything at all arrived (liveness).
  bool drain();
  bool receiver_handle(std::vector<std::byte>& frame);
  bool sender_handle(const std::vector<std::byte>& frame);
  void retransmit_unacked();
  void reconnect_with_backoff();
  std::uint64_t ms_to_ticks(double ms) const;

  std::unique_ptr<Transport> transport_;
  TransportConfig config_;
  std::uint32_t worker_;

  // Sender state.
  std::uint32_t session_ = 1;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, std::vector<std::byte>> unacked_;  ///< pristine
  std::map<std::uint64_t, std::uint64_t> send_tick_;

  // Receiver state.  Deliveries queue in order; await_chunk() pops them
  // as they land.
  std::uint64_t last_delivered_seq_ = 0;
  std::map<std::uint64_t, std::vector<std::byte>> reorder_buffer_;
  std::deque<std::vector<std::byte>> delivered_q_;
  std::vector<std::byte> awaited_;  ///< backs the span await_chunk() returns

  /// Chunks submitted but not yet awaited.
  std::size_t outstanding_chunks_ = 0;

  // Timers (ticks), refreshed per submitted frame from its size.
  std::uint64_t heartbeat_ticks_ = 1;
  std::uint64_t rto_ticks_ = 1;
  std::uint64_t timeout_ticks_ = 1;

  TransportStats tstats_;
  obs::Counter* frames_counter_ = nullptr;
  obs::Counter* heartbeats_counter_ = nullptr;
  obs::Counter* retransmits_counter_ = nullptr;
  obs::Counter* reconnects_counter_ = nullptr;
  obs::Counter* dup_discards_counter_ = nullptr;
  obs::Counter* checksum_drops_counter_ = nullptr;
  obs::Histogram* rtt_hist_ = nullptr;
};

}  // namespace hcc::comm
