#include "comm/session.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/errors.hpp"

namespace hcc::comm {

namespace {

/// Backstop against a protocol bug ever spinning the virtual clock forever;
/// real schedules finish in well under a million ticks.
constexpr std::uint64_t kPumpGuard = 5'000'000;

constexpr std::size_t kSessionOffset = 5;  // magic(4) + type(1)

}  // namespace

void FrameHeader::store(std::span<std::byte> dst) const {
  assert(dst.size() >= kBytes);
  std::size_t at = 0;
  auto put = [&](const void* src, std::size_t n) {
    std::memcpy(dst.data() + at, src, n);
    at += n;
  };
  put(&magic, sizeof magic);
  const std::uint8_t t = static_cast<std::uint8_t>(type);
  put(&t, sizeof t);
  put(&session, sizeof session);
  put(&seq, sizeof seq);
  put(&payload_bytes, sizeof payload_bytes);
  put(&checksum, sizeof checksum);
}

FrameHeader FrameHeader::load(std::span<const std::byte> src) {
  assert(src.size() >= kBytes);
  FrameHeader h;
  std::size_t at = 0;
  auto get = [&](void* dst, std::size_t n) {
    std::memcpy(dst, src.data() + at, n);
    at += n;
  };
  get(&h.magic, sizeof h.magic);
  std::uint8_t t = 0;
  get(&t, sizeof t);
  h.type = static_cast<FrameType>(t);
  get(&h.session, sizeof h.session);
  get(&h.seq, sizeof h.seq);
  get(&h.payload_bytes, sizeof h.payload_bytes);
  get(&h.checksum, sizeof h.checksum);
  return h;
}

SessionComm::SessionComm(std::unique_ptr<Transport> transport,
                         const TransportConfig& config, std::uint32_t worker)
    : transport_(std::move(transport)), config_(config), worker_(worker) {}

void SessionComm::ensure_transport_metrics() {
  if (frames_counter_ != nullptr) return;
  auto& reg = obs::registry();
  frames_counter_ = &reg.counter("transport.frames");
  heartbeats_counter_ = &reg.counter("transport.heartbeats");
  retransmits_counter_ = &reg.counter("transport.retransmits");
  reconnects_counter_ = &reg.counter("transport.reconnects");
  dup_discards_counter_ = &reg.counter("transport.dup_discards");
  checksum_drops_counter_ = &reg.counter("transport.checksum_drops");
  rtt_hist_ = &reg.histogram("transport.rtt_ms");
}

void SessionComm::begin_epoch(std::uint32_t epoch) {
  transport_->begin_epoch(epoch);
}

std::uint64_t SessionComm::ms_to_ticks(double ms) const {
  const double ticks = ms * 1e-3 / transport_->tick_seconds();
  return std::max<std::uint64_t>(1,
                                 static_cast<std::uint64_t>(std::ceil(ticks)));
}

std::vector<std::byte> SessionComm::make_frame(
    FrameType type, std::uint64_t seq,
    std::span<const std::byte> payload) const {
  std::vector<std::byte> frame(FrameHeader::kBytes + payload.size());
  FrameHeader header;
  header.type = type;
  header.session = session_;
  header.seq = seq;
  header.payload_bytes = payload.size();
  header.checksum = wire_checksum(payload);
  header.store(frame);
  if (!payload.empty()) {
    std::memcpy(frame.data() + FrameHeader::kBytes, payload.data(),
                payload.size());
  }
  return frame;
}

void SessionComm::transmit(std::uint64_t seq) {
  auto it = unacked_.find(seq);
  assert(it != unacked_.end());
  std::vector<std::byte> copy = it->second;
  // Restamp the live session id (reconnections mint a new one; the stored
  // pristine frame keeps the payload and checksum untouched).
  std::memcpy(copy.data() + kSessionOffset, &session_, sizeof session_);
  send_tick_[seq] = transport_->now();
  transport_->send(Dir::kForward, std::move(copy));
  ++tstats_.frames;
  frames_counter_->add(1);
}

void SessionComm::send_control(FrameType type, std::uint64_t seq) {
  FrameHeader header;
  header.type = type;
  header.session = session_;
  header.seq = seq;
  std::vector<std::byte> frame(FrameHeader::kBytes);
  header.store(frame);
  if (type == FrameType::kHeartbeat) {
    transport_->send(Dir::kForward, std::move(frame));
    ++tstats_.heartbeats;
    heartbeats_counter_->add(1);
  } else {
    transport_->send(Dir::kReverse, std::move(frame));
  }
}

bool SessionComm::receiver_handle(std::vector<std::byte>& frame) {
  if (frame.size() < FrameHeader::kBytes) {
    ++tstats_.checksum_drops;
    checksum_drops_counter_->add(1);
    return true;
  }
  const FrameHeader header = FrameHeader::load(frame);
  if (header.magic != FrameHeader::kMagic ||
      FrameHeader::kBytes + header.payload_bytes != frame.size()) {
    ++tstats_.checksum_drops;
    checksum_drops_counter_->add(1);
    return true;
  }
  if (header.type == FrameType::kHeartbeat) {
    // Heartbeat answer doubles as a cumulative ack, so a probe also tells
    // the sender how far delivery actually got.
    send_control(FrameType::kAck, last_delivered_seq_);
    return true;
  }
  if (header.type != FrameType::kData) return true;

  std::span<std::byte> payload(frame.data() + FrameHeader::kBytes,
                               static_cast<std::size_t>(header.payload_bytes));
  if (tap_) tap_(payload);  // in-flight corruption seam (fault injector)
  if (wire_checksum(payload) != header.checksum) {
    // Corrupt payload never reaches the decoder; withholding the ack makes
    // the sender retransmit its pristine copy.
    ++tstats_.checksum_drops;
    checksum_drops_counter_->add(1);
    return true;
  }
  if (header.seq <= last_delivered_seq_) {
    // Idempotent replay: a duplicate (chaos dup, or a retransmission whose
    // original made it) is discarded and re-acked.
    ++tstats_.dup_discards;
    dup_discards_counter_->add(1);
    send_control(FrameType::kAck, last_delivered_seq_);
    return true;
  }
  if (header.seq == last_delivered_seq_ + 1) {
    delivered_q_.emplace_back(payload.begin(), payload.end());
    last_delivered_seq_ = header.seq;
    // Release any parked successors now contiguous.
    auto it = reorder_buffer_.begin();
    while (it != reorder_buffer_.end() &&
           it->first == last_delivered_seq_ + 1) {
      delivered_q_.push_back(std::move(it->second));
      last_delivered_seq_ = it->first;
      it = reorder_buffer_.erase(it);
    }
  } else {
    reorder_buffer_[header.seq].assign(payload.begin(), payload.end());
  }
  send_control(FrameType::kAck, last_delivered_seq_);
  return true;
}

bool SessionComm::sender_handle(const std::vector<std::byte>& frame) {
  if (frame.size() < FrameHeader::kBytes) return true;
  const FrameHeader header = FrameHeader::load(frame);
  if (header.magic != FrameHeader::kMagic ||
      header.type != FrameType::kAck) {
    return true;
  }
  while (!unacked_.empty() && unacked_.begin()->first <= header.seq) {
    const std::uint64_t seq = unacked_.begin()->first;
    auto tick_it = send_tick_.find(seq);
    if (tick_it != send_tick_.end()) {
      const double rtt_ms =
          static_cast<double>(transport_->now() - tick_it->second) *
          transport_->tick_seconds() * 1e3;
      rtt_hist_->observe(rtt_ms);
      send_tick_.erase(tick_it);
    }
    unacked_.erase(unacked_.begin());
  }
  return true;
}

bool SessionComm::drain() {
  bool any = false;
  std::vector<std::byte> frame;
  while (transport_->recv(Dir::kForward, frame)) {
    any = true;
    receiver_handle(frame);
  }
  while (transport_->recv(Dir::kReverse, frame)) {
    any = true;
    sender_handle(frame);
  }
  return any;
}

void SessionComm::retransmit_unacked() {
  for (const auto& [seq, frame] : unacked_) {
    (void)frame;
    transmit(seq);
    ++tstats_.retransmits;
    retransmits_counter_->add(1);
  }
}

void SessionComm::reconnect_with_backoff() {
  const std::uint64_t base =
      std::max<std::uint64_t>(1, ms_to_ticks(config_.backoff_base_ms));
  for (std::uint32_t attempt = 0; attempt < config_.reconnect_budget;
       ++attempt) {
    // Exponential virtual backoff: attempt a waits base * 2^a ticks.
    transport_->advance(base << std::min<std::uint32_t>(attempt, 20));
    if (transport_->try_reconnect()) {
      ++session_;
      ++tstats_.reconnects;
      reconnects_counter_->add(1);
      // Idempotent replay: every unacked frame goes out again under the
      // new session id; the receiver dedups any that already landed.
      retransmit_unacked();
      return;
    }
  }
  throw fault::LinkDeadError(worker_, transport_->name(),
                             config_.reconnect_budget);
}

void SessionComm::pump_until(const std::function<bool()>& done) {
  std::uint64_t last_progress = transport_->now();
  std::uint64_t last_sent = transport_->now();
  std::uint64_t retransmit_due = transport_->now() + rto_ticks_;
  std::uint64_t guard = 0;
  while (!done()) {
    if (++guard > kPumpGuard) {
      throw std::runtime_error("SessionComm: pump exceeded " +
                               std::to_string(kPumpGuard) +
                               " ticks without acking (protocol bug)");
    }
    transport_->advance();
    const std::uint64_t now = transport_->now();
    if (drain()) {
      last_progress = now;
      retransmit_due = now + rto_ticks_;
      continue;
    }
    if (!transport_->connected()) {
      reconnect_with_backoff();
      last_progress = transport_->now();
      last_sent = last_progress;
      retransmit_due = last_progress + rto_ticks_;
      continue;
    }
    if (now - last_progress >= timeout_ticks_) {
      // Dead silence past the cost-model deadline: treat the link as
      // failed even though it never reported a disconnect.
      reconnect_with_backoff();
      last_progress = transport_->now();
      last_sent = last_progress;
      retransmit_due = last_progress + rto_ticks_;
      continue;
    }
    if (now >= retransmit_due) {
      retransmit_unacked();
      last_sent = now;
      retransmit_due = now + rto_ticks_;
      continue;
    }
    if (now - last_sent >= heartbeat_ticks_) {
      send_control(FrameType::kHeartbeat, 0);
      last_sent = now;
    }
  }
}

void SessionComm::refresh_timers(std::size_t frame_bytes) {
  // Cost-model-derived timers, sized to this frame: RTO after a couple of
  // modeled round trips, heartbeat at the configured cadence, dead-link
  // declaration at max(4 x RTT, 3 x heartbeat) unless overridden.
  const std::uint64_t rtt_ticks = transport_->one_way_ticks(frame_bytes) +
                                  transport_->one_way_ticks(FrameHeader::kBytes) +
                                  2;
  heartbeat_ticks_ = ms_to_ticks(config_.heartbeat_ms);
  rto_ticks_ = 2 * rtt_ticks + 2;
  timeout_ticks_ =
      config_.timeout_ms > 0.0
          ? ms_to_ticks(config_.timeout_ms)
          : std::max<std::uint64_t>(4 * rtt_ticks, 3 * heartbeat_ticks_);
}

void SessionComm::submit_chunk(std::span<const std::byte> wire) {
  ensure_transport_metrics();
  const std::uint64_t seq = next_seq_++;
  unacked_[seq] = make_frame(FrameType::kData, seq, wire);
  refresh_timers(unacked_[seq].size());
  transmit(seq);
  ++outstanding_chunks_;
  // Opportunistic non-advancing drain: deliveries and acks that already
  // arrived are absorbed now, so await_chunk() often returns immediately.
  drain();
}

std::span<const std::byte> SessionComm::await_chunk() {
  if (outstanding_chunks_ == 0) {
    throw std::runtime_error(name() + ": await_chunk with nothing in flight");
  }
  // Corruption never surfaces here: a damaged frame fails its header
  // checksum at the receiver, the ack is withheld and the pristine stored
  // frame is retransmitted — the session heals below the chunk API.
  pump_until([&] { return !delivered_q_.empty(); });
  awaited_ = std::move(delivered_q_.front());
  delivered_q_.pop_front();
  --outstanding_chunks_;
  // Two copies: the sender's frame pack and the receiver's delivery.
  account(awaited_.size() + FrameHeader::kBytes, /*copies=*/2,
          /*messages=*/1);
  return awaited_;
}

void SessionComm::settle_chunks() {
  if (unacked_.empty()) return;
  ensure_transport_metrics();
  pump_until([&] { return unacked_.empty(); });
}

}  // namespace hcc::comm
