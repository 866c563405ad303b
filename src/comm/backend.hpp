// Functional communication backends.
//
// These really move feature data between the server and workers (which live
// in one process here; the paper uses OS processes + shared pinned memory,
// an isomorphic structure — see DESIGN.md's substitution table).
//
// A backend is a split-phase chunk link: comm::StreamPipeline encodes each
// P/Q transfer into one or more chunks and streams them through
// submit_chunk / await_chunk / settle_chunks.  Two links implement it:
//
// - ShmComm reproduces "COMM", the in-process link: each chunk lands in a
//   reused shared buffer with exactly one wire copy.
// - SessionComm (comm/session.hpp) frames chunks over a simulated-latency
//   or chaos Transport.
//
// The paper's ps-lite-style "COMM-P" baseline is a timing-model setting
// (BackendKind::kBroker -> CommConfig::broker_penalty in make_comm_plan),
// not a functional link.  Backends count bytes, copies and messages so
// tests can assert the structural cost of each link.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hcc::comm {

/// A transfer's payload checksum did not survive the wire (fault-tolerance
/// extension): the receiver must discard the buffer and re-request.
class ChecksumError : public std::runtime_error {
 public:
  explicit ChecksumError(const std::string& backend)
      : std::runtime_error("COMM checksum mismatch on " + backend +
                           " transfer (corrupt payload discarded)") {}
};

/// FNV-1a 64 over a byte span — the wire checksum.  Cheap, stateless, and
/// sensitive to any single flipped bit.
std::uint64_t wire_checksum(std::span<const std::byte> bytes) noexcept;

/// Test/fault seam: mutates wire bytes "in flight" (between the sender's
/// encode and the receiver's decode).
using WireTap = std::function<void(std::span<std::byte>)>;

/// Transfer accounting.
struct TransferStats {
  std::uint64_t wire_bytes = 0;  ///< bytes that crossed the (virtual) bus
  std::uint64_t copies = 0;      ///< buffer-to-buffer copy operations
  std::uint64_t messages = 0;    ///< discrete messages (session frames)

  TransferStats& operator+=(const TransferStats& o) {
    wire_bytes += o.wire_bytes;
    copies += o.copies;
    messages += o.messages;
    return *this;
  }
};

/// Moves encoded chunks between server and worker address spaces.
///
/// Contract: submit_chunk() enqueues wire bytes without blocking on
/// delivery; await_chunk() blocks until the *oldest* outstanding chunk is
/// delivered and returns a view of its bytes (valid until the next
/// submit/await/settle call), throwing ChecksumError when the payload was
/// corrupted in flight — the caller then re-submits its pristine copy,
/// which takes the discarded chunk's place; settle_chunks() runs after the
/// last await and quiesces the transfer (for sessions: pumps until every
/// frame is acked).
class CommBackend {
 public:
  virtual ~CommBackend() = default;

  virtual std::string name() const = 0;

  /// Epoch cursor for transports whose fault schedule is epoch-addressed
  /// (SessionComm forwards it to a chaos link); a no-op in-process.
  virtual void begin_epoch(std::uint32_t epoch) { (void)epoch; }

  /// Enqueues one chunk's wire bytes (may deliver instantly in-process).
  virtual void submit_chunk(std::span<const std::byte> wire) = 0;
  /// Delivers the oldest outstanding chunk, in submission order.
  virtual std::span<const std::byte> await_chunk() = 0;
  /// Post-transfer barrier: returns once nothing is outstanding.
  virtual void settle_chunks() {}
  /// Outstanding submitted-but-not-awaited chunks.
  virtual std::size_t chunks_in_flight() const noexcept = 0;

  const TransferStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Enables the out-of-band payload checksum (8 extra wire bytes per
  /// in-process chunk; await_chunk() throws ChecksumError on mismatch).
  /// Off by default so the wire format is unchanged unless fault tolerance
  /// asks.  Sessions always checksum their frames.
  void set_checksum_enabled(bool enabled) noexcept { checksum_ = enabled; }

  /// Installs (or clears, with nullptr) the in-flight wire tap.
  void set_wire_tap(WireTap tap) { tap_ = std::move(tap); }

 protected:
  /// Bills one delivered chunk to stats() and to this backend's registry
  /// metrics (`comm.<name>.wire_bytes`, `.transfers`, `.messages`),
  /// resolved on first use because name() is virtual.
  void account(std::size_t billed_bytes, std::uint64_t copies,
               std::uint64_t messages);

  TransferStats stats_;
  bool checksum_ = false;
  WireTap tap_;

 private:
  obs::Counter* wire_bytes_counter_ = nullptr;
  obs::Counter* transfers_counter_ = nullptr;
  obs::Counter* messages_counter_ = nullptr;
};

/// "COMM": the in-process link.  A submitted chunk is copied once into a
/// reused buffer of the receiver's queue; on delivery the tap runs, then
/// the optional out-of-band checksum verifies the bytes before the caller
/// decodes them.  The sender's bytes stay pristine, so a re-submit after a
/// ChecksumError is byte-identical and jumps ahead of younger chunks.
class ShmComm final : public CommBackend {
 public:
  std::string name() const override { return "COMM"; }
  void submit_chunk(std::span<const std::byte> wire) override;
  std::span<const std::byte> await_chunk() override;
  std::size_t chunks_in_flight() const noexcept override {
    return pending_.size();
  }

 private:
  /// Returns the delivered chunk's buffer to spare_ once its view ends.
  void recycle_delivered();

  std::deque<std::vector<std::byte>> pending_;
  std::vector<std::vector<std::byte>> spare_;  ///< recycled chunk buffers
  std::vector<std::byte> delivered_;  ///< backs await_chunk()'s view
  bool resubmit_front_ = false;
};

}  // namespace hcc::comm
