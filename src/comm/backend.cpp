#include "comm/backend.hpp"

#include <utility>

namespace hcc::comm {

std::uint64_t wire_checksum(std::span<const std::byte> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

void CommBackend::account(std::size_t billed_bytes, std::uint64_t copies,
                          std::uint64_t messages) {
  if (wire_bytes_counter_ == nullptr) {
    auto& reg = obs::registry();
    const std::string base = "comm." + name() + ".";
    wire_bytes_counter_ = &reg.counter(base + "wire_bytes");
    transfers_counter_ = &reg.counter(base + "transfers");
    messages_counter_ = &reg.counter(base + "messages");
  }
  stats_.wire_bytes += billed_bytes;
  stats_.copies += copies;
  stats_.messages += messages;
  wire_bytes_counter_->add(billed_bytes);
  transfers_counter_->add(1);
  messages_counter_->add(messages);
}

void ShmComm::recycle_delivered() {
  if (delivered_.capacity() > 0) spare_.push_back(std::move(delivered_));
}

void ShmComm::submit_chunk(std::span<const std::byte> wire) {
  // await_chunk()'s view ends here, so a depth-1 stream reuses one buffer.
  recycle_delivered();
  // The one wire copy: into a recycled buffer, so steady-state transfers
  // reuse capacity instead of allocating.
  std::vector<std::byte> buffer;
  if (!spare_.empty()) {
    buffer = std::move(spare_.back());
    spare_.pop_back();
  }
  buffer.assign(wire.begin(), wire.end());
  if (resubmit_front_) {
    // Pristine re-send after a ChecksumError: it replaces the discarded
    // oldest chunk, ahead of any younger chunks still queued.
    pending_.push_front(std::move(buffer));
    resubmit_front_ = false;
  } else {
    pending_.push_back(std::move(buffer));
  }
}

std::span<const std::byte> ShmComm::await_chunk() {
  if (pending_.empty()) {
    throw std::runtime_error(name() + ": await_chunk with nothing in flight");
  }
  recycle_delivered();
  delivered_ = std::move(pending_.front());
  pending_.pop_front();
  // The checksum travels out-of-band (8 billed bytes); the tap models
  // in-flight corruption; verification precedes decode, so a damaged
  // payload never reaches Q.
  const std::uint64_t sent = checksum_ ? wire_checksum(delivered_) : 0;
  if (tap_) tap_(delivered_);
  if (checksum_ && wire_checksum(delivered_) != sent) {
    resubmit_front_ = true;  // the corrupt chunk is gone; re-send goes first
    throw ChecksumError(name());
  }
  account(delivered_.size() + (checksum_ ? 8 : 0), /*copies=*/1,
          /*messages=*/0);
  return delivered_;
}

}  // namespace hcc::comm
