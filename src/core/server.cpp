#include "core/server.hpp"

#include <cassert>

#include "obs/span.hpp"

namespace hcc::core {

namespace {
// The server owns Chrome-trace track 0 (workers are 1..N).
constexpr std::uint32_t kServerTrack = 0;
}  // namespace

Server::Server(mf::FactorModel global, const comm::CommConfig& config)
    : global_(std::move(global)), codec_(comm::make_codec(config, global_.k())) {
  obs::trace().set_track_name(kServerTrack, "server (sync)");
}

void Server::sync_q(std::span<const float> pushed,
                    std::span<const float> snapshot,
                    std::span<const float> item_weights) {
  obs::ScopedSpan span("sync", obs::kPhaseCategory, kServerTrack);
  std::span<float> q = global_.q_data();
  assert(pushed.size() == q.size() && snapshot.size() == q.size());
  const std::uint32_t k = global_.k();
  assert(item_weights.size() * k == q.size());
  // Eq. 3's three read/write memory operations and one multiply-add per
  // feature parameter.
  for (std::size_t item = 0; item < item_weights.size(); ++item) {
    const float w = item_weights[item];
    if (w == 0.0f) continue;
    const std::size_t base = item * k;
    for (std::uint32_t f = 0; f < k; ++f) {
      q[base + f] += w * (pushed[base + f] - snapshot[base + f]);
    }
  }
  ++sync_count_;
  measured_sync_s_ += span.stop();
}

void Server::roundtrip_p_through_codec() {
  std::span<float> p = global_.p_data();
  std::vector<std::byte> wire(codec_->encoded_bytes(p.size()));
  codec_->encode(p, wire);
  codec_->decode(wire, p);
}

void Server::publish_snapshot(std::uint32_t epoch) {
  if (snapshots_ == nullptr) return;
  auto snapshot = std::make_shared<serve::ModelSnapshot>();
  snapshot->epoch = epoch;
  snapshot->store =
      serve::FactorStore(snapshot_kind_, global_.users(), global_.items(),
                         global_.k(), global_.p_data(), global_.q_data());
  snapshots_->publish(std::move(snapshot));
}

}  // namespace hcc::core
