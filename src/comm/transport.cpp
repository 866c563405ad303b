#include "comm/transport.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace hcc::comm {

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess: return "in-process";
    case TransportKind::kSimLatency: return "sim-latency";
    case TransportKind::kChaos: return "chaos";
  }
  return "?";
}

TransportKind transport_kind_by_name(const std::string& name) {
  if (name == "in-process") return TransportKind::kInProcess;
  if (name == "sim-latency") return TransportKind::kSimLatency;
  if (name == "chaos") return TransportKind::kChaos;
  throw std::invalid_argument("unknown transport kind '" + name +
                              "' (in-process, sim-latency, chaos)");
}

SimLatencyTransport::SimLatencyTransport(sim::LinkSpec link)
    : link_(std::move(link)), tick_s_(std::max(link_.latency_s, 1e-6)) {}

std::uint64_t SimLatencyTransport::one_way_ticks(std::size_t bytes) const {
  const double sustained = link_.bandwidth_gbs * link_.efficiency * 1e9;
  const double serialize_s =
      sustained > 0.0 ? static_cast<double>(bytes) / sustained : 0.0;
  const double ticks = (link_.latency_s + serialize_s) / tick_s_;
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                        std::ceil(ticks)));
}

void SimLatencyTransport::enqueue(Dir dir, std::vector<std::byte> frame,
                                  std::uint64_t arrival) {
  auto& q = queues_[static_cast<std::size_t>(dir)];
  // Head-of-line stream semantics: a frame never arrives before the one
  // enqueued ahead of it.
  if (!q.empty()) arrival = std::max(arrival, q.back().arrival);
  q.push_back(Timed{arrival, std::move(frame)});
}

void SimLatencyTransport::clear_in_flight() {
  queues_[0].clear();
  queues_[1].clear();
}

void SimLatencyTransport::send(Dir dir, std::vector<std::byte> frame) {
  const std::uint64_t arrival = now_ + one_way_ticks(frame.size());
  enqueue(dir, std::move(frame), arrival);
}

bool SimLatencyTransport::recv(Dir dir, std::vector<std::byte>& frame) {
  auto& q = queues_[static_cast<std::size_t>(dir)];
  if (q.empty() || q.front().arrival > now_) return false;
  frame = std::move(q.front().frame);
  q.pop_front();
  return true;
}

ChaosTransport::ChaosTransport(sim::LinkSpec link,
                               const fault::FaultPlan& plan,
                               std::uint32_t worker)
    : SimLatencyTransport(std::move(link)), worker_(worker) {
  for (const fault::FaultEvent& event : plan.events) {
    if (event.worker != worker_) continue;
    if (!fault::is_transport_fault(event.kind)) continue;
    schedule_.push_back(Scheduled{event, event.count, false});
  }
}

void ChaosTransport::ensure_metrics() {
  if (drops_counter_ != nullptr) return;
  drops_counter_ = &obs::registry().counter("transport.drops");
}

ChaosTransport::Scheduled* ChaosTransport::match(fault::FaultKind kind) {
  for (Scheduled& s : schedule_) {
    if (s.event.kind == kind && s.event.epoch == epoch_ && s.remaining > 0) {
      return &s;
    }
  }
  return nullptr;
}

void ChaosTransport::begin_epoch(std::uint32_t epoch) { epoch_ = epoch; }

void ChaosTransport::sever() {
  connected_ = false;
  holding_ = false;
  held_.clear();
  clear_in_flight();
}

void ChaosTransport::send(Dir dir, std::vector<std::byte> frame) {
  ensure_metrics();
  if (!connected_) {
    // A severed link swallows traffic in both directions.
    ++dropped_;
    drops_counter_->add(1);
    return;
  }
  if (dir == Dir::kReverse) {
    // The chaos schedule models the worker-side path; acks flow clean so
    // every scripted scenario has a deterministic healing story.
    SimLatencyTransport::send(dir, std::move(frame));
    return;
  }

  // Disconnect outranks per-frame faults: the link severs at the first
  // frame of the scripted epoch and this frame is lost with it.
  if (Scheduled* disc = match(fault::FaultKind::kDisconnect)) {
    if (!disc->triggered) {
      disc->triggered = true;
      sever();
      ++dropped_;
      drops_counter_->add(1);
      return;
    }
  }

  if (Scheduled* s = match(fault::FaultKind::kDrop)) {
    --s->remaining;
    ++dropped_;
    drops_counter_->add(1);
    return;
  }
  if (Scheduled* s = match(fault::FaultKind::kDuplicate)) {
    --s->remaining;
    std::vector<std::byte> copy = frame;
    SimLatencyTransport::send(dir, std::move(frame));
    SimLatencyTransport::send(dir, std::move(copy));
    return;
  }
  if (Scheduled* s = match(fault::FaultKind::kReorder)) {
    if (!holding_) {
      --s->remaining;
      holding_ = true;
      held_ = std::move(frame);
      return;
    }
  }
  if (Scheduled* s = match(fault::FaultKind::kDelay)) {
    --s->remaining;
    const std::uint64_t arrival =
        now_ + one_way_ticks(frame.size()) + s->event.delay_ticks;
    enqueue(dir, std::move(frame), arrival);
    if (holding_) {
      // A held (reordered) frame rides out behind its follower.
      holding_ = false;
      SimLatencyTransport::send(dir, std::move(held_));
    }
    return;
  }

  SimLatencyTransport::send(dir, std::move(frame));
  if (holding_) {
    holding_ = false;
    SimLatencyTransport::send(dir, std::move(held_));
  }
}

bool ChaosTransport::recv(Dir dir, std::vector<std::byte>& frame) {
  if (!connected_) return false;
  return SimLatencyTransport::recv(dir, frame);
}

bool ChaosTransport::try_reconnect() {
  if (connected_) return true;
  for (Scheduled& s : schedule_) {
    if (s.event.kind == fault::FaultKind::kDisconnect && s.triggered &&
        s.remaining > 0) {
      // The scripted outage: the first `count` reconnection attempts fail.
      --s.remaining;
      return false;
    }
  }
  connected_ = true;
  return true;
}

std::unique_ptr<Transport> make_transport(const TransportConfig& config,
                                          std::uint32_t worker) {
  switch (config.kind) {
    case TransportKind::kInProcess:
      throw std::invalid_argument(
          "the in-process link has no transport (make_backend gives ShmComm)");
    case TransportKind::kSimLatency:
      return std::make_unique<SimLatencyTransport>(
          sim::link_by_name(config.link));
    case TransportKind::kChaos:
      return std::make_unique<ChaosTransport>(sim::link_by_name(config.link),
                                              config.plan, worker);
  }
  throw std::invalid_argument("unknown TransportKind");
}

}  // namespace hcc::comm
