// Transport tier unit tests: kind parsing, link presets, the virtual-tick
// latency model, and the chaos transport's deterministic fault semantics
// (drop / dup / reorder / delay / disconnect, budgets burned once per run).
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "comm/transport.hpp"
#include "core/hccmf.hpp"
#include "fault/plan.hpp"
#include "sim/platform.hpp"

namespace hcc::comm {
namespace {

std::vector<std::byte> frame_of(std::size_t bytes, std::byte fill) {
  return std::vector<std::byte>(bytes, fill);
}

TEST(Transport, KindNamesRoundTrip) {
  for (TransportKind kind : {TransportKind::kInProcess,
                             TransportKind::kSimLatency,
                             TransportKind::kChaos}) {
    EXPECT_EQ(transport_kind_by_name(transport_kind_name(kind)), kind);
  }
  EXPECT_THROW(transport_kind_by_name("tcp"), std::invalid_argument);
}

TEST(Transport, LinkPresetsResolveByNameAndRejectUnknown) {
  EXPECT_DOUBLE_EQ(sim::link_by_name("100GbE").bandwidth_gbs,
                   sim::link_100gbe().bandwidth_gbs);
  EXPECT_DOUBLE_EQ(sim::link_by_name("10GbE").latency_s,
                   sim::link_10gbe().latency_s);
  EXPECT_DOUBLE_EQ(sim::link_by_name("IB-HDR").latency_s,
                   sim::link_ib_hdr().latency_s);
  EXPECT_DOUBLE_EQ(sim::link_by_name("1GbE").bandwidth_gbs,
                   sim::link_1gbe().bandwidth_gbs);
  EXPECT_NO_THROW(sim::link_by_name("local"));
  EXPECT_THROW(sim::link_by_name("carrier-pigeon"), std::invalid_argument);
}

TEST(Transport, LinkRttGrowsWithPayloadAndLatency) {
  const sim::LinkSpec fast = sim::link_ib_hdr();
  const sim::LinkSpec slow = sim::link_10gbe();
  EXPECT_GT(fast.rtt_s(1 << 20), fast.rtt_s(64));
  EXPECT_GT(slow.rtt_s(64), fast.rtt_s(64));
  // RTT is at least two latency traversals.
  EXPECT_GE(slow.rtt_s(0), 2.0 * slow.latency_s);
}

TEST(Transport, SimLatencyDeliversOnlyAfterTheModeledTicks) {
  SimLatencyTransport t(sim::link_100gbe());
  const std::uint64_t ticks = t.one_way_ticks(256);
  ASSERT_GE(ticks, 1u);
  t.send(Dir::kForward, frame_of(256, std::byte{7}));
  std::vector<std::byte> got;
  EXPECT_FALSE(t.recv(Dir::kForward, got));  // not yet arrived
  t.advance(ticks);
  ASSERT_TRUE(t.recv(Dir::kForward, got));
  EXPECT_EQ(got.size(), 256u);
}

TEST(Transport, SimLatencyKeepsHeadOfLineOrder) {
  SimLatencyTransport t(sim::link_10gbe());
  // A big frame ahead of a tiny one: the tiny one must not overtake it.
  t.send(Dir::kForward, frame_of(1 << 16, std::byte{1}));
  t.send(Dir::kForward, frame_of(8, std::byte{2}));
  t.advance(t.one_way_ticks(1 << 16) + t.one_way_ticks(8));
  std::vector<std::byte> got;
  ASSERT_TRUE(t.recv(Dir::kForward, got));
  EXPECT_EQ(got[0], std::byte{1});
  ASSERT_TRUE(t.recv(Dir::kForward, got));
  EXPECT_EQ(got[0], std::byte{2});
}

ChaosTransport chaos_with(const std::string& spec, std::uint32_t worker = 0) {
  return ChaosTransport(sim::link_local(), fault::FaultPlan::parse(spec),
                        worker);
}

/// Drains every currently-deliverable frame after advancing far enough.
std::vector<std::vector<std::byte>> drain_forward(Transport& t) {
  t.advance(1'000'000);
  std::vector<std::vector<std::byte>> out;
  std::vector<std::byte> frame;
  while (t.recv(Dir::kForward, frame)) out.push_back(frame);
  return out;
}

TEST(Transport, ChaosDropSwallowsTheFirstFramesOfTheEpoch) {
  ChaosTransport t = chaos_with("drop:w0@e2n2");
  t.begin_epoch(2);
  t.send(Dir::kForward, frame_of(4, std::byte{1}));
  t.send(Dir::kForward, frame_of(4, std::byte{2}));
  t.send(Dir::kForward, frame_of(4, std::byte{3}));
  const auto got = drain_forward(t);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0][0], std::byte{3});
  EXPECT_EQ(t.dropped(), 2u);
}

TEST(Transport, ChaosEventsAddressWorkerAndEpoch) {
  // Worker 1's plan does not touch worker 0's link; epoch 2's event does
  // not fire in epoch 1.
  ChaosTransport other = chaos_with("drop:w1@e0", /*worker=*/0);
  other.begin_epoch(0);
  other.send(Dir::kForward, frame_of(4, std::byte{9}));
  EXPECT_EQ(drain_forward(other).size(), 1u);

  ChaosTransport later = chaos_with("drop:w0@e2");
  later.begin_epoch(1);
  later.send(Dir::kForward, frame_of(4, std::byte{9}));
  EXPECT_EQ(drain_forward(later).size(), 1u);
}

TEST(Transport, ChaosBudgetBurnsOncePerRun) {
  // A rolled-back replay of the epoch must not re-fire the drop.
  ChaosTransport t = chaos_with("drop:w0@e1");
  t.begin_epoch(1);
  t.send(Dir::kForward, frame_of(4, std::byte{1}));  // dropped
  EXPECT_EQ(drain_forward(t).size(), 0u);
  t.begin_epoch(1);  // replay after rollback
  t.send(Dir::kForward, frame_of(4, std::byte{2}));
  EXPECT_EQ(drain_forward(t).size(), 1u);
}

TEST(Transport, ChaosDuplicateDeliversTheFrameTwice) {
  ChaosTransport t = chaos_with("dup:w0@e0");
  t.begin_epoch(0);
  t.send(Dir::kForward, frame_of(4, std::byte{5}));
  const auto got = drain_forward(t);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], got[1]);
}

TEST(Transport, ChaosReorderSwapsAPairOfFrames) {
  ChaosTransport t = chaos_with("reorder:w0@e0");
  t.begin_epoch(0);
  t.send(Dir::kForward, frame_of(4, std::byte{1}));  // held
  t.send(Dir::kForward, frame_of(4, std::byte{2}));  // released first
  const auto got = drain_forward(t);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0][0], std::byte{2});
  EXPECT_EQ(got[1][0], std::byte{1});
}

TEST(Transport, ChaosDelayPushesArrivalOut) {
  ChaosTransport t = chaos_with("delay:w0@e0x500");
  t.begin_epoch(0);
  t.send(Dir::kForward, frame_of(16, std::byte{8}));
  const std::uint64_t natural = t.one_way_ticks(16);
  std::vector<std::byte> got;
  t.advance(natural);
  EXPECT_FALSE(t.recv(Dir::kForward, got));  // still held
  t.advance(500);
  ASSERT_TRUE(t.recv(Dir::kForward, got));
  EXPECT_EQ(got.size(), 16u);
}

TEST(Transport, ChaosDisconnectSeversThenHealsAfterBudget) {
  ChaosTransport t = chaos_with("disconnect:w0@e0n2");
  t.begin_epoch(0);
  EXPECT_TRUE(t.connected());
  t.send(Dir::kForward, frame_of(4, std::byte{1}));  // severs, frame lost
  EXPECT_FALSE(t.connected());
  // While severed, both directions swallow traffic.
  t.send(Dir::kReverse, frame_of(4, std::byte{2}));
  EXPECT_EQ(drain_forward(t).size(), 0u);
  // First two reconnect attempts fail (n2), the third succeeds.
  EXPECT_FALSE(t.try_reconnect());
  EXPECT_FALSE(t.try_reconnect());
  EXPECT_TRUE(t.try_reconnect());
  EXPECT_TRUE(t.connected());
  t.send(Dir::kForward, frame_of(4, std::byte{3}));
  EXPECT_EQ(drain_forward(t).size(), 1u);
}

TEST(Transport, ChaosReverseDirectionFlowsClean) {
  ChaosTransport t = chaos_with("drop:w0@e0n9");
  t.begin_epoch(0);
  t.send(Dir::kReverse, frame_of(4, std::byte{1}));
  t.advance(1'000'000);
  std::vector<std::byte> got;
  EXPECT_TRUE(t.recv(Dir::kReverse, got));
}

TEST(Transport, MakeTransportHonorsKindAndLink) {
  TransportConfig config;
  // The in-process link is ShmComm's and has no transport to make.
  config.kind = TransportKind::kInProcess;
  EXPECT_THROW(make_transport(config, 0), std::invalid_argument);
  config.kind = TransportKind::kSimLatency;
  config.link = "10GbE";
  EXPECT_EQ(make_transport(config, 0)->name(), "10GbE");
  config.kind = TransportKind::kChaos;
  EXPECT_EQ(make_transport(config, 0)->name(), "chaos(10GbE)");
  config.link = "nonsense";
  EXPECT_THROW(make_transport(config, 0), std::invalid_argument);
}

/// Satellite: transport validation surfaces typed errors through the
/// existing HccMfConfig::validate() channel.
bool has_code(const std::vector<core::ConfigError>& errors,
              core::ConfigErrorCode code) {
  for (const auto& e : errors) {
    if (e.code == code) return true;
  }
  return false;
}

core::HccMfConfig tiny_valid_config() {
  core::HccMfConfig config;
  config.platform = sim::paper_workstation_overall();
  return config;
}

TEST(TransportValidation, ZeroHeartbeatIsRejected) {
  core::HccMfConfig config = tiny_valid_config();
  config.comm.transport.kind = TransportKind::kSimLatency;
  config.comm.transport.heartbeat_ms = 0.0;
  EXPECT_TRUE(
      has_code(config.validate(), core::ConfigErrorCode::kBadHeartbeat));
}

TEST(TransportValidation, TimeoutMustExceedHeartbeat) {
  core::HccMfConfig config = tiny_valid_config();
  config.comm.transport.kind = TransportKind::kSimLatency;
  config.comm.transport.heartbeat_ms = 5.0;
  config.comm.transport.timeout_ms = 5.0;  // not > heartbeat
  EXPECT_TRUE(has_code(config.validate(),
                       core::ConfigErrorCode::kBadTransportTimeout));
  config.comm.transport.timeout_ms = 0.0;  // 0 = derive: valid
  EXPECT_FALSE(has_code(config.validate(),
                        core::ConfigErrorCode::kBadTransportTimeout));
}

TEST(TransportValidation, ZeroReconnectBudgetIsRejected) {
  core::HccMfConfig config = tiny_valid_config();
  config.comm.transport.kind = TransportKind::kChaos;
  config.comm.transport.reconnect_budget = 0;
  EXPECT_TRUE(has_code(config.validate(),
                       core::ConfigErrorCode::kZeroReconnectBudget));
}

TEST(TransportValidation, UnknownLinkPresetIsRejected) {
  core::HccMfConfig config = tiny_valid_config();
  config.comm.transport.kind = TransportKind::kSimLatency;
  config.comm.transport.link = "token-ring";
  EXPECT_TRUE(has_code(config.validate(),
                       core::ConfigErrorCode::kBadTransportLink));
  // The in-process default never validates the link name.
  config.comm.transport.kind = TransportKind::kInProcess;
  EXPECT_TRUE(config.validate().empty());
}

TEST(TransportValidation, TransportFaultPlanGrammarRoundTrips) {
  const std::string spec =
      "drop:w0@e1n2;dup:w1@e2;reorder:w2@e3;delay:w0@e4x500n3;"
      "disconnect:w1@e5n4;join:w2@e6";
  const fault::FaultPlan plan = fault::FaultPlan::parse(spec);
  ASSERT_EQ(plan.events.size(), 6u);
  EXPECT_EQ(plan.events[0].count, 2u);
  EXPECT_EQ(plan.events[3].delay_ticks, 500u);
  EXPECT_EQ(plan.events[5].kind, fault::FaultKind::kJoin);
  EXPECT_EQ(fault::FaultPlan::parse(plan.to_string()).events, plan.events);
}

}  // namespace
}  // namespace hcc::comm
