// Closed-form NUMA model tests: the node estimate must reproduce the DES's
// placement ordering (local > interleaved > remote), pin forced-remote
// traffic at the link cap, and track fault-driven routing.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/analytic.h"
#include "sim/node.h"
#include "trace/stream_program.h"
#include "util/prng.h"

namespace mcopt::sim {
namespace {

const arch::AddressMap kMap;
const arch::Calibration kCal;
constexpr double kGhz = 1.2;

FaultSpec spec(const std::string& text) {
  auto parsed = FaultSpec::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.value_or(FaultSpec{});
}

// Four read streams spread over all controllers, homed per `bases`.
std::vector<AnalyticStream> spread(std::initializer_list<arch::Addr> bases) {
  std::vector<AnalyticStream> s;
  for (const arch::Addr b : bases) s.push_back({b, false});
  return s;
}

struct NodeInput {
  std::vector<std::vector<AnalyticStream>> streams;
  std::vector<unsigned> threads;
};

NodeInput two_sockets(const arch::NodeTopology& node, bool remote) {
  NodeInput in;
  for (unsigned s = 0; s < 2; ++s) {
    const arch::Addr base = node.socket_base(remote ? 1 - s : s);
    in.streams.push_back(spread({base, base + 128, base + 256, base + 384}));
    in.threads.push_back(64);
  }
  return in;
}

// Bitwise equality (EXPECT_DOUBLE_EQ would forgive four ulps).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const AnalyticEstimate& a, const AnalyticEstimate& b) {
  if (!same_bits(a.service_bandwidth, b.service_bandwidth) ||
      !same_bits(a.latency_bandwidth, b.latency_bandwidth) ||
      !same_bits(a.bandwidth, b.bandwidth) || !same_bits(a.balance, b.balance) ||
      a.mc_utilization.size() != b.mc_utilization.size())
    return false;
  for (std::size_t c = 0; c < a.mc_utilization.size(); ++c)
    if (!same_bits(a.mc_utilization[c], b.mc_utilization[c])) return false;
  return true;
}

// The chip is the one-socket node. Over seeded random stream sets, strand
// counts and controller fault states, every field of the chip estimate
// equals socket 0 of the one-socket node bit for bit.
TEST(NodeAnalytic, SingleSocketReducesToChipModel) {
  arch::NodeTopology node;
  node.num_sockets = 1;
  const std::vector<FaultSpec> states = {
      FaultSpec{}, spec("mc1:off"), spec("mc2:derate=0.5"),
      spec("mc0:off,mc3:derate=0.3"), spec("mc1:off,mc2:off")};

  util::Xoshiro256 rng(21);
  for (int i = 0; i < 10'000; ++i) {
    std::vector<AnalyticStream> logical(1 + rng.below(8));
    for (AnalyticStream& s : logical)
      s = {rng.below(1u << 20) * 8, rng.below(4) == 0};
    const std::vector<AnalyticStream> physical = expand_rfo(logical);
    const std::vector<std::vector<AnalyticStream>> ss = {physical};
    const std::vector<unsigned> threads = {
        static_cast<unsigned>(1 + rng.below(64))};
    const FaultSpec& faults = states[i % states.size()];

    const AnalyticEstimate chip =
        estimate_bandwidth(physical, threads[0], kCal, kMap, kGhz, faults);
    const NodeEstimate one =
        estimate_node_bandwidth(ss, threads, kCal, kMap, node, kGhz, faults);
    ASSERT_TRUE(same_bits(chip, one.sockets[0].chip))
        << "input " << i << " faults " << faults.describe();
    // The node's makespan composition may round differently, no more.
    ASSERT_NEAR(one.bandwidth, chip.bandwidth, 1e-12 * chip.bandwidth);
    ASSERT_EQ(one.remote_fraction, 0.0);
  }
}

TEST(NodeAnalytic, LocalBeatsInterleavedBeatsRemote) {
  const arch::NodeTopology node;
  const NodeInput local = two_sockets(node, /*remote=*/false);
  const NodeInput remote = two_sockets(node, /*remote=*/true);
  NodeInput inter;
  for (unsigned s = 0; s < 2; ++s) {
    // Half of each socket's streams homed on the peer: the analytic stand-in
    // for page-interleaved placement.
    const arch::Addr own = node.socket_base(s);
    const arch::Addr peer = node.socket_base(1 - s);
    inter.streams.push_back(
        spread({own, peer + 128, own + 256, peer + 384}));
    inter.threads.push_back(64);
  }

  const NodeEstimate l = estimate_node_bandwidth(local.streams, local.threads,
                                                 kCal, kMap, node, kGhz);
  const NodeEstimate i = estimate_node_bandwidth(inter.streams, inter.threads,
                                                 kCal, kMap, node, kGhz);
  const NodeEstimate r = estimate_node_bandwidth(remote.streams, remote.threads,
                                                 kCal, kMap, node, kGhz);

  EXPECT_GT(l.bandwidth, 1.1 * i.bandwidth);
  EXPECT_GT(i.bandwidth, 1.1 * r.bandwidth);
  EXPECT_DOUBLE_EQ(l.remote_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.remote_fraction, 1.0);
  EXPECT_NEAR(i.remote_fraction, 0.5, 0.05);

  // Forced-remote pins at the two link ports' aggregate cap.
  const double link_bw =
      64.0 / static_cast<double>(node.link_line_cycles) * kGhz * 1e9;
  EXPECT_NEAR(r.bandwidth, 2.0 * link_bw, 0.05 * 2.0 * link_bw);
  EXPECT_GT(r.sockets[0].link_utilization[1], 0.9);
  EXPECT_DOUBLE_EQ(l.sockets[0].link_utilization[1], 0.0);
}

TEST(NodeAnalytic, DeadPeerDomainFailsOverToLocalService) {
  const arch::NodeTopology node;
  // Socket 0 works on data homed in socket 1's (dead) domain; the remap
  // serves it from socket 0's own memory so nothing crosses a link.
  const arch::Addr peer = node.socket_base(1);
  const std::vector<std::vector<AnalyticStream>> ss = {
      spread({peer, peer + 128, peer + 256, peer + 384}), {}};
  const std::vector<unsigned> threads = {64, 0};
  const NodeEstimate dead = estimate_node_bandwidth(ss, threads, kCal, kMap,
                                                    node, kGhz, spec("sock1:off"));
  const NodeEstimate healthy =
      estimate_node_bandwidth(ss, threads, kCal, kMap, node, kGhz);
  EXPECT_DOUBLE_EQ(dead.remote_fraction, 0.0);
  EXPECT_GT(dead.bandwidth, 1.5 * healthy.bandwidth);  // local beats the link
  EXPECT_DOUBLE_EQ(dead.sockets[1].bytes_per_period, 0.0);
}

TEST(NodeAnalytic, SocketDerateSlowsRemoteService) {
  const arch::NodeTopology node;
  const NodeInput remote = two_sockets(node, /*remote=*/true);
  const NodeEstimate healthy = estimate_node_bandwidth(
      remote.streams, remote.threads, kCal, kMap, node, kGhz);
  const NodeEstimate derated =
      estimate_node_bandwidth(remote.streams, remote.threads, kCal, kMap, node,
                              kGhz, spec("sock1:derate=0.5"));
  // Socket 0's fills are served by the half-speed socket 1 at twice the
  // per-line cost; the node as a whole slows down.
  EXPECT_LT(derated.bandwidth, 0.8 * healthy.bandwidth);
}

// The analytic node model must track the Node DES where the link is the
// binding constraint: forced-remote STREAM pins at the port cap in both.
TEST(NodeAnalytic, TracksDesOnForcedRemote) {
  using trace::LockstepStreamProgram;
  using trace::StreamDesc;
  constexpr unsigned kThreads = 32;
  constexpr std::size_t kN = 8192;

  NodeConfig cfg;
  Node des(cfg);
  std::vector<Workload> wls;
  std::vector<std::vector<AnalyticStream>> ss(2);
  std::vector<unsigned> threads(2, kThreads);
  for (unsigned s = 0; s < 2; ++s) {
    Workload wl;
    for (unsigned t = 0; t < kThreads; ++t) {
      const arch::Addr base = cfg.node.socket_base(1 - s) +
                              t * ((arch::Addr{1} << 20) + 128);
      std::vector<StreamDesc> sd{{base, false, 0}};
      wl.push_back(std::make_unique<LockstepStreamProgram>(
          sd, sizeof(double), std::vector<sched::IterRange>{{0, kN}}, 1));
      ss[s].push_back({base, false});
    }
    wls.push_back(std::move(wl));
  }
  const NodeResult res = des.run(wls);
  const NodeEstimate est =
      estimate_node_bandwidth(ss, threads, kCal, kMap, cfg.node, kGhz);
  EXPECT_NEAR(est.bandwidth, res.memory_bandwidth(),
              0.15 * res.memory_bandwidth());
  EXPECT_NEAR(est.remote_fraction, res.remote_fraction(), 0.01);
}

}  // namespace
}  // namespace mcopt::sim
