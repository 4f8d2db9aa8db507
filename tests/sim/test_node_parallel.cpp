// sim::Node runs its busy sockets concurrently on a process-wide pool. These
// tests pin what that must not change: a node run equals its sockets' chips
// run one at a time, failures are reported for the lowest failing socket,
// concurrent callers and traced runs behave, and a forked child can still
// run a node.

#include <gtest/gtest.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/triad.h"
#include "obs/trace.h"
#include "sim/chip.h"
#include "sim/fault_schedule.h"
#include "sim/faults.h"
#include "sim/node.h"

namespace mcopt::sim {
namespace {

constexpr unsigned kSockets = 4;
constexpr unsigned kThreads = 12;
constexpr std::size_t kN = std::size_t{1} << 12;

enum class Placement { kLocal, kRemote, kFirstTouch };

/// One triad per socket; array k of socket s lives in the home domain the
/// placement picks, staggered so the arrays do not alias one controller.
std::vector<Workload> triads(const NodeConfig& cfg, Placement placement,
                             std::size_t n = kN) {
  std::vector<Workload> wls(cfg.node.num_sockets);
  for (unsigned s = 0; s < cfg.node.num_sockets; ++s) {
    unsigned home = s;
    if (placement == Placement::kRemote) home = (s + 1) % cfg.node.num_sockets;
    if (placement == Placement::kFirstTouch) home = 0;
    std::vector<arch::Addr> bases;
    for (unsigned k = 0; k < 4; ++k)
      bases.push_back(cfg.node.socket_base(home) + (arch::Addr{s} << 28) +
                      k * ((arch::Addr{1} << 24) + 128));
    wls[s] = kernels::make_triad_workload(bases, n, kThreads,
                                          sched::Schedule::static_block());
  }
  return wls;
}

/// Socket s's chip configuration, as Node builds it.
SimConfig socket_config(const NodeConfig& cfg, unsigned s) {
  SimConfig sc = cfg.sim;
  sc.numa.enabled = true;
  sc.numa.socket = s;
  sc.numa.node = cfg.node;
  return sc;
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Every value a SimResult carries, flattened for exact comparison.
std::vector<std::uint64_t> flatten(const SimResult& r) {
  std::vector<std::uint64_t> v{
      r.total_cycles,      r.accesses,           r.loads,
      r.stores,            r.flops,              r.l1.hits,
      r.l1.misses,         r.l1.evictions,       r.l1.writebacks,
      r.l2.hits,           r.l2.misses,          r.l2.evictions,
      r.l2.writebacks,     r.mem_read_bytes,     r.mem_write_bytes,
      r.remote_read_bytes, r.remote_write_bytes, r.corrupted_reads,
      r.degraded,          bits_of(r.clock_ghz), r.mc_timeline_truncated};
  for (const McStats& s : r.mc)
    v.insert(v.end(), {s.reads, s.writes, s.turnarounds, s.row_hits,
                       s.row_conflicts, s.busy_cycles, s.last_completion});
  for (const SimResult::LinkStats& s : r.links)
    v.insert(v.end(), {s.fills, s.writebacks, s.busy_cycles, s.last_completion});
  v.insert(v.end(), r.thread_finish.begin(), r.thread_finish.end());
  for (double u : r.mc_utilization) v.push_back(bits_of(u));
  v.insert(v.end(), r.mc_corrupted_reads.begin(), r.mc_corrupted_reads.end());
  for (const SimResult::Corruption& c : r.corruption_log)
    v.insert(v.end(), {c.cycle, c.addr, c.controller});
  for (const SimResult::EpochStats& e : r.epochs) {
    v.insert(v.end(), {e.begin, e.end, e.mem_read_bytes, e.mem_write_bytes,
                       e.remote_read_bytes, e.remote_write_bytes,
                       bits_of(e.bandwidth)});
    v.insert(v.end(), e.faults.begin(), e.faults.end());
    for (double u : e.mc_utilization) v.push_back(bits_of(u));
    for (double u : e.link_utilization) v.push_back(bits_of(u));
  }
  for (const obs::McSample& row : r.mc_timeline) {
    v.insert(v.end(), {row.begin, row.end});
    for (double u : row.utilization) v.push_back(bits_of(u));
  }
  return v;
}

std::vector<std::uint64_t> flatten(const NodeResult& r) {
  std::vector<std::uint64_t> v{r.total_cycles,      bits_of(r.clock_ghz),
                               r.mem_read_bytes,    r.mem_write_bytes,
                               r.remote_read_bytes, r.remote_write_bytes,
                               r.degraded};
  for (double u : r.socket_utilization) v.push_back(bits_of(u));
  for (const SimResult& s : r.sockets) {
    const std::vector<std::uint64_t> f = flatten(s);
    v.insert(v.end(), f.begin(), f.end());
  }
  return v;
}

struct Scenario {
  const char* name;
  Placement placement;
  const char* faults;    ///< baseline FaultSpec ("" = healthy)
  const char* schedule;  ///< FaultSchedule ("" = none)
  std::uint64_t flip_seed;
};

const Scenario kScenarios[] = {
    {"Remote", Placement::kRemote, "", "", 0},
    {"FirstTouch", Placement::kFirstTouch, "", "", 0},
    {"SocketOutageSchedule", Placement::kRemote, "", "sock2:off@8000..30000", 0},
    {"SeededFlips", Placement::kLocal, "mc1:flip=0.02,mc3:flip=0.01", "", 17},
};

class NodeParallel : public ::testing::TestWithParam<std::size_t> {};

// A 4-socket node run equals four chips run one after another on the same
// per-socket configurations, field for field.
TEST_P(NodeParallel, MatchesSocketsRunOneAtATime) {
  const Scenario& sc = kScenarios[GetParam()];
  NodeConfig cfg;
  cfg.node.num_sockets = kSockets;
  if (*sc.faults != '\0') cfg.sim.faults = FaultSpec::parse(sc.faults).value();
  if (*sc.schedule != '\0')
    cfg.sim.fault_schedule = FaultSchedule::parse(sc.schedule).value();
  cfg.sim.flip_seed = sc.flip_seed;

  std::vector<Workload> wls = triads(cfg, sc.placement);
  const NodeResult node = Node(cfg).run(wls);

  std::vector<Workload> serial = triads(cfg, sc.placement);
  std::uint64_t remote = 0;
  std::uint64_t corrupted = 0;
  for (unsigned s = 0; s < kSockets; ++s) {
    const SimConfig chip_cfg = socket_config(cfg, s);
    Chip chip(chip_cfg, arch::equidistant_placement(kThreads, chip_cfg.topology));
    const SimResult want = chip.run(serial[s]);
    EXPECT_EQ(flatten(node.sockets[s]), flatten(want)) << "socket " << s;
    remote += want.remote_read_bytes + want.remote_write_bytes;
    corrupted += want.corrupted_reads;
  }
  // The scenarios exercise what they are named for.
  if (sc.placement != Placement::kLocal) EXPECT_GT(remote, 0u);
  if (sc.flip_seed != 0) EXPECT_GT(corrupted, 0u);
  if (*sc.schedule != '\0') EXPECT_GT(node.sockets[0].epochs.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, NodeParallel,
                         ::testing::Range(std::size_t{0}, std::size(kScenarios)),
                         [](const auto& info) {
                           return std::string(kScenarios[info.param].name);
                         });

// Sockets 1 and 3 both exceed the cycle budget; the node reports socket 1
// with the chip's own watchdog message, whichever thread finished first.
TEST(NodeParallelFailure, WatchdogNamesTheLowestFailingSocket) {
  NodeConfig cfg;
  cfg.node.num_sockets = kSockets;
  cfg.sim.cycle_budget = 20000;
  const auto workloads = [&] {
    std::vector<Workload> wls = triads(cfg, Placement::kLocal, 256);
    std::vector<Workload> big = triads(cfg, Placement::kLocal, kN * 4);
    wls[1] = std::move(big[1]);
    wls[3] = std::move(big[3]);
    return wls;
  };
  std::vector<Workload> wls = workloads();
  const util::Expected<NodeResult> res = Node(cfg).try_run(wls);
  ASSERT_FALSE(res);

  std::vector<Workload> serial = workloads();
  std::vector<std::string> failures;  // per socket, "" = ran to completion
  for (unsigned s = 0; s < kSockets; ++s) {
    const SimConfig chip_cfg = socket_config(cfg, s);
    Chip chip(chip_cfg, arch::equidistant_placement(kThreads, chip_cfg.topology));
    const util::Expected<SimResult> alone = chip.try_run(serial[s]);
    failures.push_back(alone ? "" : alone.error().message);
  }
  ASSERT_EQ(failures[0], "");
  ASSERT_NE(failures[1], "");
  ASSERT_EQ(failures[2], "");
  ASSERT_NE(failures[3], "");
  EXPECT_EQ(res.error().message, "socket 1: " + failures[1]);
  EXPECT_NE(res.error().message.find("watchdog"), std::string::npos);
}

// Four threads run nodes at once (the pool serves one; the others run their
// sockets inline) and every result equals the serial one.
TEST(NodeParallelCallers, ConcurrentCallersMatchSerialRuns) {
  NodeConfig cfg;
  cfg.node.num_sockets = kSockets;
  const Node node(cfg);
  const Placement placements[] = {Placement::kLocal, Placement::kRemote,
                                  Placement::kFirstTouch, Placement::kRemote};
  std::vector<std::vector<std::uint64_t>> want;
  for (Placement p : placements) {
    std::vector<Workload> wls = triads(cfg, p, 1024);
    want.push_back(flatten(Node(cfg).run(wls)));
  }
  constexpr int kRounds = 3;
  std::vector<std::vector<std::vector<std::uint64_t>>> got(std::size(placements));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < std::size(placements); ++c)
    callers.emplace_back([&, c] {
      Node mine = node;
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Workload> wls = triads(cfg, placements[c], 1024);
        got[c].push_back(flatten(mine.run(wls)));
      }
    });
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < std::size(placements); ++c) {
    ASSERT_EQ(got[c].size(), static_cast<std::size_t>(kRounds));
    for (const auto& r : got[c]) EXPECT_EQ(r, want[c]) << "caller " << c;
  }
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

// The pool's helpers persist: 500 traced runs register at most the caller's
// ring plus one per helper, and no event is dropped.
TEST(NodeParallelTrace, TracedRunsRegisterOnlyPoolThreads) {
  NodeConfig cfg;
  cfg.node.num_sockets = kSockets;
  const Node node(cfg);
  {
    std::vector<Workload> warm = triads(cfg, Placement::kLocal, 64);
    (void)Node(node).run(warm);  // the pool exists before the window
  }
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.disable();
  rec.reset();
  rec.enable(1 << 14);
  Node traced = node;
  std::uint64_t runs = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<Workload> wls = triads(cfg, Placement::kRemote, 64);
    runs += traced.run(wls).sockets.size();
  }
  rec.disable();
  const unsigned helpers =
      std::min(affinity_cpus(), arch::NodeTopology::kMaxSockets) - 1;
  EXPECT_EQ(runs, 500u * kSockets);
  EXPECT_LE(rec.threads_seen(), 1 + helpers);
  EXPECT_EQ(rec.dropped(), 0u);
  std::uint64_t chip_runs = 0;
  for (const obs::TraceEvent& e : rec.snapshot())
    chip_runs += e.phase == obs::Phase::kBegin && std::string(e.name) == "sim.run";
  EXPECT_EQ(chip_runs, 500u * kSockets);
  rec.reset();
}

// A forked child inherits no helpers: its node runs inline, and finishes.
TEST(NodeParallelFork, ChildOfAPoolUserRunsANode) {
  NodeConfig cfg;
  cfg.node.num_sockets = kSockets;
  std::vector<Workload> wls = triads(cfg, Placement::kRemote, 1024);
  const std::vector<std::uint64_t> want = flatten(Node(cfg).run(wls));

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << std::strerror(errno);
  if (pid == 0) {
    std::vector<Workload> child = triads(cfg, Placement::kRemote, 1024);
    const bool same = flatten(Node(cfg).run(child)) == want;
    _exit(same ? 0 : 1);
  }
  int status = 0;
  pid_t done = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "forked child did not finish its node run within 60 s";
  }
  ASSERT_EQ(done, pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child status " << status;
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child's node result differed";
}

}  // namespace
}  // namespace mcopt::sim
