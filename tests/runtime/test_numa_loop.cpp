// Socket-domain supervision: the NodeSupervisor detector (dead-socket
// signature, evidence rule, link-derate from per-line cost, debounce and
// backoff) and the supervised node loop (healthy no-op, socket-outage
// failover with convergence to the survivor, declined end-of-run migration).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/numa_loop.h"
#include "runtime/supervisor.h"
#include "sim/fault_schedule.h"
#include "sim/faults.h"

namespace mcopt::runtime {
namespace {

arch::NodeTopology two_sockets() { return arch::NodeTopology{}; }

/// A sample where socket `dead` shows the dead-memory signature: collapsed
/// controller utilization while its outbound link toward `serving` is
/// saturated carrying the remapped traffic.
NodeSample dead_socket_sample(unsigned dead, unsigned serving,
                              double link_cost = 16.0) {
  NodeSample s;
  s.begin = 0;
  s.end = 1000000;
  s.socket_utilization = {0.6, 0.6};
  s.socket_utilization[dead] = 0.01;
  s.link_utilization.assign(2, std::vector<double>(2, 0.0));
  s.link_line_cost.assign(2, std::vector<double>(2, 0.0));
  s.link_utilization[dead][serving] = 0.8;
  s.link_line_cost[dead][serving] = link_cost;
  return s;
}

NodeSample healthy_sample() {
  NodeSample s;
  s.begin = 0;
  s.end = 1000000;
  s.socket_utilization = {0.6, 0.6};
  s.link_utilization.assign(2, std::vector<double>(2, 0.0));
  s.link_line_cost.assign(2, std::vector<double>(2, 0.0));
  return s;
}

TEST(NodeSupervisorDetector, DeadSocketNeedsBothCollapseAndLinkTraffic) {
  NodeSupervisor sup(NodeDetectorConfig{}, two_sockets());
  const sim::FaultSpec healthy;

  const sim::FaultSpec dead =
      sup.diagnose(dead_socket_sample(1, 0), healthy);
  EXPECT_TRUE(dead.is_socket_offline(1));
  EXPECT_FALSE(dead.is_socket_offline(0));

  // Collapsed utilization alone (no link traffic) is an idle socket, not a
  // dead one.
  NodeSample idle = healthy_sample();
  idle.socket_utilization[1] = 0.01;
  EXPECT_FALSE(sup.diagnose(idle, healthy).is_socket_offline(1));
}

TEST(NodeSupervisorDetector, EvidenceFreeSocketCarriesPriorForward) {
  NodeSupervisor sup(NodeDetectorConfig{}, two_sockets());
  const sim::FaultSpec prior = sim::FaultSpec::parse("sock1:off").value();

  // After migration the dead socket goes fully quiet: no utilization, no
  // link traffic. That is absence of evidence, not recovery — the belief
  // must not flap back to healthy.
  NodeSample quiet = healthy_sample();
  quiet.socket_utilization = {0.6, 0.0};
  EXPECT_TRUE(sup.diagnose(quiet, prior).is_socket_offline(1));

  // Fresh utilization on the socket's own controllers IS recovery evidence.
  NodeSample recovered = healthy_sample();
  EXPECT_FALSE(sup.diagnose(recovered, prior).is_socket_offline(1));
}

TEST(NodeSupervisorDetector, LinkDerateReadFromPerLineCost) {
  NodeSupervisor sup(NodeDetectorConfig{}, two_sockets());
  // Healthy cost is 16 cycles/line; 64 observed means the link runs at 1/4
  // speed.
  NodeSample s = healthy_sample();
  s.link_utilization[0][1] = 0.4;
  s.link_line_cost[0][1] = 64.0;
  const sim::FaultSpec d = sup.diagnose(s, sim::FaultSpec{});
  EXPECT_NEAR(d.link_derate_of(0, 1), 0.25, 0.05);
  // Below the detection threshold nothing is reported.
  s.link_line_cost[0][1] = 18.0;
  EXPECT_DOUBLE_EQ(sup.diagnose(s, sim::FaultSpec{}).link_derate_of(0, 1),
                   1.0);
}

TEST(NodeSupervisorDetector, DebounceThenReplanThenBackoffSuppression) {
  NodeDetectorConfig cfg;
  cfg.stable_window = 2;
  NodeSupervisor sup(cfg, two_sockets(), 7);

  // First sighting: debounced.
  NodeDecision d1 = sup.observe(dead_socket_sample(1, 0));
  EXPECT_EQ(d1.action, Action::kKeep);
  // Second consecutive identical diagnosis: act.
  NodeDecision d2 = sup.observe(dead_socket_sample(1, 0));
  ASSERT_EQ(d2.action, Action::kReplan);
  EXPECT_TRUE(d2.diagnosis.is_socket_offline(1));
  EXPECT_EQ(d2.healthy_sockets, (std::vector<unsigned>{0}));

  sup.commit(2000000);
  EXPECT_EQ(sup.replans(), 1u);
  EXPECT_TRUE(sup.planned_against().is_socket_offline(1));

  // A new fault inside the backoff window is suppressed, not acted on.
  NodeSample worse = dead_socket_sample(1, 0);
  worse.begin = 2000000;
  worse.end = 2000100;
  (void)sup.observe(worse, 1.0);
  NodeSample both = healthy_sample();
  both.begin = 2000100;
  both.end = 2000200;
  both.link_utilization[0][1] = 0.4;
  both.link_line_cost[0][1] = 64.0;
  (void)sup.observe(both, 1.0);
  NodeDecision d3 = sup.observe(both, 1.0);
  EXPECT_EQ(d3.action, Action::kSuppressed);
  EXPECT_GE(sup.suppressed(), 1u);

  // Once the window passes the replan goes through.
  both.begin = 2100000;
  both.end = 2100100;
  EXPECT_EQ(sup.observe(both, 1.0).action, Action::kReplan);
}

// The chip supervisor's abort and quiet-reset contracts (test_supervisor.cpp)
// on the node: both run one ReplanProtocol. Probing is off, since it rides
// the protocol's keep decisions and is tested on its own below.

NodeDetectorConfig no_jitter_no_probe() {
  NodeDetectorConfig cfg;
  cfg.backoff = {.initial = 50000, .multiplier = 2.0, .cap = 1600000,
                 .jitter = 0.0};
  cfg.recovery.enabled = false;
  return cfg;
}

/// Socket 1 dead (`down`) or both sockets busy over [at, at + 10000).
Action feed(NodeSupervisor& sup, bool down, arch::Cycles at) {
  NodeSample s = down ? dead_socket_sample(1, 0) : healthy_sample();
  s.begin = at;
  s.end = at + 10000;
  return sup.observe(s).action;
}

TEST(NodeSupervisorDetector, AbortedReplanBacksOffToo) {
  NodeSupervisor sup(no_jitter_no_probe(), two_sockets(), 7);
  (void)feed(sup, true, 0);
  ASSERT_EQ(feed(sup, true, 10000), Action::kReplan);
  sup.abort(20000);  // break-even gate declined the migration
  EXPECT_EQ(sup.replans(), 0u);
  EXPECT_EQ(feed(sup, true, 30000), Action::kSuppressed);
  EXPECT_EQ(feed(sup, true, 200000), Action::kReplan);
}

TEST(NodeSupervisorDetector, QuietStretchResetsBackoff) {
  NodeDetectorConfig cfg = no_jitter_no_probe();
  cfg.quiet_reset = 3;
  NodeSupervisor sup(cfg, two_sockets(), 7);
  (void)feed(sup, true, 0);
  ASSERT_EQ(feed(sup, true, 10000), Action::kReplan);
  sup.commit(20000);
  (void)feed(sup, false, 80000);
  ASSERT_EQ(feed(sup, false, 90000), Action::kReplan);
  sup.commit(100000);
  EXPECT_EQ(sup.backoff().retries(), 2u);
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(feed(sup, false, 110000 + 10000 * i), Action::kKeep);
  EXPECT_EQ(sup.backoff().retries(), 2u);  // two quiet samples: not yet
  EXPECT_EQ(feed(sup, false, 130000), Action::kKeep);
  EXPECT_EQ(sup.backoff().retries(), 0u);
}

TEST(NodeSupervisor, ConcurrentObserveTripsTheGuard) {
  // The node supervisor shares Supervisor's single-consumer guard: worker
  // threads calling observe() at once get std::logic_error instead of
  // silently racing on the debounce state. As in the chip test, an overlap
  // needs a preemption inside observe(), so rounds repeat under a
  // wall-clock bound until the guard trips.
  NodeSupervisor sup(NodeDetectorConfig{}, two_sockets(), 7);
  const NodeSample sample = healthy_sample();
  std::atomic<int> tripped{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (tripped.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        for (int i = 0; i < 20000; ++i) {
          try {
            (void)sup.observe(sample);
          } catch (const std::logic_error&) {
            tripped.fetch_add(1, std::memory_order_relaxed);
          }
          if (tripped.load(std::memory_order_relaxed) > 0) return;
        }
      });
    for (auto& t : threads) t.join();
  }
  EXPECT_GT(tripped.load(), 0);
}

// ---------------------------------------------------------------------------
// Fail-back: the probe channel, staged re-admission and breaker escalation
// at socket granularity (DESIGN.md §4k).

/// Post-failover silence: the believed-dead socket is fully quiet (no
/// utilization, no link traffic) — absence of evidence, not recovery.
NodeSample quiet_sample(arch::Cycles begin, arch::Cycles end) {
  NodeSample s = healthy_sample();
  s.begin = begin;
  s.end = end;
  s.socket_utilization = {0.6, 0.0};
  return s;
}

/// Drives detection of a dead socket 1 and commits the failover, leaving
/// the supervisor quarantining the socket. Returns the commit time.
arch::Cycles quarantine_socket1(NodeSupervisor& sup) {
  (void)sup.observe(dead_socket_sample(1, 0));
  const NodeDecision d = sup.observe(dead_socket_sample(1, 0));
  EXPECT_EQ(d.action, Action::kReplan);
  sup.commit(2000000);
  EXPECT_TRUE(sup.planned_against().is_socket_offline(1));
  return 2000000;
}

/// Feeds quiet windows of `step` cycles until the supervisor orders a probe
/// (or `limit` windows pass). Returns the number of windows consumed, or 0
/// if no probe was ordered.
unsigned windows_until_probe(NodeSupervisor& sup, arch::Cycles& now,
                             arch::Cycles step, unsigned limit) {
  for (unsigned i = 1; i <= limit; ++i) {
    const NodeDecision d = sup.observe(quiet_sample(now, now + step));
    now += step;
    EXPECT_NE(d.action, Action::kReplan) << "quiet window triggered a replan";
    if (d.action == Action::kProbe) {
      EXPECT_EQ(d.probe_socket, 1u);
      return i;
    }
  }
  return 0;
}

TEST(NodeSupervisorRecovery, ProbeConfirmationStartsRampThenReadmits) {
  NodeDetectorConfig cfg;
  cfg.stable_window = 2;
  NodeSupervisor sup(cfg, two_sockets(), 7);
  arch::Cycles now = quarantine_socket1(sup);

  // The breaker holds, then admits exactly one canary.
  ASSERT_GT(windows_until_probe(sup, now, 100000, 30), 0u);
  EXPECT_EQ(sup.probes(), 1u);

  // The canary found the domain serving again (a recovered domain reads a
  // few percent; a dead one reads exactly 0 after remap).
  NodeSample canary = healthy_sample();
  canary.socket_utilization = {0.0, 0.05};
  ASSERT_TRUE(sup.report_probe(1, canary, now));
  EXPECT_EQ(sup.recoveries(), 1u);
  EXPECT_FALSE(sup.planned_against().is_socket_offline(1));

  // Staged re-admission: the belief readmits the socket at reduced weight
  // and steps it to full over ramp_windows healthy observations.
  const sim::FaultSpec ramped = sup.belief();
  ASSERT_EQ(ramped.socket_derates.size(), 1u);
  EXPECT_EQ(ramped.socket_derates[0].socket, 1u);
  EXPECT_DOUBLE_EQ(ramped.socket_derates[0].factor,
                   cfg.recovery.ramp_initial);
  for (unsigned i = 0; i < cfg.recovery.ramp_windows; ++i) {
    (void)sup.observe(healthy_sample());
    EXPECT_EQ(sup.probes(), 1u);  // no probes while nothing is quarantined
  }
  EXPECT_EQ(sup.readmissions(), 1u);
  EXPECT_FALSE(sup.belief().any());
}

TEST(NodeSupervisorRecovery, FailedProbeReopensWithLongerHold) {
  NodeDetectorConfig cfg;
  cfg.stable_window = 2;
  NodeSupervisor sup(cfg, two_sockets(), 7);
  arch::Cycles now = quarantine_socket1(sup);

  const unsigned first = windows_until_probe(sup, now, 100000, 40);
  ASSERT_GT(first, 0u);
  // Dead canary: every line was remapped, the probed controllers read 0.
  NodeSample dead = healthy_sample();
  dead.socket_utilization = {0.0, 0.0};
  EXPECT_FALSE(sup.report_probe(1, dead, now));
  EXPECT_EQ(sup.probe_failures(), 1u);
  EXPECT_TRUE(sup.planned_against().is_socket_offline(1));

  // Geometric escalation: the second hold is roughly twice the first
  // (jitter is ±10%, window quantization ±1 — a strict > is safe).
  const unsigned second = windows_until_probe(sup, now, 100000, 40);
  ASSERT_GT(second, 0u);
  EXPECT_GT(second, first) << "reopened hold did not escalate";
  EXPECT_EQ(sup.probes(), 2u);
  EXPECT_EQ(sup.probe_gate(1).reopens(), 2u);
}

TEST(NodeSupervisorRecovery, DisabledRecoveryNeverProbes) {
  NodeDetectorConfig cfg;
  cfg.stable_window = 2;
  cfg.recovery.enabled = false;
  NodeSupervisor sup(cfg, two_sockets(), 7);
  arch::Cycles now = quarantine_socket1(sup);
  EXPECT_EQ(windows_until_probe(sup, now, 200000, 50), 0u);
  EXPECT_EQ(sup.probes(), 0u);
  // The pre-prober plateau: belief carries the outage forward for good.
  EXPECT_TRUE(sup.planned_against().is_socket_offline(1));
}

TEST(NodeLoop, ConfigCheckRejectsDegenerateSetups) {
  NodeLoopConfig cfg;
  cfg.node.node.num_sockets = 1;
  EXPECT_FALSE(cfg.check().ok());

  cfg = NodeLoopConfig{};
  cfg.node.node.num_sockets = 2;
  cfg.threads = 40;  // 40 * 2 > 64 strands on one chip
  EXPECT_FALSE(cfg.check().ok());

  cfg = NodeLoopConfig{};
  cfg.node.node.num_sockets = 2;
  cfg.slices = 0;
  EXPECT_FALSE(cfg.check().ok());
}

NodeLoopConfig loop_config(unsigned slices = 6, bool supervise = true) {
  NodeLoopConfig cfg;
  cfg.node.node.num_sockets = 2;
  cfg.threads = 16;
  cfg.slices = slices;
  cfg.supervise = supervise;
  return cfg;
}

constexpr std::size_t kN = 4096;

TEST(NodeLoop, HealthyRunStaysLocalAndNeverMigrates) {
  const NodeLoopResult res = run_supervised_node_triad(kN, loop_config());
  EXPECT_EQ(res.replans, 0u);
  EXPECT_EQ(res.declined, 0u);
  EXPECT_EQ(res.migration_cycles, 0u);
  EXPECT_EQ(res.remote_bytes, 0u);
  EXPECT_EQ(res.final_diagnosis.describe(), "healthy");
  ASSERT_EQ(res.final_jobs.size(), 2u);
  for (unsigned s = 0; s < 2; ++s) {
    EXPECT_EQ(res.final_jobs[s].compute_socket, s);
    EXPECT_EQ(res.final_jobs[s].home_socket, s);
  }
  EXPECT_GT(res.bandwidth, 0.0);
}

TEST(NodeLoop, SocketOutageMigratesOnceAndKillsLinkTraffic) {
  // Probe the healthy run length, then kill socket 1's memory early — the
  // remaining sweeps must leave enough savings to clear the break-even gate.
  const NodeLoopResult probe =
      run_supervised_node_triad(kN, loop_config(12, false));
  const arch::Cycles stamp = probe.total_cycles / 6;
  const std::string schedule = "sock1:off@" + std::to_string(stamp);

  NodeLoopConfig cfg = loop_config(12, true);
  cfg.node.sim.fault_schedule = sim::FaultSchedule::parse(schedule).value();
  const NodeLoopResult sup = run_supervised_node_triad(kN, cfg);

  NodeLoopConfig base = loop_config(12, false);
  base.node.sim.fault_schedule = sim::FaultSchedule::parse(schedule).value();
  const NodeLoopResult unsup = run_supervised_node_triad(kN, base);

  // Exactly one migration — no thrash — and everything rehomed to socket 0.
  EXPECT_EQ(sup.replans, 1u);
  ASSERT_EQ(sup.replan_log.size(), 1u);
  EXPECT_EQ(sup.replan_log[0].healthy_sockets, (std::vector<unsigned>{0}));
  for (const NodeJob& job : sup.final_jobs) {
    EXPECT_EQ(job.compute_socket, 0u);
    EXPECT_EQ(job.home_socket, 0u);
  }
  EXPECT_TRUE(sup.final_diagnosis.is_socket_offline(1));
  EXPECT_GT(sup.migration_cycles, 0u);

  // The unsupervised baseline keeps hammering the link; the migrated run
  // stops paying for remote service and moves less data across the socket
  // boundary overall.
  EXPECT_LT(sup.remote_bytes, unsup.remote_bytes);
  EXPECT_GT(sup.bandwidth, unsup.bandwidth);
}

TEST(NodeLoop, GateDeclinesWhenSavingsCannotCoverTheCopy) {
  // migration_safety = 0 demands the copy be free: any real move is refused,
  // the decision is aborted, and the loop keeps running remote instead of
  // thrashing on a migration it cannot pay for.
  const NodeLoopResult probe =
      run_supervised_node_triad(kN, loop_config(6, false));
  const arch::Cycles stamp = probe.total_cycles / 3;

  NodeLoopConfig cfg = loop_config(6, true);
  cfg.migration_safety = 0.0;
  cfg.node.sim.fault_schedule =
      sim::FaultSchedule::parse("sock1:off@" + std::to_string(stamp)).value();
  const NodeLoopResult res = run_supervised_node_triad(kN, cfg);
  EXPECT_EQ(res.replans, 0u);
  EXPECT_GE(res.declined, 1u);
  EXPECT_EQ(res.migration_cycles, 0u);
  // Untouched jobs still sit where they started.
  for (unsigned s = 0; s < 2; ++s)
    EXPECT_EQ(res.final_jobs[s].compute_socket, s);
}

TEST(NodeLoop, TimelinesCoverTheWholeRunWhenSampled) {
  NodeLoopConfig cfg = loop_config(3);
  cfg.node.sim.mc_sample_cadence = 50000;
  const NodeLoopResult res = run_supervised_node_triad(kN, cfg);
  ASSERT_EQ(res.socket_timelines.size(), 2u);
  for (const obs::McTimeline& tl : res.socket_timelines) {
    ASSERT_FALSE(tl.empty());
    // Rows are stitched onto the global timeline: monotone, last row near
    // the end of the run.
    for (std::size_t i = 1; i < tl.size(); ++i)
      EXPECT_GE(tl[i].begin, tl[i - 1].begin);
    EXPECT_GT(tl.back().end, res.total_cycles / 2);
  }
}

}  // namespace
}  // namespace mcopt::runtime
