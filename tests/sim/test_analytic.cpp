#include "sim/analytic.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace mcopt::sim {
namespace {

const arch::AddressMap kMap;
const arch::Calibration kCal;

TEST(ExpandRfo, ReadsPassThrough) {
  const std::vector<AnalyticStream> in = {{0x100, false}};
  const auto out = expand_rfo(in);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].base, 0x100u);
  EXPECT_FALSE(out[0].write);
}

TEST(ExpandRfo, WritesBecomeReadPlusWrite) {
  const std::vector<AnalyticStream> in = {{0x200, true}};
  const auto out = expand_rfo(in);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out[0].write);  // RFO read
  EXPECT_TRUE(out[1].write);   // write-back
  EXPECT_EQ(out[0].base, out[1].base);
}

TEST(Analytic, BalancedBeatsAliased) {
  const std::vector<AnalyticStream> aliased = {
      {0, false}, {512, false}, {1024, false}, {1536, true}};
  const std::vector<AnalyticStream> balanced = {
      {0, false}, {128, false}, {256, false}, {384, true}};
  const auto a = estimate_bandwidth(expand_rfo(aliased), 64, kCal, kMap, 1.2);
  const auto b = estimate_bandwidth(expand_rfo(balanced), 64, kCal, kMap, 1.2);
  EXPECT_GT(b.bandwidth, 1.5 * a.bandwidth);
  EXPECT_DOUBLE_EQ(a.balance, 0.25);
  // Five physical streams (3 reads + RFO + WB) over four controllers: one
  // controller does double duty, so perfect balance is unattainable.
  EXPECT_GT(b.balance, 0.4);
}

TEST(Analytic, PureReadsAliasedIsQuarter) {
  const std::vector<AnalyticStream> aliased = {
      {0, false}, {512, false}, {1024, false}, {1536, false}};
  const auto est = estimate_bandwidth(aliased, 64, kCal, kMap, 1.2);
  EXPECT_DOUBLE_EQ(est.balance, 0.25);
  const std::vector<AnalyticStream> spread = {
      {0, false}, {128, false}, {256, false}, {384, false}};
  const auto est2 = estimate_bandwidth(spread, 64, kCal, kMap, 1.2);
  EXPECT_NEAR(est.service_bandwidth * 4.0, est2.service_bandwidth, 1e-3);
}

TEST(Analytic, LatencyBoundScalesWithThreads) {
  const std::vector<AnalyticStream> streams = {{0, false}, {128, false}};
  const auto few = estimate_bandwidth(streams, 4, kCal, kMap, 1.2);
  const auto many = estimate_bandwidth(streams, 64, kCal, kMap, 1.2);
  EXPECT_NEAR(many.latency_bandwidth / few.latency_bandwidth, 16.0, 1e-9);
  // At 4 threads the latency bound binds.
  EXPECT_DOUBLE_EQ(few.bandwidth,
                   std::min(few.service_bandwidth, few.latency_bandwidth));
}

TEST(Analytic, WriteHeavyMixIsSlowerThanReadOnly) {
  const std::vector<AnalyticStream> reads = {{0, false}, {128, false}};
  const std::vector<AnalyticStream> writes = {{0, true}, {128, true}};
  const auto r = estimate_bandwidth(expand_rfo(reads), 64, kCal, kMap, 1.2);
  const auto w = estimate_bandwidth(expand_rfo(writes), 64, kCal, kMap, 1.2);
  EXPECT_LT(w.service_bandwidth, r.service_bandwidth);
}

TEST(Analytic, RejectsDegenerateInput) {
  const std::vector<AnalyticStream> streams = {{0, false}};
  EXPECT_THROW((void)estimate_bandwidth({}, 4, kCal, kMap, 1.2), std::invalid_argument);
  EXPECT_THROW((void)estimate_bandwidth(streams, 0, kCal, kMap, 1.2),
               std::invalid_argument);
}

TEST(Analytic, OfflineControllerReroutesToSurvivor) {
  // Perfectly spread reads, then mc0 dies: its stream remaps onto a
  // survivor, which now serves two lines per step — service halves.
  const std::vector<AnalyticStream> spread = {
      {0, false}, {128, false}, {256, false}, {384, false}};
  FaultSpec faults;
  faults.offline_controllers = {0};
  const auto healthy = estimate_bandwidth(spread, 64, kCal, kMap, 1.2);
  const auto degraded = estimate_bandwidth(spread, 64, kCal, kMap, 1.2, faults);
  EXPECT_NEAR(degraded.service_bandwidth, healthy.service_bandwidth * 0.5, 1e-3);
}

TEST(Analytic, DeratedControllerScalesServiceCost) {
  // A half-rate controller serving one of four spread streams becomes the
  // per-step bottleneck at exactly twice the cost.
  const std::vector<AnalyticStream> spread = {
      {0, false}, {128, false}, {256, false}, {384, false}};
  FaultSpec faults;
  faults.derates.push_back({1, 0.5});
  const auto healthy = estimate_bandwidth(spread, 64, kCal, kMap, 1.2);
  const auto degraded = estimate_bandwidth(spread, 64, kCal, kMap, 1.2, faults);
  EXPECT_NEAR(degraded.service_bandwidth, healthy.service_bandwidth * 0.5, 1e-3);
}

TEST(Analytic, AllControllersOfflineRejected) {
  const std::vector<AnalyticStream> streams = {{0, false}};
  FaultSpec faults;
  faults.offline_controllers = {0, 1, 2, 3};
  EXPECT_THROW((void)estimate_bandwidth(streams, 4, kCal, kMap, 1.2, faults),
               std::invalid_argument);
  // The node runs the same per-socket closed form, and its check.
  const arch::NodeTopology node;
  const std::vector<std::vector<AnalyticStream>> ss = {streams, {}};
  const std::vector<unsigned> threads = {4, 0};
  EXPECT_THROW((void)estimate_node_bandwidth(ss, threads, kCal, kMap, node,
                                             1.2, faults),
               std::invalid_argument);
}

TEST(Analytic, UtilizationBalancedPutsEveryControllerOnTheCriticalPath) {
  // One read per controller per step: every controller IS the critical path,
  // so all four busy fractions read 1.
  const std::vector<AnalyticStream> spread = {
      {0, false}, {128, false}, {256, false}, {384, false}};
  const auto est = estimate_bandwidth(spread, 64, kCal, kMap, 1.2);
  ASSERT_EQ(est.mc_utilization.size(), 4u);
  for (const double u : est.mc_utilization) EXPECT_NEAR(u, 1.0, 1e-9);
}

TEST(Analytic, UtilizationCannotSeeAliasing) {
  // All four bases congruent mod the period: the streams hit exactly one
  // controller per step, but WHICH controller rotates with the step index,
  // so over a period each one is busy for 1/4 of the (4x-stretched)
  // makespan. The utilization vector is flat — aliasing is invisible to it.
  // This is the supervisor's documented "aliasing blind spot", the reason
  // its layout_gain channel exists; the blind spot is asserted here so a
  // future change to the utilization convention re-opens the discussion.
  const std::vector<AnalyticStream> aliased = {
      {0, false}, {512, false}, {1024, false}, {1536, false}};
  const auto est = estimate_bandwidth(aliased, 64, kCal, kMap, 1.2);
  ASSERT_EQ(est.mc_utilization.size(), 4u);
  for (const double u : est.mc_utilization) EXPECT_NEAR(u, 0.25, 1e-9);
}

TEST(Analytic, UtilizationOfflineControllerReadsZero) {
  const std::vector<AnalyticStream> spread = {
      {0, false}, {128, false}, {256, false}, {384, false}};
  FaultSpec faults;
  faults.offline_controllers = {2};
  const auto est = estimate_bandwidth(spread, 64, kCal, kMap, 1.2, faults);
  ASSERT_EQ(est.mc_utilization.size(), 4u);
  EXPECT_EQ(est.mc_utilization[2], 0.0);
  // Its remap survivor serves double traffic, so it defines the makespan.
  EXPECT_NEAR(*std::max_element(est.mc_utilization.begin(),
                                est.mc_utilization.end()),
              1.0, 1e-9);
}

TEST(Analytic, UtilizationDeratedControllerSaturatesAboveItsPeers) {
  const std::vector<AnalyticStream> spread = {
      {0, false}, {128, false}, {256, false}, {384, false}};
  FaultSpec faults;
  faults.derates.push_back({1, 0.5});
  const auto est = estimate_bandwidth(spread, 64, kCal, kMap, 1.2, faults);
  ASSERT_EQ(est.mc_utilization.size(), 4u);
  EXPECT_NEAR(est.mc_utilization[1], 1.0, 1e-9);  // the doubled-cost bottleneck
  for (const unsigned c : {0u, 2u, 3u})
    EXPECT_NEAR(est.mc_utilization[c], 0.5, 1e-9);
}

TEST(Analytic, ScheduledWholeUtilizationIsEpochWeighted) {
  const std::vector<AnalyticStream> spread = {
      {0, false}, {128, false}, {256, false}, {384, false}};
  FaultSchedule sched;
  FaultSchedule::Interval iv;
  iv.fault.offline_controllers = {1};
  iv.begin = 0;
  iv.end = 500000;
  sched.intervals.push_back(iv);
  const auto est = estimate_bandwidth_scheduled(spread, 64, kCal, kMap, 1.2,
                                                {}, sched, 1000000);
  ASSERT_EQ(est.whole.mc_utilization.size(), 4u);
  // mc1: dead (0) for half the run, fully busy (1) for the other half.
  EXPECT_NEAR(est.whole.mc_utilization[1], 0.5, 1e-9);
}

TEST(Analytic, ServiceBandwidthSaneMagnitude) {
  // Fully balanced pure-read service: 4 controllers x 64 B / 12 cycles at
  // 1.2 GHz = 25.6 GB/s.
  const std::vector<AnalyticStream> spread = {
      {0, false}, {128, false}, {256, false}, {384, false}};
  const auto est = estimate_bandwidth(spread, 64, kCal, kMap, 1.2);
  EXPECT_NEAR(est.service_bandwidth, 25.6e9, 0.5e9);
}

}  // namespace
}  // namespace mcopt::sim
