// runtime::Supervisor: fault diagnosis, debounce, backoff, and the replan
// idempotence guarantees (a cleared fault round-trips to the healthy plan;
// unchanged fault state never replans twice).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arch/address_map.h"
#include "runtime/supervisor.h"
#include "seg/planner.h"

namespace mcopt::runtime {
namespace {

const arch::InterleaveSpec kSpec{};  // 4 controllers

Sample sample_at(arch::Cycles begin, std::vector<double> util) {
  return Sample{begin, begin + 10000, std::move(util)};
}

DetectorConfig small_backoff() {
  DetectorConfig cfg;
  cfg.backoff = {.initial = 50000, .multiplier = 2.0, .cap = 1600000,
                 .jitter = 0.0};
  return cfg;
}

TEST(DetectorConfig, CheckAccumulatesEveryViolation) {
  DetectorConfig cfg;
  cfg.stable_window = 0;
  cfg.quiet_reset = 0;
  cfg.backoff.jitter = 1.5;
  const auto status = cfg.check();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("stable_window"), std::string::npos);
  EXPECT_NE(status.error().message.find("quiet_reset"), std::string::npos);
  EXPECT_NE(status.error().message.find("backoff.jitter"), std::string::npos);
  EXPECT_TRUE(DetectorConfig{}.check().ok());
}

TEST(SupervisorDiagnose, FlagsDeadController) {
  Supervisor sup(small_backoff(), kSpec);
  const auto diag = sup.diagnose({0.6, 0.01, 0.55, 0.58});
  EXPECT_TRUE(diag.is_offline(1));
  EXPECT_EQ(diag.offline_controllers.size(), 1u);
  EXPECT_TRUE(diag.derates.empty());
}

TEST(SupervisorDiagnose, FlagsSaturatedControllerAsDerated) {
  Supervisor sup(small_backoff(), kSpec);
  const auto diag = sup.diagnose({0.95, 0.4, 0.42, 0.38});
  EXPECT_TRUE(diag.offline_controllers.empty());
  ASSERT_EQ(diag.derates.size(), 1u);
  EXPECT_EQ(diag.derates[0].controller, 0u);
  EXPECT_LT(diag.derates[0].factor, 1.0);
}

TEST(SupervisorDiagnose, BalancedOrIdleIsHealthy) {
  Supervisor sup(small_backoff(), kSpec);
  EXPECT_FALSE(sup.diagnose({0.5, 0.52, 0.48, 0.51}).any());
  EXPECT_FALSE(sup.diagnose({0.001, 0.0, 0.001, 0.0}).any());  // idle
}

TEST(Supervisor, SingleAnomalousSampleIsDebounced) {
  Supervisor sup(small_backoff(), kSpec);
  const auto dec = sup.observe(sample_at(0, {0.6, 0.0, 0.55, 0.58}));
  EXPECT_EQ(dec.action, Action::kKeep);
  EXPECT_NE(dec.reason.find("unstable"), std::string::npos);
}

TEST(Supervisor, StableFaultChangeTriggersReplanOverSurvivors) {
  Supervisor sup(small_backoff(), kSpec);
  (void)sup.observe(sample_at(0, {0.6, 0.0, 0.55, 0.58}));
  const auto dec = sup.observe(sample_at(20000, {0.6, 0.0, 0.55, 0.58}));
  ASSERT_EQ(dec.action, Action::kReplan);
  EXPECT_TRUE(dec.diagnosis.is_offline(1));
  EXPECT_EQ(dec.plan_set, (std::vector<unsigned>{0, 2, 3}));
}

TEST(Supervisor, CommittedReplanIsIdempotentUntilStateChanges) {
  Supervisor sup(small_backoff(), kSpec);
  const Sample degraded = sample_at(0, {0.6, 0.0, 0.55, 0.58});
  (void)sup.observe(degraded);
  const auto dec = sup.observe(sample_at(20000, degraded.mc_utilization));
  ASSERT_EQ(dec.action, Action::kReplan);
  sup.commit(30000);
  EXPECT_EQ(sup.replans(), 1u);

  // Back-to-back identical fault state: strictly a no-op, forever.
  for (int i = 0; i < 6; ++i) {
    const auto again = sup.observe(
        sample_at(40000 + 10000 * i, degraded.mc_utilization));
    EXPECT_EQ(again.action, Action::kKeep) << "iteration " << i;
  }
  EXPECT_EQ(sup.replans(), 1u);
  EXPECT_EQ(sup.suppressed(), 0u);
}

TEST(Supervisor, ClearedFaultRoundTripsToHealthyPlan) {
  Supervisor sup(small_backoff(), kSpec);
  const std::vector<double> degraded = {0.6, 0.0, 0.55, 0.58};
  const std::vector<double> healthy = {0.5, 0.52, 0.48, 0.51};

  (void)sup.observe(sample_at(0, degraded));
  ASSERT_EQ(sup.observe(sample_at(20000, degraded)).action, Action::kReplan);
  sup.commit(30000);

  // Fault clears; wait out the backoff window, then the supervisor must
  // propose a plan over the full controller set again.
  (void)sup.observe(sample_at(200000, healthy));
  const auto dec = sup.observe(sample_at(220000, healthy));
  ASSERT_EQ(dec.action, Action::kReplan);
  EXPECT_FALSE(dec.diagnosis.any());
  EXPECT_EQ(dec.plan_set, (std::vector<unsigned>{0, 1, 2, 3}));

  // The proposed plan equals the healthy-chip plan exactly.
  const arch::AddressMap map(kSpec);
  const auto round_trip = seg::plan_stream_offsets(4, map, dec.plan_set);
  const auto healthy_plan = seg::plan_stream_offsets(4, map);
  EXPECT_EQ(round_trip.offsets, healthy_plan.offsets);
  EXPECT_EQ(round_trip.base_align, healthy_plan.base_align);
}

TEST(Supervisor, BackoffSuppressesFlappingController) {
  Supervisor sup(small_backoff(), kSpec);
  const std::vector<double> down = {0.6, 0.0, 0.55, 0.58};
  const std::vector<double> up = {0.5, 0.52, 0.48, 0.51};

  (void)sup.observe(sample_at(0, down));
  ASSERT_EQ(sup.observe(sample_at(10000, down)).action, Action::kReplan);
  sup.commit(20000);  // next replan allowed at 20000 + 50000

  // Controller flaps back up immediately: proposal lands inside the
  // backoff window and is suppressed, not executed.
  (void)sup.observe(sample_at(30000, up));
  const auto flap = sup.observe(sample_at(40000, up));
  EXPECT_EQ(flap.action, Action::kSuppressed);
  EXPECT_EQ(sup.suppressed(), 1u);
  EXPECT_EQ(sup.replans(), 1u);

  // Once the window passes the replan goes through.
  const auto late = sup.observe(sample_at(80000, up));
  EXPECT_EQ(late.action, Action::kReplan);
}

TEST(Supervisor, AbortedReplanBacksOffToo) {
  Supervisor sup(small_backoff(), kSpec);
  const std::vector<double> down = {0.6, 0.0, 0.55, 0.58};
  (void)sup.observe(sample_at(0, down));
  ASSERT_EQ(sup.observe(sample_at(10000, down)).action, Action::kReplan);
  sup.abort(20000);  // break-even gate declined the migration
  EXPECT_EQ(sup.replans(), 0u);

  const auto again = sup.observe(sample_at(30000, down));
  EXPECT_EQ(again.action, Action::kSuppressed);
  const auto late = sup.observe(sample_at(200000, down));
  EXPECT_EQ(late.action, Action::kReplan);
}

TEST(Supervisor, LayoutDeficitTriggersReplanWithoutFaultChange) {
  Supervisor sup(small_backoff(), kSpec);
  const std::vector<double> healthy = {0.2, 0.21, 0.2, 0.19};
  (void)sup.observe(sample_at(0, healthy), 2.0);
  const auto dec = sup.observe(sample_at(10000, healthy), 2.0);
  ASSERT_EQ(dec.action, Action::kReplan);
  EXPECT_NE(dec.reason.find("layout gain"), std::string::npos);
  EXPECT_FALSE(dec.diagnosis.any());

  // Gains below the threshold never trigger.
  Supervisor calm(small_backoff(), kSpec);
  (void)calm.observe(sample_at(0, healthy), 1.05);
  EXPECT_EQ(calm.observe(sample_at(10000, healthy), 1.05).action,
            Action::kKeep);
}

TEST(Supervisor, QuietStretchResetsBackoff) {
  DetectorConfig cfg = small_backoff();
  cfg.quiet_reset = 3;
  Supervisor sup(cfg, kSpec);
  const std::vector<double> down = {0.6, 0.0, 0.55, 0.58};
  const std::vector<double> healthy = {0.5, 0.52, 0.48, 0.51};

  (void)sup.observe(sample_at(0, down));
  (void)sup.observe(sample_at(10000, down));
  sup.commit(20000);
  EXPECT_EQ(sup.backoff().retries(), 1u);

  // Replan back to healthy, then a quiet stretch: backoff resets.
  (void)sup.observe(sample_at(80000, healthy));
  (void)sup.observe(sample_at(90000, healthy));
  sup.commit(100000);
  for (int i = 0; i < 4; ++i)
    (void)sup.observe(sample_at(110000 + 10000 * i, healthy));
  EXPECT_EQ(sup.backoff().retries(), 0u);
}

TEST(Supervisor, OneUlpApartDiagnosesAreOneFaultState) {
  // Successive samples of one derated controller diagnose factors a few ULP
  // apart. Fed alternately they are one fault state: one replan after the
  // debounce, then quiet — not a new fault on every sample.
  Supervisor sup(small_backoff(), kSpec);
  const std::vector<double> a = {0.95, 0.4, 0.42, 0.38};
  std::vector<double> b = a;
  b[0] = std::nextafter(a[0], 1.0);
  ASSERT_NE(sup.diagnose(a).derates.at(0).factor,
            sup.diagnose(b).derates.at(0).factor);

  EXPECT_EQ(sup.observe(sample_at(0, a)).action, Action::kKeep);
  const Decision dec = sup.observe(sample_at(10000, b));
  ASSERT_EQ(dec.action, Action::kReplan);
  // The proposal is the first diagnosis of the stable run.
  EXPECT_EQ(dec.diagnosis.derates.at(0).factor,
            sup.diagnose(a).derates.at(0).factor);
  sup.commit(20000);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(sup.observe(sample_at(30000 + 10000 * i, i % 2 ? a : b)).action,
              Action::kKeep)
        << "sample " << i;
  EXPECT_EQ(sup.replans(), 1u);
  EXPECT_EQ(sup.suppressed(), 0u);
}

TEST(Supervisor, RejectsMismatchedUtilizationVector) {
  Supervisor sup(small_backoff(), kSpec);
  EXPECT_THROW((void)sup.diagnose({0.5, 0.5}), std::invalid_argument);
}

TEST(Supervisor, CorruptedReadsOrderAScrub) {
  Supervisor sup(small_backoff(), kSpec);
  Sample s = sample_at(0, {0.5, 0.5, 0.5, 0.5});
  s.corrupted_reads = 3;
  const Decision dec = sup.observe(s);
  EXPECT_EQ(dec.action, Action::kScrub);
  EXPECT_NE(dec.reason.find("3 corrupted reads"), std::string::npos);
  EXPECT_EQ(sup.scrubs(), 1u);
  EXPECT_EQ(sup.replans(), 0u);
}

TEST(Supervisor, ScrubBypassesDebounceBackoffAndIdleGate) {
  DetectorConfig cfg = small_backoff();
  cfg.stable_window = 3;  // replans need 3 stable samples; scrubs need none
  Supervisor sup(cfg, kSpec);

  // Even an idle sample (no utilization signal) must surface corruption.
  Sample idle = sample_at(0, {0.0, 0.0, 0.0, 0.0});
  idle.corrupted_reads = 1;
  EXPECT_EQ(sup.observe(idle).action, Action::kScrub);

  // Arm the backoff via a committed replan; a scrub still fires inside it.
  const std::vector<double> down{0.6, 0.01, 0.55, 0.58};
  (void)sup.observe(sample_at(10000, down));
  (void)sup.observe(sample_at(20000, down));
  const Decision replan = sup.observe(sample_at(30000, down));
  ASSERT_EQ(replan.action, Action::kReplan);
  sup.commit(40000);

  Sample inside_backoff = sample_at(41000, down);
  inside_backoff.corrupted_reads = 7;
  EXPECT_EQ(sup.observe(inside_backoff).action, Action::kScrub);
  EXPECT_EQ(sup.scrubs(), 2u);
}

TEST(Supervisor, ScrubDoesNotDisturbDiagnosisState) {
  Supervisor sup(small_backoff(), kSpec);  // stable_window = 2
  const std::vector<double> down{0.6, 0.01, 0.55, 0.58};
  (void)sup.observe(sample_at(0, down));  // 1/2 toward stability

  Sample corrupt = sample_at(10000, down);
  corrupt.corrupted_reads = 1;
  EXPECT_EQ(sup.observe(corrupt).action, Action::kScrub);

  // The interleaved scrub neither consumed nor reset the debounce window:
  // the next clean matching sample completes it.
  const Decision dec = sup.observe(sample_at(20000, down));
  EXPECT_EQ(dec.action, Action::kReplan);
  EXPECT_TRUE(dec.diagnosis.is_offline(1));
}

}  // namespace
}  // namespace mcopt::runtime
