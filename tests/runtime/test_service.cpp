#include "runtime/service/service.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace mcopt::runtime::service {
namespace {

using exec::JobKind;
using exec::JobSpec;
using exec::Priority;
using exec::ShedReason;

/// Accounting-mode service config: one worker, roomy lanes, no kernels.
ServiceConfig accounting_config() {
  ServiceConfig cfg;
  cfg.executor.num_workers = 1;
  cfg.executor.run_kernels = false;
  cfg.executor.lane_capacity = {1024, 1024, 1024};
  return cfg;
}

JobSpec triad(std::size_t n, arch::Cycles arrival) {
  JobSpec spec;
  spec.kind = JobKind::kTriad;
  spec.n = n;
  spec.iterations = 1;
  spec.arrival = arrival;
  return spec;
}

TEST(Service, RegisterValidatesTenantConfigs) {
  Service svc(accounting_config());
  EXPECT_THROW(svc.register_tenant({.name = "w0", .weight = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(svc.register_tenant({.name = "q", .quota_bytes_per_s = -1.0}),
               std::invalid_argument);
  EXPECT_THROW(svc.register_tenant({.name = "b", .burst_seconds = 0.0}),
               std::invalid_argument);
  const TenantId id = svc.register_tenant({.name = "ok"});
  EXPECT_EQ(id, 1u);
  EXPECT_THROW((void)svc.submit(0, triad(1024, 0)), std::out_of_range);
  EXPECT_THROW((void)svc.submit(2, triad(1024, 0)), std::out_of_range);
  EXPECT_THROW((void)svc.tenant(2), std::out_of_range);
}

TEST(Service, TrafficThatOverflowsIsRefusedAtTheDoorAndTheExecutor) {
  Service svc(accounting_config());
  const TenantId id = svc.register_tenant({.name = "big"});
  std::vector<JobSpec> specs(2);
  for (JobSpec& spec : specs) spec.kind = JobKind::kLbm;
  specs[0].n = std::size_t{1} << 21;
  specs[1].n = std::size_t{1} << 20;
  specs[1].iterations = 3;
  for (const JobSpec& spec : specs) {
    EXPECT_THROW((void)svc.submit(id, spec), std::invalid_argument);
    EXPECT_THROW((void)svc.executor().submit(spec), std::invalid_argument);
  }
  // Nothing was counted, charged or minted on either side.
  const auto snap = svc.tenant(id);
  EXPECT_EQ(snap.counters.submitted, 0u);
  EXPECT_EQ(snap.counters.offered_bytes, 0u);
  EXPECT_EQ(snap.counters.forwarded, 0u);
  const exec::ExecutorStats stats = svc.executor().stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_TRUE(svc.executor().reports().empty());
  EXPECT_EQ(svc.submit(id, triad(1024, 0)).id, 1u);  // the first id
  svc.shutdown(exec::Executor::Drain::kDrain);
}

TEST(Service, QuotaThrottleIsTypedAndInvisibleToTheExecutor) {
  Service svc(accounting_config());
  // Bucket depth 1000 B can never hold a 24 KiB triad: every submission is
  // over-quota at the door.
  const TenantId capped = svc.register_tenant({.name = "capped",
                                               .quota_bytes_per_s = 1000.0,
                                               .burst_seconds = 1.0,
                                               .breaker_trip_threshold = 100});
  const TenantId open = svc.register_tenant({.name = "open"});

  const auto res = svc.submit(capped, triad(1024, 0));
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(res.rejected, ShedReason::kTenantThrottled);

  // The rejection never reached the executor: no submission, no report, no
  // admission-projection movement for anyone else to see.
  EXPECT_EQ(svc.executor().stats().submitted, 0u);
  EXPECT_TRUE(svc.executor().reports().empty());

  const auto ok = svc.submit(open, triad(1024, 1));
  EXPECT_TRUE(ok.accepted);

  const auto snap = svc.tenant(capped);
  EXPECT_EQ(snap.counters.submitted, 1u);
  EXPECT_EQ(snap.counters.throttled, 1u);
  EXPECT_EQ(snap.counters.forwarded, 0u);
  EXPECT_EQ(snap.counters.door_shed_bytes, snap.counters.offered_bytes);
  svc.shutdown(exec::Executor::Drain::kDrain);
}

TEST(Service, SloClassesMapToLanesAndDeadlines) {
  Service svc(accounting_config());
  const TenantId interactive = svc.register_tenant(
      {.name = "i", .slo = SloClass::kInteractive});
  const TenantId standard =
      svc.register_tenant({.name = "s", .slo = SloClass::kStandard});
  const TenantId batch =
      svc.register_tenant({.name = "b", .slo = SloClass::kBatch});

  ASSERT_TRUE(svc.submit(interactive, triad(1024, 1000)).accepted);
  ASSERT_TRUE(svc.submit(standard, triad(1024, 1001)).accepted);
  ASSERT_TRUE(svc.submit(batch, triad(1024, 1002)).accepted);
  // An explicitly set deadline wins over the SLO default when allowed.
  JobSpec explicit_dl = triad(1024, 1003);
  explicit_dl.deadline = 99'000'000;
  ASSERT_TRUE(svc.submit(batch, explicit_dl).accepted);
  svc.shutdown(exec::Executor::Drain::kDrain);

  const auto reports = svc.executor().reports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].priority, Priority::kHigh);
  EXPECT_EQ(reports[1].priority, Priority::kNormal);
  EXPECT_EQ(reports[2].priority, Priority::kLow);
  // Interactive and standard get stamped SLO deadlines past their arrival;
  // standard's slack multiple is larger, so its deadline is later.
  ASSERT_NE(reports[0].deadline, exec::kNoDeadline);
  ASSERT_NE(reports[1].deadline, exec::kNoDeadline);
  EXPECT_GT(reports[0].deadline, reports[0].arrival);
  EXPECT_GT(reports[1].deadline, reports[0].deadline);
  // Batch runs deadline-free; the explicit deadline passes through intact.
  EXPECT_EQ(reports[2].deadline, exec::kNoDeadline);
  EXPECT_EQ(reports[3].deadline, 99'000'000u);
}

TEST(Service, BreakerOpensHoldsThenClosesThroughAHalfOpenProbe) {
  ServiceConfig cfg = accounting_config();
  Service svc(cfg);
  TenantConfig tc;
  tc.name = "flappy";
  tc.quota_bytes_per_s = 1000.0;  // bucket depth 1000 B
  tc.burst_seconds = 1.0;
  tc.breaker_trip_threshold = 3;
  tc.breaker = {.initial = 1000, .multiplier = 2.0, .cap = 8000,
                .jitter = 0.0};
  const TenantId id = svc.register_tenant(tc);

  // Three consecutive over-quota submissions trip the breaker...
  for (arch::Cycles a = 0; a < 3; ++a) {
    const auto res = svc.submit(id, triad(1024, a));
    EXPECT_FALSE(res.accepted);
    EXPECT_EQ(res.rejected, ShedReason::kTenantThrottled);
  }
  auto snap = svc.tenant(id);
  EXPECT_EQ(snap.breaker, util::CircuitBreaker::State::kOpen);
  EXPECT_EQ(snap.counters.breaker_opens, 1u);
  EXPECT_EQ(snap.counters.throttled, 3u);

  // ...the open hold rejects in O(1), without touching the token bucket...
  const auto held = svc.submit(id, triad(1024, 10));
  EXPECT_FALSE(held.accepted);
  EXPECT_EQ(held.rejected, ShedReason::kTenantThrottled);
  EXPECT_EQ(svc.tenant(id).counters.breaker_rejected, 1u);

  // ...and the first submission past the hold is the half-open probe. A
  // 384-byte job fits the 1000-byte bucket, so the probe succeeds and the
  // breaker closes.
  const auto probe = svc.submit(id, triad(16, 5000));
  EXPECT_TRUE(probe.accepted);
  snap = svc.tenant(id);
  EXPECT_EQ(snap.breaker, util::CircuitBreaker::State::kClosed);
  EXPECT_EQ(snap.counters.forwarded, 1u);
  svc.shutdown(exec::Executor::Drain::kDrain);
}

TEST(Service, FailedProbeReopensWithALongerHold) {
  Service svc(accounting_config());
  TenantConfig tc;
  tc.name = "sick";
  tc.quota_bytes_per_s = 1000.0;
  tc.burst_seconds = 1.0;
  tc.breaker_trip_threshold = 1;
  tc.breaker = {.initial = 1000, .multiplier = 2.0, .cap = 8000,
                .jitter = 0.0};
  const TenantId id = svc.register_tenant(tc);

  EXPECT_FALSE(svc.submit(id, triad(1024, 0)).accepted);  // trips at once
  EXPECT_EQ(svc.tenant(id).breaker, util::CircuitBreaker::State::kOpen);

  // Probe at 1000 is admitted past the gate but still over quota: the
  // breaker reopens with a doubled (2000-cycle) hold.
  EXPECT_FALSE(svc.submit(id, triad(1024, 1000)).accepted);
  EXPECT_EQ(svc.tenant(id).breaker, util::CircuitBreaker::State::kOpen);
  EXPECT_EQ(svc.tenant(id).counters.breaker_opens, 2u);
  // Still holding at +1999...
  EXPECT_FALSE(svc.submit(id, triad(16, 2999)).accepted);
  EXPECT_EQ(svc.tenant(id).counters.breaker_rejected, 1u);
  // ...but the probe at +2000 fits the bucket and closes the breaker.
  EXPECT_TRUE(svc.submit(id, triad(16, 3000)).accepted);
  EXPECT_EQ(svc.tenant(id).breaker, util::CircuitBreaker::State::kClosed);
  svc.shutdown(exec::Executor::Drain::kDrain);
}

TEST(Service, ConservationHoldsAcrossDoorAndExecutor) {
  Service svc(accounting_config());
  const TenantId id = svc.register_tenant({.name = "t"});

  // Hold dequeue while submitting so the cancellations land deterministically
  // before any job runs.
  svc.executor().hold_dequeue();
  unsigned cancelled = 0;
  for (arch::Cycles a = 0; a < 10; ++a) {
    const auto res = svc.submit(id, triad(1024, a));
    ASSERT_TRUE(res.accepted);
    if (a % 3 == 0 && svc.cancel(res.id)) ++cancelled;
  }
  svc.executor().release_dequeue();
  svc.shutdown(exec::Executor::Drain::kDrain);

  ASSERT_EQ(cancelled, 4u);
  const auto summaries = svc.summarize();
  ASSERT_EQ(summaries.size(), 1u);
  const TenantSummary& s = summaries[0];
  EXPECT_EQ(s.counters.submitted, 10u);
  EXPECT_EQ(s.counters.forwarded, 10u);
  EXPECT_EQ(s.completed, 6u);
  EXPECT_EQ(s.counters.offered_bytes,
            s.counters.door_shed_bytes + s.counters.forwarded_bytes);
  EXPECT_EQ(s.counters.forwarded_bytes, s.goodput_bytes + s.exec_shed_bytes);
  EXPECT_GT(s.goodput_bytes, 0u);
  EXPECT_GT(s.exec_shed_bytes, 0u);
}

TEST(Service, WfqWeightsShapeServiceOrderForBackloggedTenants) {
  Service svc(accounting_config());
  const TenantId light = svc.register_tenant({.name = "w1", .weight = 1.0});
  const TenantId heavy = svc.register_tenant({.name = "w4", .weight = 4.0});

  // Publish both tenants' backlogs atomically (hold/release), then drain:
  // WFQ must give the weight-4 tenant ~4 of every 5 service slots, which
  // shows up as an earlier mean virtual start time.
  svc.executor().hold_dequeue();
  for (arch::Cycles a = 0; a < 12; ++a) {
    ASSERT_TRUE(svc.submit(light, triad(1024, 0)).accepted);
    ASSERT_TRUE(svc.submit(heavy, triad(1024, 0)).accepted);
  }
  svc.executor().release_dequeue();
  svc.shutdown(exec::Executor::Drain::kDrain);

  double mean_start[2] = {0.0, 0.0};
  for (const auto& r : svc.executor().reports())
    mean_start[r.tenant - 1] += static_cast<double>(r.start) / 12.0;
  EXPECT_LT(mean_start[heavy - 1], mean_start[light - 1]);
}

TEST(Service, JainIndexMatchesKnownVectors) {
  EXPECT_DOUBLE_EQ(Service::jain_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(Service::jain_index({2.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(Service::jain_index({}), 1.0);
  EXPECT_NEAR(Service::jain_index({4.0, 2.0}), 0.9, 1e-12);
}

}  // namespace
}  // namespace mcopt::runtime::service
