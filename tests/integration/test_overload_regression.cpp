// Tier-1 promotion of one hard overload-chaos seed: CI's
// `chaos_soak --overload` fuzzes random fault schedules under 2x offered
// load; this test pins a known-hard seed so the executor's overload
// invariants cannot silently decay.
//
// Seed 12 draws two OVERLAPPING derate intervals (mc1 ~0.54 then mc0 ~0.53
// while mc1 is still degraded), which makes the supervisor's diagnosis
// shift — the soak commits 2 replans chasing the compound fault. Shifting
// diagnoses are the hostile case for admission control: every replan
// re-prices the queued jobs, and the breakers must not wedge the pool while
// the believed state churns.
//
// The other two cases pin the lockstep submission: a healthy sweep point is
// a function of its parameters at any worker count, and a degraded one at
// one worker.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/overload_common.h"

namespace mcopt {
namespace {

constexpr std::uint64_t kHardSeed = 12;
constexpr unsigned kJobs = 240;
constexpr unsigned kWorkers = 4;
constexpr double kOfferedRatio = 2.0;

TEST(OverloadRegression, HardSeedKeepsDegradedInvariants) {
  const bench::OverloadParams params =
      bench::overload_chaos_params(kHardSeed, kJobs, kWorkers, kOfferedRatio);

  // The schedule draw is deterministic: replaying the seed must reproduce
  // the compound-derate storm, not some other scenario. If the generator
  // changes, re-run the soak and promote a new hard seed here.
  ASSERT_EQ(params.truth.intervals.size(), 2u);
  for (const auto& iv : params.truth.intervals) {
    EXPECT_TRUE(iv.fault.offline_controllers.empty());
    ASSERT_EQ(iv.fault.derates.size(), 1u);
  }
  // Two distinct controllers degrade (draw order is not time order).
  const unsigned mc_a = params.truth.intervals[0].fault.derates[0].controller;
  const unsigned mc_b = params.truth.intervals[1].fault.derates[0].controller;
  EXPECT_NE(mc_a, mc_b);
  // Overlap is what makes the seed hard: one derate lands while the other
  // is still active, so the compound fault state keeps shifting.
  EXPECT_LT(std::max(params.truth.intervals[0].begin,
                     params.truth.intervals[1].begin),
            std::min(params.truth.intervals[0].end,
                     params.truth.intervals[1].end));

  const bench::OverloadResult res = bench::run_overload(params);

  // Degraded-mode invariants: conservation, typed sheds, the per-job
  // shed-lag bound, and goodput capped at the completed jobs' analytic
  // rate. Goodput may sag under the storm; nothing may go missing.
  const auto failures =
      bench::check_overload_invariants(params, res, /*healthy=*/false);
  for (const auto& f : failures) ADD_FAILURE() << f;

  // The storm must actually be noticed and survived: the supervisor
  // replans at least once per fault transition, work keeps completing
  // under 2x overload, and the drain loses nothing (reports == submitted
  // is part of the invariant check above).
  EXPECT_GE(res.stats.replans, 2u);
  EXPECT_GT(res.stats.completed, 0u);
  EXPECT_GT(res.goodput_gbs, 0.0);
}

// Every reservation, expiry and price is the same job for job.
void expect_same_schedule(const bench::OverloadResult& a,
                          const bench::OverloadResult& b) {
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    const runtime::exec::JobReport& x = a.reports[i];
    const runtime::exec::JobReport& y = b.reports[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.start, y.start) << "job " << x.id;
    EXPECT_EQ(x.finish, y.finish) << "job " << x.id;
    EXPECT_EQ(x.shed, y.shed) << "job " << x.id;
    EXPECT_EQ(x.completed, y.completed) << "job " << x.id;
    EXPECT_EQ(x.quote.service_cycles, y.quote.service_cycles)
        << "job " << x.id;
  }
}

TEST(OverloadRegression, OneWorkerAndFourServeTheSameSchedule) {
  bench::OverloadParams params;
  params.seed = 1;
  params.jobs = kJobs;
  params.offered_ratio = kOfferedRatio;
  params.num_workers = 1;
  const bench::OverloadResult one = bench::run_overload(params);
  params.num_workers = kWorkers;
  const bench::OverloadResult four = bench::run_overload(params);

  expect_same_schedule(one, four);
  for (const auto& f :
       bench::check_overload_invariants(params, four, /*healthy=*/true))
    ADD_FAILURE() << f;
}

// Under faults the supervisor sees samples in worker completion order, so
// only a one-worker degraded run is a function of its seed alone.
TEST(OverloadRegression, OneWorkerReplaysTheHardSeedExactly) {
  const bench::OverloadParams params =
      bench::overload_chaos_params(kHardSeed, kJobs, 1, kOfferedRatio);
  const bench::OverloadResult first = bench::run_overload(params);
  const bench::OverloadResult second = bench::run_overload(params);

  expect_same_schedule(first, second);
  EXPECT_EQ(first.stats.replans, second.stats.replans);
}

}  // namespace
}  // namespace mcopt
