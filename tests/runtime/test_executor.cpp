#include "runtime/executor/executor.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/jacobi.h"
#include "util/crc.h"

namespace mcopt::runtime::exec {
namespace {

using namespace std::chrono_literals;

ExecutorConfig base_config(unsigned workers = 1) {
  ExecutorConfig cfg;
  cfg.num_workers = workers;
  return cfg;
}

JobSpec triad_job(std::size_t n = 256, unsigned iterations = 2) {
  JobSpec j;
  j.kind = JobKind::kTriad;
  j.n = n;
  j.iterations = iterations;
  return j;
}

JobSpec jacobi_job(std::size_t n = 32, unsigned iterations = 1) {
  JobSpec j;
  j.kind = JobKind::kJacobi;
  j.n = n;
  j.iterations = iterations;
  return j;
}

/// Conservation invariant: one report per submission, each either completed
/// or carrying exactly one typed shed reason.
void expect_conserved(const Executor& ex) {
  const ExecutorStats stats = ex.stats();
  const auto reports = ex.reports();
  EXPECT_EQ(reports.size(), stats.submitted);
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  for (const JobReport& r : reports) {
    if (r.completed) {
      EXPECT_EQ(r.shed, ShedReason::kNone) << "job " << r.id;
      ++completed;
    } else {
      EXPECT_NE(r.shed, ShedReason::kNone) << "job " << r.id;
      ++shed;
    }
  }
  EXPECT_EQ(completed, stats.completed);
  std::uint64_t shed_total = 0;
  for (const std::uint64_t count : stats.shed) shed_total += count;
  EXPECT_EQ(shed, shed_total);
  EXPECT_EQ(completed + shed, stats.submitted);
}

/// Shed-lag bound: a completed job can miss its deadline by at most its own
/// service quote (it was dequeued with start < deadline); expired jobs are
/// shed without consuming bandwidth.
void expect_shed_lag_bound(const std::vector<JobReport>& reports) {
  for (const JobReport& r : reports) {
    if (r.missed_deadline())
      EXPECT_LE(r.finish - r.deadline, r.quote.service_cycles)
          << "job " << r.id;
    if (r.shed == ShedReason::kDeadlineExpiredInQueue)
      EXPECT_EQ(r.finish, r.start) << "job " << r.id;
  }
}

TEST(Executor, CompletesJobsAndConservesAccounting) {
  Executor ex(base_config(2));
  std::uint64_t expected_bytes = 0;
  for (int i = 0; i < 8; ++i) {
    const auto r = ex.submit(triad_job());
    EXPECT_TRUE(r.accepted);
    expected_bytes += PricingModel::traffic_bytes(triad_job());
  }
  ex.shutdown(Executor::Drain::kDrain);

  const auto reports = ex.reports();
  ASSERT_EQ(reports.size(), 8u);
  arch::Cycles total_service = 0;
  for (const JobReport& r : reports) {
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.finish, r.start);
    EXPECT_EQ(r.finish - r.start, r.quote.service_cycles);
    EXPECT_EQ(r.iterations_done, 2u);
    total_service += r.quote.service_cycles;
  }
  // The bandwidth server serializes: the virtual clock advanced by exactly
  // the sum of the service quotes, regardless of worker count.
  EXPECT_EQ(ex.virtual_now(), total_service);
  EXPECT_EQ(ex.stats().goodput_bytes, expected_bytes);
  expect_conserved(ex);
}

TEST(Executor, RejectsJobsThatWouldMissTheirDeadline) {
  Executor ex(base_config(1));
  JobSpec job = triad_job();
  const auto quote = ex.pricing().price(job, {});
  ASSERT_TRUE(quote);
  job.deadline = quote.value().service_cycles / 2;  // cannot possibly make it
  const auto r = ex.submit(job);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.rejected, ShedReason::kWouldMissDeadline);
  ex.shutdown(Executor::Drain::kDrain);
  const auto reports = ex.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].shed, ShedReason::kWouldMissDeadline);
  EXPECT_FALSE(reports[0].completed);
  expect_conserved(ex);
}

TEST(Executor, FullLaneRejectsWithTypedBackpressure) {
  ExecutorConfig cfg = base_config(1);
  cfg.lane_capacity = {2, 2, 2};
  Executor ex(cfg);

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  JobSpec blocker = triad_job(64, 2);
  blocker.on_generation = [&](unsigned gen) {
    if (gen == 1) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  };
  ASSERT_TRUE(ex.submit(blocker).accepted);
  while (!started.load()) std::this_thread::yield();

  // Worker is pinned inside the blocker: the normal lane (capacity 2) fills.
  EXPECT_TRUE(ex.submit(triad_job()).accepted);
  EXPECT_TRUE(ex.submit(triad_job()).accepted);
  const auto overflow = ex.submit(triad_job());
  EXPECT_FALSE(overflow.accepted);
  EXPECT_EQ(overflow.rejected, ShedReason::kQueueFull);
  // Other lanes are bounded independently.
  JobSpec high = triad_job();
  high.priority = Priority::kHigh;
  EXPECT_TRUE(ex.submit(high).accepted);

  release.store(true);
  ex.shutdown(Executor::Drain::kDrain);
  EXPECT_EQ(ex.stats().shed[static_cast<std::size_t>(ShedReason::kQueueFull)],
            1u);
  expect_conserved(ex);
}

TEST(Executor, ExpiredJobIsShedAtDequeueWithoutConsumingBandwidth) {
  Executor ex(base_config(1));

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  JobSpec blocker = triad_job(64, 2);
  blocker.on_generation = [&](unsigned gen) {
    if (gen == 1) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  };
  const arch::Cycles blocker_service =
      ex.pricing().price(blocker, {}).value().service_cycles;
  ASSERT_TRUE(ex.submit(blocker).accepted);
  while (!started.load()) std::this_thread::yield();

  // Admitted with room to spare...
  JobSpec victim = triad_job(64, 2);
  victim.priority = Priority::kLow;
  const arch::Cycles victim_service =
      ex.pricing().price(victim, {}).value().service_cycles;
  JobSpec big = triad_job(64, 8);
  big.priority = Priority::kHigh;
  const arch::Cycles big_service =
      ex.pricing().price(big, {}).value().service_cycles;
  victim.deadline = blocker_service + victim_service + big_service / 2;
  const auto v = ex.submit(victim);
  EXPECT_TRUE(v.accepted);
  // ...then a high-priority job jumps the low lane and eats the budget.
  ASSERT_TRUE(ex.submit(big).accepted);

  release.store(true);
  ex.shutdown(Executor::Drain::kDrain);

  const auto reports = ex.reports();
  ASSERT_EQ(reports.size(), 3u);
  const JobReport& victim_rep = reports[1];  // sorted by id
  EXPECT_EQ(victim_rep.id, v.id);
  EXPECT_FALSE(victim_rep.completed);
  EXPECT_EQ(victim_rep.shed, ShedReason::kDeadlineExpiredInQueue);
  EXPECT_EQ(victim_rep.finish, victim_rep.start);  // no bandwidth burned
  EXPECT_TRUE(reports[0].completed);
  EXPECT_TRUE(reports[2].completed);
  expect_shed_lag_bound(reports);
  expect_conserved(ex);
}

TEST(Executor, ShutdownShedQueuedReportsEveryQueuedJobTyped) {
  Executor ex(base_config(1));
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  JobSpec blocker = triad_job(64, 2);
  blocker.on_generation = [&](unsigned gen) {
    if (gen == 1) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  };
  ASSERT_TRUE(ex.submit(blocker).accepted);
  while (!started.load()) std::this_thread::yield();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(ex.submit(triad_job()).accepted);

  std::thread releaser([&] {
    std::this_thread::sleep_for(50ms);
    release.store(true);
  });
  ex.shutdown(Executor::Drain::kShedQueued);  // sheds the 3 queued jobs NOW
  releaser.join();

  const auto reports = ex.reports();
  ASSERT_EQ(reports.size(), 4u);
  EXPECT_TRUE(reports[0].completed);  // the blocker ran to completion
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(reports[i].completed);
    EXPECT_EQ(reports[i].shed, ShedReason::kShutdown);
  }
  expect_conserved(ex);
}

TEST(Executor, SubmitAfterShutdownRejectsTyped) {
  Executor ex(base_config(1));
  ex.shutdown(Executor::Drain::kDrain);
  const auto r = ex.submit(triad_job());
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.rejected, ShedReason::kShutdown);
  expect_conserved(ex);
}

TEST(Executor, MidStormOutageDegradesCapacityAndBreakerOutlivesDiagnosis) {
  ExecutorConfig cfg = base_config(1);
  cfg.lane_capacity = {8, 64, 8};
  // Deterministic closed loop: no jitter anywhere, replan debounce fast.
  cfg.detector.backoff = {.initial = 1000, .multiplier = 2.0, .cap = 64000,
                          .jitter = 0.0};
  // Breaker hold far longer than the whole run: after the diagnosis clears,
  // the controller must STILL be excluded from admission pricing.
  cfg.breaker = {.initial = 1'000'000'000, .multiplier = 2.0,
                 .cap = 4'000'000'000, .jitter = 0.0};

  const PricingModel pricing(cfg.pricing);
  const JobSpec probe = jacobi_job();
  const arch::Cycles service =
      pricing.price(probe, {}).value().service_cycles;
  // mc1 dies while jobs ~3..12 are in service, then recovers.
  sim::FaultSchedule::Interval outage;
  outage.fault.offline_controllers = {1};
  outage.begin = 2 * service + 1;
  outage.end = 12 * service;
  cfg.truth.intervals.push_back(outage);

  Executor ex(cfg);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(ex.submit(jacobi_job()).accepted);
  ex.shutdown(Executor::Drain::kDrain);

  const ExecutorStats stats = ex.stats();
  EXPECT_EQ(stats.completed, 40u);          // degraded, not dropped
  EXPECT_GE(stats.replans, 2u);             // into the storm and back out
  EXPECT_GE(stats.breaker_trips, 1u);
  // The supervisor walked the diagnosis back to healthy after the storm...
  EXPECT_FALSE(ex.believed_fault().is_offline(1));
  // ...but the circuit breaker still holds mc1 out of admission pricing.
  const arch::Cycles now = ex.virtual_now();
  const auto broken = ex.broken_controllers(now);
  ASSERT_EQ(broken.size(), 1u);
  EXPECT_EQ(broken[0], 1u);
  EXPECT_TRUE(ex.effective_fault(now).is_offline(1));

  // Queued jobs were re-priced onto the surviving set during the storm.
  const auto reports = ex.reports();
  bool saw_degraded_plan = false;
  for (const JobReport& r : reports)
    if (r.quote.plan_set.size() == 3) saw_degraded_plan = true;
  EXPECT_TRUE(saw_degraded_plan);
  expect_conserved(ex);
}

TEST(Executor, MixedKindsSettleOnOneDerateDiagnosis) {
  // Triad and Jacobi jobs see one derated controller through different
  // streams, so their samples diagnose factors that differ in the last
  // bits. They are one fault state: the executor prices the derate after
  // one replan and walks back after another, instead of never settling (or
  // replanning on every kind switch).
  ExecutorConfig cfg = base_config(1);
  cfg.run_kernels = false;
  cfg.lane_capacity = {8, 512, 8};
  const PricingModel pricing(cfg.pricing);
  const arch::Cycles service =
      pricing.price(jacobi_job(), {}).value().service_cycles;
  sim::FaultSchedule::Interval derate;
  derate.fault.derates = {{0, 0.37}};
  derate.begin = 50 * service;
  derate.end = 250 * service;
  cfg.truth.intervals.push_back(derate);

  Executor ex(cfg);
  for (int i = 0; i < 400; ++i)
    ASSERT_TRUE(ex.submit(i % 2 == 0 ? triad_job() : jacobi_job()).accepted);
  ex.shutdown(Executor::Drain::kDrain);
  EXPECT_EQ(ex.stats().completed, 400u);
  EXPECT_EQ(ex.stats().replans, 2u);
  EXPECT_FALSE(ex.believed_fault().any());
}

// --- cancellation: bit-identity with the last completed generation --------

std::uint32_t grid_crc(const seg::seg_array<double>& g) {
  util::Crc32c crc;
  for (std::size_t i = 0; i < g.num_segments(); ++i)
    crc.update(g.segment(i).begin(), g.segment(i).size() * sizeof(double));
  return crc.value();
}

/// Independent re-implementation of the executor's Jacobi body: the field
/// CRC after `sweeps` completed generations (FIELD_CRC convention of the
/// integrity layer).
std::uint32_t reference_jacobi_crc(std::size_t n, unsigned sweeps) {
  const seg::LayoutSpec spec = kernels::jacobi_plain_spec();
  seg::seg_array<double> g1 = kernels::make_jacobi_grid(n, spec);
  seg::seg_array<double> g2 = kernels::make_jacobi_grid(n, spec);
  kernels::init_jacobi(g1);
  kernels::init_jacobi(g2);
  seg::seg_array<double>* cur = &g1;
  seg::seg_array<double>* nxt = &g2;
  for (unsigned s = 0; s < sweeps; ++s) {
    for (std::size_t i = 1; i + 1 < n; ++i)
      kernels::relax_line(nxt->segment(i).begin(), cur->segment(i - 1).begin(),
                          cur->segment(i + 1).begin(), cur->segment(i).begin(),
                          n);
    std::swap(cur, nxt);
  }
  return grid_crc(*cur);
}

TEST(Cancellation, HookCancelMidSweepLeavesFieldAtLastCompletedGeneration) {
  Executor ex(base_config(1));
  std::atomic<std::uint64_t> id{0};
  std::atomic<bool> id_set{false};
  JobSpec job = jacobi_job(24, 10);
  job.on_generation = [&](unsigned gen) {
    if (gen == 3) {
      while (!id_set.load()) std::this_thread::yield();
      EXPECT_TRUE(ex.cancel(id.load()));
    }
  };
  const auto r = ex.submit(job);
  ASSERT_TRUE(r.accepted);
  id.store(r.id);
  id_set.store(true);
  ex.shutdown(Executor::Drain::kDrain);

  const auto reports = ex.reports();
  ASSERT_EQ(reports.size(), 1u);
  const JobReport& rep = reports[0];
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.shed, ShedReason::kCancelled);
  // Cancellation was observed mid-sweep 4 (row granularity): the field is
  // bit-identical to generation 3, the last one that completed.
  EXPECT_EQ(rep.iterations_done, 3u);
  EXPECT_EQ(rep.field_crc, reference_jacobi_crc(24, 3));
}

TEST(Cancellation, AsyncCancelFieldMatchesReferenceAtIterationsDone) {
  Executor ex(base_config(1));
  const auto r = ex.submit(jacobi_job(96, 200));
  ASSERT_TRUE(r.accepted);
  std::this_thread::sleep_for(3ms);
  (void)ex.cancel(r.id);  // may land anywhere, even after completion
  ex.shutdown(Executor::Drain::kDrain);

  const auto reports = ex.reports();
  ASSERT_EQ(reports.size(), 1u);
  const JobReport& rep = reports[0];
  if (rep.completed) EXPECT_EQ(rep.iterations_done, 200u);
  // On a loaded host the cancel can land before the worker starts the body:
  // the job is shed with no field at all.
  if (rep.shed == ShedReason::kCancelled && rep.field_crc == 0) {
    EXPECT_EQ(rep.iterations_done, 0u);
    return;
  }
  // Wherever else the cancel landed, the field is bit-identical to the last
  // completed generation — never a half-written grid.
  EXPECT_EQ(rep.field_crc, reference_jacobi_crc(96, rep.iterations_done));
}

TEST(Cancellation, CancelWhileQueuedShedsWithoutRunning) {
  Executor ex(base_config(1));
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  JobSpec blocker = triad_job(64, 2);
  blocker.on_generation = [&](unsigned gen) {
    if (gen == 1) {
      started.store(true);
      while (!release.load()) std::this_thread::yield();
    }
  };
  ASSERT_TRUE(ex.submit(blocker).accepted);
  while (!started.load()) std::this_thread::yield();

  const auto victim = ex.submit(jacobi_job());
  ASSERT_TRUE(victim.accepted);
  EXPECT_TRUE(ex.cancel(victim.id));
  release.store(true);
  ex.shutdown(Executor::Drain::kDrain);

  const auto reports = ex.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[1].shed, ShedReason::kCancelled);
  EXPECT_EQ(reports[1].iterations_done, 0u);
  EXPECT_EQ(reports[1].field_crc, 0u);  // body never started
  expect_conserved(ex);
}

TEST(Cancellation, UnknownOrFinishedIdsReturnFalse) {
  Executor ex(base_config(1));
  EXPECT_FALSE(ex.cancel(12345));
  const auto r = ex.submit(triad_job());
  ASSERT_TRUE(r.accepted);
  ex.shutdown(Executor::Drain::kDrain);
  EXPECT_FALSE(ex.cancel(r.id));  // already finalized
}

// --- supervisor ingestion: the single-consumer contract under threads -----

TEST(SupervisorIngest, ConcurrentWorkersFeedThroughTheIngestionQueue) {
  // Four workers complete jobs concurrently; every sample flows through the
  // ingestion queue and is drained by whichever worker holds the control
  // mutex. If any worker called observe() re-entrantly the supervisor would
  // throw std::logic_error (terminating the worker => this test crashes);
  // under -DMCOPT_TSAN=ON this is also the data-race proof for the path.
  ExecutorConfig cfg = base_config(4);
  cfg.lane_capacity = {16, 256, 16};  // room for the whole burst
  Executor ex(cfg);
  for (int i = 0; i < 120; ++i) ASSERT_TRUE(ex.submit(jacobi_job(8, 1)).accepted);
  ex.shutdown(Executor::Drain::kDrain);
  EXPECT_EQ(ex.stats().completed, 120u);
  expect_conserved(ex);
}

TEST(SupervisorIngest, DirectConcurrentObserveTripsTheGuard) {
  // What the contract forbids: worker threads calling observe() directly.
  // The guard must catch overlapping entries (std::logic_error) before any
  // state is touched, instead of silently corrupting the debounce window.
  Supervisor sup(DetectorConfig{}, arch::InterleaveSpec{}, 1);
  Sample sample;
  sample.begin = 0;
  sample.end = 1000;
  sample.mc_utilization = {1.0, 1.0, 1.0, 1.0};

  // The guarded window is a handful of instructions in a release build: on
  // a single core an overlap needs the OS to preempt a thread *inside*
  // observe(), so one fixed-size hammer round is probabilistic. Repeat
  // rounds under a wall-clock bound until the guard trips — each round has
  // a decent trip chance, so the bound is effectively never reached.
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

TEST(SupervisorIngest, SerializedAlternatingCallersNeverTrip) {
  // Properly serialized callers from different threads are fine: the guard
  // flag's acquire/release pair publishes the supervisor state between them.
  Supervisor sup(DetectorConfig{}, arch::InterleaveSpec{}, 1);
  Sample sample;
  sample.begin = 0;
  sample.end = 1000;
  sample.mc_utilization = {1.0, 1.0, 1.0, 1.0};

  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  auto runner = [&](int me) {
    for (int round = 0; round < 50; ++round) {
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return turn % 2 == me; });
      EXPECT_NO_THROW((void)sup.observe(sample));
      ++turn;
      cv.notify_all();
    }
  };
  std::thread a(runner, 0);
  std::thread b(runner, 1);
  a.join();
  b.join();
}

}  // namespace
}  // namespace mcopt::runtime::exec
