#include "runtime/executor/pricing.h"

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/triad.h"

namespace mcopt::runtime::exec {
namespace {

JobSpec triad_job(std::size_t n = 4096, unsigned iterations = 1) {
  JobSpec j;
  j.kind = JobKind::kTriad;
  j.n = n;
  j.iterations = iterations;
  return j;
}

TEST(Pricing, TrafficBytesFollowTheDocumentedConventions) {
  EXPECT_EQ(PricingModel::traffic_bytes(triad_job(1000, 1)),
            kernels::triad_actual_bytes(1000));
  EXPECT_EQ(PricingModel::traffic_bytes(triad_job(1000, 5)),
            5 * kernels::triad_actual_bytes(1000));

  JobSpec jacobi;
  jacobi.kind = JobKind::kJacobi;
  jacobi.n = 64;
  jacobi.iterations = 3;
  EXPECT_EQ(PricingModel::traffic_bytes(jacobi), 24u * 64 * 64 * 3);

  JobSpec lbm;
  lbm.kind = JobKind::kLbm;
  lbm.n = 16;
  lbm.iterations = 2;
  EXPECT_EQ(PricingModel::traffic_bytes(lbm), 456u * 16 * 16 * 16 * 2);
}

TEST(Pricing, TrafficThatDoesNotFitIn64BitsIsRefused) {
  // 456 B per cell-step: n = 2^21 is 456 * 2^63 bytes, which used to wrap
  // to 0 and price as one free cycle.
  const PricingModel model;
  JobSpec lbm;
  lbm.kind = JobKind::kLbm;
  lbm.n = std::size_t{1} << 21;
  EXPECT_THROW((void)PricingModel::traffic_bytes(lbm), std::invalid_argument);
  EXPECT_THROW((void)model.price(lbm, {}), std::invalid_argument);
  lbm.n = std::size_t{1} << 20;
  lbm.iterations = 3;
  EXPECT_THROW((void)PricingModel::traffic_bytes(lbm), std::invalid_argument);
  EXPECT_THROW((void)model.price(lbm, {}), std::invalid_argument);

  // The largest power of two that fits still prices exactly.
  lbm.n = std::size_t{1} << 18;
  lbm.iterations = 1;
  EXPECT_EQ(PricingModel::traffic_bytes(lbm), std::uint64_t{456} << 54);
  const auto quote = model.price(lbm, {});
  ASSERT_TRUE(quote);
  EXPECT_EQ(quote.value().bytes, std::uint64_t{456} << 54);
}

TEST(Pricing, HealthyQuoteConvertsTrafficAtTheAnalyticBandwidth) {
  const PricingModel model;
  const JobSpec job = triad_job();
  const auto quote = model.price(job, {});
  ASSERT_TRUE(quote);
  EXPECT_GT(quote.value().bandwidth, 0.0);
  EXPECT_EQ(quote.value().bytes, PricingModel::traffic_bytes(job));
  const auto expected = static_cast<arch::Cycles>(
      std::ceil(static_cast<double>(quote.value().bytes) /
                quote.value().bandwidth * model.clock_hz()));
  EXPECT_EQ(quote.value().service_cycles, expected);
  EXPECT_EQ(quote.value().plan_set, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(Pricing, ServiceCyclesScaleLinearlyWithIterations) {
  const PricingModel model;
  const auto one = model.price(triad_job(4096, 1), {});
  const auto ten = model.price(triad_job(4096, 10), {});
  ASSERT_TRUE(one);
  ASSERT_TRUE(ten);
  // Same layout, same bandwidth, 10x the traffic (ceil rounds by <1 cycle).
  EXPECT_DOUBLE_EQ(ten.value().bandwidth, one.value().bandwidth);
  EXPECT_NEAR(static_cast<double>(ten.value().service_cycles),
              10.0 * static_cast<double>(one.value().service_cycles),
              10.0);
}

TEST(Pricing, OfflineControllerRaisesTheQuote) {
  const PricingModel model;
  sim::FaultSpec faults;
  faults.offline_controllers = {0};
  const auto healthy = model.price(triad_job(), {});
  const auto degraded = model.price(triad_job(), faults);
  ASSERT_TRUE(healthy);
  ASSERT_TRUE(degraded);
  EXPECT_LT(degraded.value().bandwidth, healthy.value().bandwidth);
  EXPECT_GT(degraded.value().service_cycles, healthy.value().service_cycles);
  EXPECT_EQ(degraded.value().plan_set, (std::vector<unsigned>{1, 2, 3}));
}

TEST(Pricing, DeratedControllerRaisesTheQuote) {
  const PricingModel model;
  sim::FaultSpec faults;
  faults.derates.push_back({2, 0.5});
  const auto healthy = model.price(triad_job(), {});
  const auto degraded = model.price(triad_job(), faults);
  ASSERT_TRUE(healthy);
  ASSERT_TRUE(degraded);
  EXPECT_GT(degraded.value().service_cycles, healthy.value().service_cycles);
  // Derated controllers still serve traffic, so they stay in the plan set.
  EXPECT_EQ(degraded.value().plan_set, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(Pricing, NoSurvivingControllerFailsRecoverably) {
  const PricingModel model;
  sim::FaultSpec faults;
  faults.offline_controllers = {0, 1, 2, 3};
  const auto quote = model.price(triad_job(), faults);
  ASSERT_FALSE(quote);  // Expected failure, not a throw: executor sheds typed
  EXPECT_NE(quote.error().message.find("no surviving"), std::string::npos);
  const auto est = model.estimate(JobKind::kTriad, faults);
  EXPECT_FALSE(est);
}

TEST(Pricing, RooflineIsTheHealthyPlannedBandwidth) {
  const PricingModel model;
  for (const JobKind kind :
       {JobKind::kTriad, JobKind::kJacobi, JobKind::kLbm}) {
    const double roof = model.roofline_bandwidth(kind);
    EXPECT_GT(roof, 1e9) << to_string(kind);  // >1 GB/s: sane magnitude
    JobSpec probe;
    probe.kind = kind;
    probe.n = 4096;
    const auto healthy = model.price(probe, {});
    ASSERT_TRUE(healthy);
    EXPECT_DOUBLE_EQ(roof, healthy.value().bandwidth) << to_string(kind);
    sim::FaultSpec faults;
    faults.offline_controllers = {1};
    const auto degraded = model.price(probe, faults);
    ASSERT_TRUE(degraded);
    // Never above the roofline; 2-stream kernels (jacobi/lbm) can replan
    // around a single dead controller without losing planned bandwidth
    // (streams <= survivors), so equality is allowed there.
    EXPECT_LE(degraded.value().bandwidth, roof) << to_string(kind);
    if (kind == JobKind::kTriad)
      EXPECT_LT(degraded.value().bandwidth, roof);
  }
}

TEST(Pricing, EstimateExposesTheUtilizationStandIn) {
  // The executor's workers feed the supervisor utilization vectors computed
  // under the ground-truth fault state; an offline controller must read 0.
  const PricingModel model;
  sim::FaultSpec faults;
  faults.offline_controllers = {3};
  const auto est = model.estimate(JobKind::kJacobi, faults);
  ASSERT_TRUE(est);
  ASSERT_EQ(est.value().mc_utilization.size(), 4u);
  EXPECT_EQ(est.value().mc_utilization[3], 0.0);
  const auto healthy = model.estimate(JobKind::kJacobi, {});
  ASSERT_TRUE(healthy);
  for (const double u : healthy.value().mc_utilization) EXPECT_GT(u, 0.1);
}

constexpr std::size_t kLargeN = std::size_t{1} << 20;

/// Every (kind, n, iterations) shape the table tests price. An LBM box of
/// kLargeN cells a side moves 456 * 2^60 bytes per step, which does not fit
/// in 64 bits, so those two shapes are left out: both paths refuse them.
std::vector<JobSpec> table_shapes() {
  std::vector<JobSpec> shapes;
  for (const JobKind kind : {JobKind::kTriad, JobKind::kJacobi, JobKind::kLbm})
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{1024}, std::size_t{4096}, kLargeN})
      for (const unsigned iterations : {1u, 3u}) {
        if (kind == JobKind::kLbm && n == kLargeN) continue;
        JobSpec j;
        j.kind = kind;
        j.n = n;
        j.iterations = iterations;
        shapes.push_back(j);
      }
  return shapes;
}

bool same_quote(const Quote& a, const Quote& b) {
  return a.bandwidth == b.bandwidth && a.bytes == b.bytes &&
         a.service_cycles == b.service_cycles && a.plan_set == b.plan_set;
}

void expect_same_quote(const Quote& a, const Quote& b) {
  EXPECT_EQ(a.bandwidth, b.bandwidth);  // bitwise: no tolerance
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.service_cycles, b.service_cycles);
  EXPECT_EQ(a.plan_set, b.plan_set);
}

void expect_same_estimate(const sim::AnalyticEstimate& a,
                          const sim::AnalyticEstimate& b) {
  EXPECT_EQ(a.service_bandwidth, b.service_bandwidth);
  EXPECT_EQ(a.latency_bandwidth, b.latency_bandwidth);
  EXPECT_EQ(a.bandwidth, b.bandwidth);
  EXPECT_EQ(a.balance, b.balance);
  EXPECT_EQ(a.mc_utilization, b.mc_utilization);
}

TEST(Pricing, HealthyTableEqualsTheModelBitForBit) {
  // A fault-free state reads the table built at construction; a fault the
  // analytic model ignores (a straggler, a slow bank) sets any() and so
  // runs the model. Both must give the same quote and estimate, bit for bit.
  const PricingModel model;
  for (const char* ignored : {"strand5:lag=40", "bank3:slow=20"}) {
    const sim::FaultSpec faults = sim::FaultSpec::parse(ignored).value();
    ASSERT_TRUE(faults.any()) << ignored;
    for (const JobSpec& job : table_shapes()) {
      SCOPED_TRACE(std::string(ignored) + " " + to_string(job.kind) +
                   " n=" + std::to_string(job.n) +
                   " iterations=" + std::to_string(job.iterations));
      const auto table = model.price(job, {});
      const auto computed = model.price(job, faults);
      ASSERT_TRUE(table);
      ASSERT_TRUE(computed);
      expect_same_quote(table.value(), computed.value());
      EXPECT_EQ(table.value().plan_set, (std::vector<unsigned>{0, 1, 2, 3}));
      const auto est_table = model.estimate(job.kind, {});
      const auto est_computed = model.estimate(job.kind, faults);
      ASSERT_TRUE(est_table);
      ASSERT_TRUE(est_computed);
      expect_same_estimate(est_table.value(), est_computed.value());
    }
    JobSpec lbm;
    lbm.kind = JobKind::kLbm;
    lbm.n = kLargeN;
    for (const unsigned iterations : {1u, 3u}) {
      lbm.iterations = iterations;
      EXPECT_THROW((void)model.price(lbm, {}), std::invalid_argument);
      EXPECT_THROW((void)model.price(lbm, faults), std::invalid_argument);
    }
  }
}

TEST(Pricing, ConcurrentPricingMatchesSerial) {
  // The healthy table is read without a lock; degraded states run the model.
  // Four threads pricing both at once must reproduce the serial answers.
  const PricingModel model;
  const sim::FaultSpec mc1_off = sim::FaultSpec::parse("mc1:off").value();
  const std::vector<JobSpec> shapes = table_shapes();
  std::vector<Quote> serial;
  for (const JobSpec& job : shapes) {
    serial.push_back(model.price(job, {}).value());
    serial.push_back(model.price(job, mc1_off).value());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 100; ++rep)
        for (std::size_t i = 0; i < shapes.size(); ++i) {
          // Each thread walks the shapes from a different start.
          const std::size_t k = (i + static_cast<std::size_t>(t) * 7) %
                                shapes.size();
          const auto healthy = model.price(shapes[k], {});
          const auto degraded = model.price(shapes[k], mc1_off);
          if (!healthy || !same_quote(healthy.value(), serial[2 * k]) ||
              !degraded || !same_quote(degraded.value(), serial[2 * k + 1]))
            mismatches.fetch_add(1);
        }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Pricing, RejectsDegenerateConfigs) {
  EXPECT_THROW(PricingModel({.clock_ghz = 0.0}), std::invalid_argument);
  EXPECT_THROW(PricingModel({.clock_ghz = 1.2, .pricing_threads = 0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcopt::runtime::exec
