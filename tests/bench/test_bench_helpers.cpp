// The bench helpers must honor the SimConfig they are handed: degraded-chip
// numbers must differ from healthy-chip numbers, so a bench that parses
// --fault but forgets to thread its cfg through can't silently report
// healthy bandwidth under a "DEGRADED" header.

#include "bench/common.h"
#include "bench/durable_common.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

namespace mcopt::bench {
namespace {

constexpr std::size_t kN = 4096;

// The CI smoke scenario: one channel dead, one at half rate. At offset 0 all
// page-aligned bases map to controller 0, whose traffic remaps to the
// derated controller 1 — the degraded number must drop.
sim::SimConfig degraded_config() {
  sim::SimConfig cfg;
  cfg.faults = sim::FaultSpec::parse("mc0:off,mc1:derate=0.5").value();
  cfg.faults.check(cfg.interleave).throw_if_failed();
  return cfg;
}

TEST(BenchHelpers, StreamReportedHonorsFaults) {
  const double healthy =
      stream_reported_gbs(kernels::StreamOp::kTriad, kN, 0, 16);
  const double degraded = stream_reported_gbs(kernels::StreamOp::kTriad, kN, 0,
                                              16, degraded_config());
  EXPECT_LT(degraded, healthy);
}

TEST(BenchHelpers, StreamAnalyticHonorsFaults) {
  const double healthy =
      stream_analytic_gbs(kernels::StreamOp::kTriad, kN, 0, 64);
  const double degraded = stream_analytic_gbs(kernels::StreamOp::kTriad, kN, 0,
                                              64, degraded_config());
  EXPECT_LT(degraded, healthy);
}

TEST(BenchHelpers, TriadActualHonorsFaults) {
  // Spread bases (one array per controller): the healthy chip serves them in
  // parallel, so losing mc0 and halving mc1 must cost bandwidth. (A fully
  // aliased layout is bank-conflict-bound and not monotone under faults.)
  trace::VirtualArena arena;
  std::vector<arch::Addr> bases;
  for (arch::Addr k = 0; k < 4; ++k)
    bases.push_back(arena.allocate(kN * 8 + 512, 8192) + k * 128);
  const double healthy = triad_actual_gbs(bases, kN, 16);
  const double degraded = triad_actual_gbs(bases, kN, 16, degraded_config());
  EXPECT_LT(degraded, healthy);
}

TEST(BenchHelpers, CheckedRateRejectsPoison) {
  EXPECT_THROW(checked_rate(std::numeric_limits<double>::quiet_NaN(), "x"),
               std::runtime_error);
  EXPECT_THROW(checked_rate(std::numeric_limits<double>::infinity(), "x"),
               std::runtime_error);
  EXPECT_THROW(checked_rate(-1.0, "x"), std::runtime_error);
  EXPECT_DOUBLE_EQ(checked_rate(3.7, "x"), 3.7);
}

TEST(BenchHelpers, SeedListRefusesCountsBelowOne) {
  // -1 must be refused before the list is sized: a cast would ask for
  // 2^64-1 seeds.
  for (const std::int64_t seeds : {std::int64_t{0}, std::int64_t{-1}}) {
    const auto list = seed_list(0, seeds);
    ASSERT_FALSE(list.has_value()) << seeds;
    EXPECT_NE(list.error().message.find("--seeds"), std::string::npos);
  }
  const auto negative = seed_list(-1, 32);
  ASSERT_FALSE(negative.has_value());
  EXPECT_NE(negative.error().message.find("--seed "), std::string::npos);
}

TEST(BenchHelpers, SeedListIsOneToSeedsOrTheSingleSeed) {
  EXPECT_EQ(seed_list(0, 3).value(), (std::vector<std::uint64_t>{1, 2, 3}));
  // --seed replays one seed whatever --seeds says, even an invalid count.
  EXPECT_EQ(seed_list(7, 32).value(), std::vector<std::uint64_t>{7});
  EXPECT_EQ(seed_list(7, 0).value(), std::vector<std::uint64_t>{7});
}

TEST(BenchHelpers, DurableCountsRefuseZeroAndNegative) {
  EXPECT_TRUE(check_durable_counts(60, 10).ok());
  const auto no_batch = check_durable_counts(60, 0);
  ASSERT_FALSE(no_batch.ok());
  EXPECT_NE(no_batch.error().message.find("--batch"), std::string::npos);
  const auto no_jobs = check_durable_counts(0, 10);
  ASSERT_FALSE(no_jobs.ok());
  EXPECT_NE(no_jobs.error().message.find("--jobs"), std::string::npos);
  EXPECT_FALSE(check_durable_counts(-1, 10).ok());
}

TEST(BenchHelpers, FailLogWritesOnlyFailingRuns) {
  namespace fs = std::filesystem;
  const fs::path dir = scratch_path("mcopt_faillog", 0);
  fs::create_directories(dir);
  const std::string path = (dir / "fail.txt").string();
  {
    FailLog log(path);
    log.add("seed 1", {});
    EXPECT_EQ(log.finish(), 0u);
  }
  EXPECT_FALSE(fs::exists(path)) << "a passing soak must leave no fail log";
  {
    FailLog log(path);
    log.add("seed 2", {"I1: lost", "I4: thrash"});
    log.add("seed 3", {});
    log.add("seed 4", {"N3: thrash"});
    EXPECT_EQ(log.finish(), 2u);
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "seed 2\n  I1: lost\n  I4: thrash\nseed 4\n  N3: thrash\n");
  EXPECT_TRUE(fs::exists(path + ".metrics.txt"));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace mcopt::bench
