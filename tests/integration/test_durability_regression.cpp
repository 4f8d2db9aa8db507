// DurabilityRegression (tier-1): the crash-consistency contract K1-K4 under a
// real SIGKILL, run through the same harness as `chaos_soak --kill-service`
// and `bench/durability` (bench/durable_common.h). A child process serves
// the durable service through a deterministic multi-tenant submission
// stream; the parent kills it at a chosen moment after its journal header
// is on disk, restarts on the same directory, and reconciles against an
// uninterrupted reference run of the same stream: zero acknowledged-
// submission loss, no double execution, byte-exact per-tenant ledgers and
// attribution, and a sealed, idempotent second restart.

#ifndef _WIN32

#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "bench/durable_common.h"

namespace mcopt::runtime::durable {
namespace {

namespace fs = std::filesystem;

/// The tier-1 stream: job-size seed 0, 60 jobs in batches of 10, a short
/// pause between batches.
bench::DurableWorkload stream() {
  bench::DurableWorkload w;
  w.seed = 0;
  w.jobs = 60;
  w.batch = 10;
  w.inter_batch_us = 1500;
  return w;
}

class DurabilityRegression : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("mcopt_durreg_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::create_directories(root_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void expect_reconciles(unsigned kill_after_us) const {
    const auto out = bench::run_kill_restart(root_, stream(), kill_after_us);
    for (const auto& f : out.failures)
      ADD_FAILURE() << "kill@" << kill_after_us << "us: " << f;
  }

  fs::path root_;
};

TEST_F(DurabilityRegression, LedgerReconcilesAfterEarlyKill) {
  expect_reconciles(800);
}

TEST_F(DurabilityRegression, LedgerReconcilesAfterMidStreamKill) {
  expect_reconciles(5000);
}

TEST_F(DurabilityRegression, LedgerReconcilesAfterLateOrPostDrainKill) {
  // Late enough that the child may finish and seal before the kill lands —
  // reconciliation must hold on a sealed journal too (pure dedup path).
  expect_reconciles(20000);
}

TEST_F(DurabilityRegression, ReplayAloneNeverChangesTheJournalVerdicts) {
  // Kill, then open/close WITHOUT resubmitting three times: every recovery
  // reports the same replay shape (replay is idempotent and read-only up to
  // tail truncation, which only the first recovery performs).
  const std::string dir = (root_ / "kill").string();
  fs::create_directories(dir);
  for (const auto& f : bench::fork_and_kill(dir, stream(), 4000))
    ADD_FAILURE() << f;

  RecoveryInfo first;
  for (int round = 0; round < 3; ++round) {
    auto h = ServiceHandle::open(bench::durable_config(dir));
    ASSERT_TRUE(h.has_value()) << "round " << round << ": "
                               << h.error().message;
    const RecoveryInfo& info = h.value()->recovery_info();
    if (round == 0) {
      first = info;
    } else {
      EXPECT_EQ(info.replayed_submissions, first.replayed_submissions);
      EXPECT_EQ(info.completed_skipped, first.completed_skipped);
      EXPECT_EQ(info.sheds_replayed, first.sheds_replayed);
      EXPECT_EQ(info.resubmitted, first.resubmitted);
      EXPECT_EQ(info.dropped_bytes, 0u) << "tail re-torn on round " << round;
    }
  }
}

}  // namespace
}  // namespace mcopt::runtime::durable

#endif  // _WIN32
