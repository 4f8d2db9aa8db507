// DurabilityRegression (tier-1): the crash-consistency contract under a real
// SIGKILL. A child process runs the durable service through a deterministic
// multi-tenant submission stream — group-committing every batch, recording
// its ack watermark in a side file only AFTER flush() returns — and the
// parent kills it with SIGKILL at a chosen moment. The parent then restarts
// the service on the same directory and asserts, against an uninterrupted
// reference run of the same stream:
//
//   * zero acknowledged-submission loss — every id at or below the child's
//     last durable ack watermark is known to the restarted service;
//   * no double execution — journaled completions are credited from the
//     record, and the final per-tenant completed counts match the reference
//     exactly (a re-run would overshoot);
//   * byte-exact ledger reconciliation — per-tenant served bytes and typed
//     shed counts equal the uninterrupted run's, because door verdicts
//     replay bit-identically and quotes are deterministic;
//   * restart idempotence — a second restart after the recovery drain is
//     sealed and reports the same ledger.
//
// SIGKILL (not SIGTERM) is the point: no handler runs, stdio buffers die
// unflushed, and the journal may be torn mid-record — recovery must truncate
// and report the tail, never refuse or silently mangle it.

#ifndef _WIN32

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "runtime/durable/service_handle.h"

namespace mcopt::runtime::durable {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kJobs = 60;
constexpr std::uint64_t kBatch = 10;

/// Two tenants, batch SLO (no deadlines — deterministic quotes), accounting
/// mode. Tenant 2 carries a tight byte quota so door sheds are part of the
/// history being reconciled.
DurableConfig workload_config(const std::string& dir) {
  DurableConfig cfg;
  cfg.dir = dir;
  cfg.service.executor.num_workers = 2;
  cfg.service.executor.run_kernels = false;
  cfg.service.executor.lane_capacity = {4096, 4096, 4096};
  cfg.service.executor.seed = 1234;
  cfg.tenants.push_back(
      {.name = "steady", .weight = 2.0, .slo = service::SloClass::kBatch});
  cfg.tenants.push_back({.name = "capped",
                         .weight = 1.0,
                         .quota_bytes_per_s = 250000.0,
                         .burst_seconds = 1.0,
                         .slo = service::SloClass::kBatch,
                         .breaker_trip_threshold = 6});
  return cfg;
}

exec::JobSpec job_for(std::uint64_t id) {
  exec::JobSpec spec;
  spec.kind = exec::JobKind::kTriad;
  spec.n = 2048 + 128 * (id % 5);
  spec.iterations = 1 + static_cast<unsigned>(id % 3);
  spec.arrival = id * 20000;
  return spec;
}

service::TenantId tenant_for(std::uint64_t id) {
  return 1 + static_cast<service::TenantId>(id % 2);
}

/// Durably records "every id <= max_id is acked" — written only after
/// flush() returned, fsync'd before rename, so the marker never overstates.
void write_ack_marker(const std::string& dir, std::uint64_t max_id) {
  const std::string tmp = dir + "/acked.tmp";
  const std::string final_path = dir + "/acked.txt";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "%llu\n", static_cast<unsigned long long>(max_id));
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
  std::rename(tmp.c_str(), final_path.c_str());
}

std::uint64_t read_ack_marker(const std::string& dir) {
  std::FILE* f = std::fopen((dir + "/acked.txt").c_str(), "rb");
  if (f == nullptr) return 0;
  unsigned long long v = 0;
  const int got = std::fscanf(f, "%llu", &v);
  std::fclose(f);
  return got == 1 ? v : 0;
}

/// The child's serving loop: submit in batches, flush (ack) each batch,
/// pump outcomes, checkpoint occasionally, briefly sleep so the parent's
/// kill lands at a mid-stream instant. Returns false on any local failure.
bool run_workload(const std::string& dir, bool drain_at_end,
                  unsigned inter_batch_us) {
  auto handle = ServiceHandle::open(workload_config(dir));
  if (!handle) return false;
  ServiceHandle& h = *handle.value();
  for (std::uint64_t first = 1; first <= kJobs; first += kBatch) {
    const std::uint64_t last = std::min(kJobs, first + kBatch - 1);
    for (std::uint64_t id = first; id <= last; ++id)
      (void)h.submit(tenant_for(id), id, job_for(id));
    if (!h.flush().ok()) return false;
    write_ack_marker(dir, last);
    (void)h.pump();
    if (((first / kBatch) % 3) == 2 && !h.checkpoint().ok()) return false;
    if (inter_batch_us > 0) ::usleep(inter_batch_us);
  }
  if (drain_at_end && !h.drain(nullptr).ok()) return false;
  return true;
}

std::vector<TenantLedger> reference_ledger(const std::string& dir) {
  EXPECT_TRUE(run_workload(dir, /*drain_at_end=*/true, 0));
  auto h = ServiceHandle::open(workload_config(dir));
  EXPECT_TRUE(h.has_value());
  return h.has_value() ? h.value()->ledger() : std::vector<TenantLedger>{};
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
  [[nodiscard]] std::string subdir(const std::string& name) const {
    fs::create_directories(root_ / name);
    return (root_ / name).string();
  }
  fs::path root_;
};

/// Forks the workload, SIGKILLs it after `kill_after_us`, restarts on the
/// same directory, resubmits the full id stream (the client retrying
/// everything it never saw acked), drains, and reconciles.
void kill_and_reconcile(const std::string& dir,
                        const std::vector<TenantLedger>& want,
                        unsigned kill_after_us) {
  const pid_t child = ::fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // In the child: no gtest, no exit handlers — run and die.
    const bool ok = run_workload(dir, /*drain_at_end=*/true,
                                 /*inter_batch_us=*/1500);
    ::_exit(ok ? 0 : 42);
  }
  // Arm the kill timer only once the child's journal header is on disk:
  // the delay is meant to land the SIGKILL N microseconds into *journaled
  // traffic*, not N microseconds after fork — on a loaded machine process
  // startup alone can eat a short fuse, leaving a fresh start (or a
  // headerless file) instead of a restart.
  const std::string journal = workload_config(dir).journal_path();
  const auto header_durable = [&journal] {
    std::error_code ec;
    return fs::file_size(journal, ec) >= 20 && !ec;
  };
  for (int i = 0; i < 20000 && !header_durable(); ++i) ::usleep(100);
  ASSERT_TRUE(header_durable()) << "child never created the journal";
  ::usleep(kill_after_us);
  (void)::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  if (WIFEXITED(status))
    ASSERT_EQ(WEXITSTATUS(status), 0) << "child failed before the kill";

  const std::uint64_t acked = read_ack_marker(dir);

  // Restart. A torn tail is acceptable (and expected for mid-write kills);
  // a refusal is not.
  auto handle = ServiceHandle::open(workload_config(dir));
  ASSERT_TRUE(handle.has_value())
      << "kill@" << kill_after_us << "us: " << handle.error().message;
  ServiceHandle& h = *handle.value();
  EXPECT_TRUE(h.recovery_info().restarted);

  // Zero acknowledged-submission loss: every id the child saw flush()
  // return for is known to the restarted service.
  for (std::uint64_t id = 1; id <= acked; ++id)
    EXPECT_NE(h.poll(id).state, SubmissionState::kUnknown)
        << "acked id " << id << " lost (kill@" << kill_after_us << "us)";

  // The client retries the whole stream; duplicates dedupe, the rest runs.
  for (std::uint64_t id = 1; id <= kJobs; ++id)
    (void)h.submit(tenant_for(id), id, job_for(id));
  ASSERT_TRUE(h.flush().ok());
  ASSERT_TRUE(h.drain(nullptr).ok());

  const std::vector<TenantLedger> got = h.ledger();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].completed, want[i].completed)
        << "tenant " << i + 1 << " completed (kill@" << kill_after_us << "us)";
    EXPECT_EQ(got[i].served_bytes, want[i].served_bytes)
        << "tenant " << i + 1 << " bytes (kill@" << kill_after_us << "us)";
    EXPECT_EQ(got[i].sheds, want[i].sheds)
        << "tenant " << i + 1 << " sheds (kill@" << kill_after_us << "us)";
  }

  // Restart idempotence: reopening after the recovery drain is clean.
  auto again = ServiceHandle::open(workload_config(dir));
  ASSERT_TRUE(again.has_value()) << again.error().message;
  EXPECT_TRUE(again.value()->recovery_info().was_sealed);
  const std::vector<TenantLedger> still = again.value()->ledger();
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(still[i].served_bytes, want[i].served_bytes) << "tenant " << i;
    EXPECT_EQ(still[i].completed, want[i].completed) << "tenant " << i;
  }
}

TEST_F(DurabilityRegression, LedgerReconcilesAfterEarlyKill) {
  const std::vector<TenantLedger> want = reference_ledger(subdir("ref"));
  ASSERT_EQ(want.size(), 2u);
  ASSERT_GT(want[1].sheds, 0u) << "quota tenant never shed — test is vacuous";
  kill_and_reconcile(subdir("kill"), want, 800);
}

TEST_F(DurabilityRegression, LedgerReconcilesAfterMidStreamKill) {
  const std::vector<TenantLedger> want = reference_ledger(subdir("ref"));
  kill_and_reconcile(subdir("kill"), want, 5000);
}

TEST_F(DurabilityRegression, LedgerReconcilesAfterLateOrPostDrainKill) {
  // Late enough that the child may finish and seal before the kill lands —
  // reconciliation must hold on a sealed journal too (pure dedup path).
  const std::vector<TenantLedger> want = reference_ledger(subdir("ref"));
  kill_and_reconcile(subdir("kill"), want, 20000);
}

TEST_F(DurabilityRegression, ReplayAloneNeverChangesTheJournalVerdicts) {
  // Kill, then open/close WITHOUT resubmitting three times: every recovery
  // reports the same replay shape (replay is idempotent and read-only up to
  // tail truncation, which only the first recovery performs).
  const std::string dir = subdir("kill");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const bool ok = run_workload(dir, true, 1500);
    ::_exit(ok ? 0 : 42);
  }
  ::usleep(4000);
  (void)::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  RecoveryInfo first;
  for (int round = 0; round < 3; ++round) {
    auto h = ServiceHandle::open(workload_config(dir));
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
