// Durable service runtime: the persistent submission API, quiesce/drain,
// and the crash-consistent restart contract — journaled completions are
// never re-run, duplicates dedupe by submission id, door verdicts replay
// bit-identically, tenant ledgers survive the snapshot, and every corruption
// shape is a typed refusal, never a silently wrong restart. In-process "crashes" destroy the handle without drain()
// (the destructor deliberately skips commit/seal); the true SIGKILL path is
// tests/integration/test_durability_regression.cpp.

#include "runtime/durable/service_handle.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>
#include <unistd.h>

#include "obs/attribution.h"
#include "runtime/checkpoint.h"
#include "runtime/durable/state.h"
#include "util/backoff.h"
#include "util/crc.h"
#include "util/prng.h"
#include "util/wire.h"

namespace mcopt::runtime::durable {
namespace {

namespace fs = std::filesystem;

using exec::JobKind;
using exec::JobSpec;
using exec::ShedReason;

class DurableServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mcopt_dur_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string subdir(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

/// Accounting-mode config: one worker, roomy lanes, no kernel bodies, batch
/// SLO (no deadlines) — every accepted job completes with a deterministic
/// quote, which is what makes ledgers byte-exactly reconcilable.
DurableConfig base_config(const std::string& dir) {
  DurableConfig cfg;
  cfg.dir = dir;
  cfg.service.executor.num_workers = 1;
  cfg.service.executor.run_kernels = false;
  cfg.service.executor.lane_capacity = {4096, 4096, 4096};
  cfg.service.executor.seed = 42;
  cfg.tenants.push_back(
      {.name = "alpha", .weight = 2.0, .slo = service::SloClass::kBatch});
  cfg.tenants.push_back(
      {.name = "beta", .weight = 1.0, .slo = service::SloClass::kBatch});
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

/// Submits ids [first, last] alternating tenants, flushing once at the end
/// (one group commit = one ack covering the batch).
void submit_range(ServiceHandle& h, std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t id = first; id <= last; ++id) {
    const service::TenantId tenant = 1 + static_cast<unsigned>(id % 2);
    (void)h.submit(tenant, id, triad(2048 + 64 * (id % 7), id * 10000));
  }
  ASSERT_TRUE(h.flush().ok());
}

std::uint64_t total_completed(const std::vector<TenantLedger>& ledger) {
  std::uint64_t n = 0;
  for (const TenantLedger& l : ledger) n += l.completed;
  return n;
}

std::uint64_t total_bytes(const std::vector<TenantLedger>& ledger) {
  std::uint64_t n = 0;
  for (const TenantLedger& l : ledger) n += l.served_bytes;
  return n;
}

void expect_ledgers_equal(const std::vector<TenantLedger>& a,
                          const std::vector<TenantLedger>& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].completed, b[i].completed) << what << " tenant " << i + 1;
    EXPECT_EQ(a[i].served_bytes, b[i].served_bytes)
        << what << " tenant " << i + 1;
    EXPECT_EQ(a[i].sheds, b[i].sheds) << what << " tenant " << i + 1;
  }
}

// --- lifecycle -------------------------------------------------------------

TEST_F(DurableServiceTest, ConfigCheckRejectsDegenerateShapes) {
  EXPECT_FALSE(DurableConfig{}.check().ok());
  DurableConfig no_tenants;
  no_tenants.dir = subdir("x");
  EXPECT_FALSE(no_tenants.check().ok());
  DurableConfig bad_weight = base_config(subdir("y"));
  bad_weight.tenants[1].weight = 0.0;
  EXPECT_FALSE(bad_weight.check().ok());
  EXPECT_FALSE(ServiceHandle::open(DurableConfig{}).has_value());
}

TEST_F(DurableServiceTest, SubmitFlushPumpDrainAndPoll) {
  auto handle = ServiceHandle::open(base_config(subdir("svc")));
  ASSERT_TRUE(handle.has_value()) << handle.error().message;
  ServiceHandle& h = *handle.value();
  EXPECT_FALSE(h.recovery_info().restarted);

  submit_range(h, 1, 20);
  const SubmitAck dup = h.submit(1, 7, triad(2048, 999));
  EXPECT_TRUE(dup.duplicate);

  DrainReport dr;
  ASSERT_TRUE(h.drain(&dr).ok());
  EXPECT_FALSE(dr.escalated);

  const std::vector<TenantLedger> ledger = h.ledger();
  EXPECT_EQ(total_completed(ledger), 20u);
  EXPECT_GT(total_bytes(ledger), 0u);

  const PollResult done = h.poll(3);
  EXPECT_EQ(done.state, SubmissionState::kCompleted);
  EXPECT_TRUE(done.acked);
  EXPECT_GT(done.served_bytes, 0u);
  EXPECT_EQ(h.poll(999).state, SubmissionState::kUnknown);
  EXPECT_TRUE(h.draining());
  EXPECT_FALSE(h.submit(1, 21, triad(2048, 0)).accepted);
}

TEST_F(DurableServiceTest, CleanShutdownRestartsSealed) {
  const std::string d = subdir("svc");
  std::vector<TenantLedger> before;
  {
    auto handle = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(handle.has_value());
    submit_range(*handle.value(), 1, 12);
    ASSERT_TRUE(handle.value()->drain(nullptr).ok());
    before = handle.value()->ledger();
  }
  auto handle = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(handle.has_value()) << handle.error().message;
  const RecoveryInfo& info = handle.value()->recovery_info();
  EXPECT_TRUE(info.restarted);
  EXPECT_TRUE(info.was_sealed);
  EXPECT_TRUE(info.snapshot_loaded);
  // drain() snapshots before sealing, so nothing needs replaying.
  EXPECT_EQ(info.replayed_submissions, 0u);
  EXPECT_EQ(info.dropped_bytes, 0u);
  expect_ledgers_equal(handle.value()->ledger(), before, "sealed restart");
  EXPECT_EQ(handle.value()->max_submission_id(), 12u);
}

// --- crash / replay --------------------------------------------------------

TEST_F(DurableServiceTest, CrashReplayMatchesUninterruptedRun) {
  // Reference: uninterrupted run of ids 1..30.
  auto ref = ServiceHandle::open(base_config(subdir("ref")));
  ASSERT_TRUE(ref.has_value());
  submit_range(*ref.value(), 1, 30);
  ASSERT_TRUE(ref.value()->drain(nullptr).ok());
  const std::vector<TenantLedger> want = ref.value()->ledger();

  // Crash run: same stream, handle destroyed right after the ack — no pump,
  // no drain. Every outcome is unjournaled; the restart must re-run all 30.
  const std::string d = subdir("crash");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 30);
  }
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value()) << h.error().message;
  const RecoveryInfo& info = h.value()->recovery_info();
  EXPECT_TRUE(info.restarted);
  EXPECT_FALSE(info.was_sealed);
  EXPECT_EQ(info.replayed_submissions, 30u);
  EXPECT_EQ(info.resubmitted + info.completed_skipped + info.sheds_replayed,
            30u);
  ASSERT_TRUE(h.value()->drain(nullptr).ok());
  expect_ledgers_equal(h.value()->ledger(), want, "crash replay");
}

TEST_F(DurableServiceTest, JournaledCompletionsAreNotReRun) {
  const std::string d = subdir("svc");
  std::uint64_t done_before_crash = 0;
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 10);
    // Journal the outcomes that already finalized, then "crash". The pump
    // loop carries a real time budget: on a loaded machine the workers can
    // be starved long enough that a fixed spin count journals nothing.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (done_before_crash < 10 &&
           std::chrono::steady_clock::now() < deadline) {
      (void)h.value()->pump();
      done_before_crash = total_completed(h.value()->ledger());
      if (done_before_crash < 10)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(h.value()->flush().ok());
    EXPECT_GT(done_before_crash, 0u);
  }
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value()) << h.error().message;
  const RecoveryInfo& info = h.value()->recovery_info();
  EXPECT_EQ(info.completed_skipped, done_before_crash);
  EXPECT_EQ(info.resubmitted, 10u - done_before_crash);
  // The executor of the new incarnation only ever sees the resubmitted part.
  ASSERT_TRUE(h.value()->drain(nullptr).ok());
  EXPECT_EQ(h.value()->service().executor().stats().submitted,
            10u - done_before_crash);
  EXPECT_EQ(total_completed(h.value()->ledger()), 10u);
}

TEST_F(DurableServiceTest, ReplayIsIdempotent) {
  // Open/close without new traffic is a read-only operation: any number of
  // successive recoveries sees the same journal and reports the same replay.
  const std::string d = subdir("svc");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 16);
  }
  RecoveryInfo first;
  for (int round = 0; round < 3; ++round) {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value()) << "round " << round << ": "
                               << h.error().message;
    const RecoveryInfo& info = h.value()->recovery_info();
    if (round == 0) {
      first = info;
    } else {
      EXPECT_EQ(info.journal_records, first.journal_records) << round;
      EXPECT_EQ(info.replayed_submissions, first.replayed_submissions);
      EXPECT_EQ(info.resubmitted, first.resubmitted);
      EXPECT_EQ(info.completed_skipped, first.completed_skipped);
      EXPECT_EQ(info.sheds_replayed, first.sheds_replayed);
    }
    expect_ledgers_equal(h.value()->ledger(), std::vector<TenantLedger>(2),
                         "no outcomes journaled yet");
  }
}

TEST_F(DurableServiceTest, DoorVerdictsReplayBitIdentically) {
  // A tightly quota'd tenant alongside an open one: door sheds are part of
  // the journaled history and must reproduce exactly on replay.
  auto quota_config = [&](const std::string& d) {
    DurableConfig cfg = base_config(d);
    cfg.tenants[1].quota_bytes_per_s = 60000.0;
    cfg.tenants[1].burst_seconds = 1.0;
    cfg.tenants[1].breaker_trip_threshold = 4;
    return cfg;
  };
  auto ref = ServiceHandle::open(quota_config(subdir("ref")));
  ASSERT_TRUE(ref.has_value());
  submit_range(*ref.value(), 1, 40);
  ASSERT_TRUE(ref.value()->drain(nullptr).ok());
  const std::vector<TenantLedger> want = ref.value()->ledger();
  ASSERT_GT(want[1].sheds, 0u) << "quota never tripped — test is vacuous";

  const std::string d = subdir("crash");
  {
    auto h = ServiceHandle::open(quota_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 40);
  }
  auto h = ServiceHandle::open(quota_config(d));
  ASSERT_TRUE(h.has_value()) << h.error().message;
  ASSERT_TRUE(h.value()->drain(nullptr).ok());
  expect_ledgers_equal(h.value()->ledger(), want, "door replay");

  const service::TenantSnapshot beta_got = h.value()->service().tenant(2);
  const service::TenantSnapshot beta_want = ref.value()->service().tenant(2);
  EXPECT_EQ(beta_got.counters.throttled, beta_want.counters.throttled);
  EXPECT_EQ(beta_got.counters.breaker_rejected,
            beta_want.counters.breaker_rejected);
  EXPECT_EQ(beta_got.counters.forwarded, beta_want.counters.forwarded);
  EXPECT_EQ(beta_got.counters.accepted, beta_want.counters.accepted);
}

// --- dedup -----------------------------------------------------------------

TEST_F(DurableServiceTest, DuplicateSubmissionsDedupeByIdAcrossRestart) {
  const std::string d = subdir("svc");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 8);
  }
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value());
  // The client never saw acks (it crashed too, say) and retries everything:
  // every id is already journaled, nothing double-runs.
  for (std::uint64_t id = 1; id <= 8; ++id) {
    const SubmitAck ack =
        h.value()->submit(1 + static_cast<unsigned>(id % 2), id,
                          triad(2048 + 64 * (id % 7), id * 10000));
    EXPECT_TRUE(ack.duplicate) << "id " << id;
  }
  ASSERT_TRUE(h.value()->drain(nullptr).ok());
  EXPECT_EQ(total_completed(h.value()->ledger()), 8u);
}

TEST_F(DurableServiceTest, SnapshotWatermarkAnswersCompactedHistory) {
  const std::string d = subdir("svc");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 6);
    ASSERT_TRUE(h.value()->checkpoint().ok());
    // Post-checkpoint the detailed entries are compacted away but the
    // watermark still answers duplicates in-process...
    const SubmitAck dup = h.value()->submit(1, 4, triad(2048, 0));
    EXPECT_TRUE(dup.duplicate);
    EXPECT_TRUE(dup.accepted);
  }
  // ...and across a restart.
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h.value()->recovery_info().snapshot_loaded);
  EXPECT_EQ(h.value()->recovery_info().replayed_submissions, 0u);
  const SubmitAck dup = h.value()->submit(1, 4, triad(2048, 0));
  EXPECT_TRUE(dup.duplicate);
  EXPECT_EQ(h.value()->poll(4).state, SubmissionState::kAckedHistory);
  // Fresh traffic continues above the watermark.
  const SubmitAck fresh = h.value()->submit(1, 7, triad(2048, 70000));
  EXPECT_FALSE(fresh.duplicate);
  ASSERT_TRUE(h.value()->drain(nullptr).ok());
  EXPECT_EQ(total_completed(h.value()->ledger()), 7u);
}

// --- checkpoint ------------------------------------------------------------

TEST_F(DurableServiceTest, CheckpointCompactsTheReplayPrefix) {
  const std::string d = subdir("svc");
  std::vector<TenantLedger> at_checkpoint;
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 10);
    ASSERT_TRUE(h.value()->checkpoint().ok());
    at_checkpoint = h.value()->ledger();
    EXPECT_EQ(total_completed(at_checkpoint), 10u);
    submit_range(*h.value(), 11, 14);
  }
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value()) << h.error().message;
  const RecoveryInfo& info = h.value()->recovery_info();
  EXPECT_TRUE(info.snapshot_loaded);
  // Only the post-snapshot suffix replays.
  EXPECT_EQ(info.replayed_submissions, 4u);
  ASSERT_TRUE(h.value()->drain(nullptr).ok());
  EXPECT_EQ(total_completed(h.value()->ledger()), 14u);
  EXPECT_GE(total_bytes(h.value()->ledger()), total_bytes(at_checkpoint));
}

// --- typed refusals --------------------------------------------------------

TEST_F(DurableServiceTest, TenantCountMismatchIsATypedRefusal) {
  const std::string d = subdir("svc");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 4);
  }
  DurableConfig one_tenant = base_config(d);
  one_tenant.tenants.pop_back();
  auto h = ServiceHandle::open(one_tenant);
  ASSERT_FALSE(h.has_value());
  EXPECT_NE(h.error().message.find("tenant"), std::string::npos);
}

TEST_F(DurableServiceTest, StateWithoutJournalIsATypedRefusal) {
  const std::string d = subdir("svc");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 4);
    ASSERT_TRUE(h.value()->checkpoint().ok());
  }
  fs::remove(fs::path(d) / "journal.mjnl");
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_FALSE(h.has_value());
  EXPECT_NE(h.error().message.find("journal"), std::string::npos);
}

TEST_F(DurableServiceTest, LeftoverJournalTempFileOpensFresh) {
  // A crash inside journal creation leaves at most the temp file the header
  // is staged in. The journal never existed and nothing was acked, so the
  // next open is a fresh start that replaces the leftover.
  const std::string d = subdir("svc");
  fs::create_directories(d);
  const fs::path tmp = fs::path(d) / "journal.mjnl.tmp";
  {
    std::ofstream partial(tmp, std::ios::binary);
    partial << "MJNL";
  }
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value()) << h.error().message;
    EXPECT_FALSE(h.value()->recovery_info().restarted);
    EXPECT_FALSE(fs::exists(tmp));
    submit_range(*h.value(), 1, 3);
  }
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value()) << h.error().message;
  EXPECT_TRUE(h.value()->recovery_info().restarted);
  EXPECT_EQ(h.value()->recovery_info().replayed_submissions, 3u);
}

TEST_F(DurableServiceTest, CorruptSnapshotIsATypedRefusal) {
  const std::string d = subdir("svc");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 4);
    ASSERT_TRUE(h.value()->checkpoint().ok());
  }
  const std::string state = (fs::path(d) / "state.mcpt").string();
  std::fstream f(state, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(70);
  const char orig = static_cast<char>(f.get());
  f.seekp(70);
  f.put(static_cast<char>(orig ^ 0x40));
  f.close();
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_FALSE(h.has_value());
}

TEST_F(DurableServiceTest, TornJournalTailIsTruncatedAndReported) {
  const std::string d = subdir("svc");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 6);
  }
  // The crash landed mid-append: lop 5 bytes off the journal.
  const std::string journal = (fs::path(d) / "journal.mjnl").string();
  const auto size = fs::file_size(journal);
  fs::resize_file(journal, size - 5);

  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value()) << h.error().message;
  const RecoveryInfo& info = h.value()->recovery_info();
  EXPECT_GT(info.dropped_bytes, 0u);
  EXPECT_FALSE(info.tail_note.empty());
  EXPECT_EQ(info.replayed_submissions, 5u);  // the 6th record was the torn one
  // The tail is physically gone: the journal accepts appends again and a
  // re-restart is clean.
  ASSERT_TRUE(h.value()->drain(nullptr).ok());
  auto again = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(again.has_value()) << again.error().message;
  EXPECT_EQ(again.value()->recovery_info().dropped_bytes, 0u);
  EXPECT_TRUE(again.value()->recovery_info().was_sealed);
}

// --- drain / quiesce -------------------------------------------------------

TEST_F(DurableServiceTest, DrainWatchdogEscalatesAndShedsTyped) {
  DurableConfig cfg = base_config(subdir("svc"));
  cfg.drain_budget_ms = 50;
  auto handle = ServiceHandle::open(cfg);
  ASSERT_TRUE(handle.has_value());
  ServiceHandle& h = *handle.value();

  // Freeze dequeue so the backlog cannot empty within the budget.
  h.service().executor().hold_dequeue();
  submit_range(h, 1, 25);
  DrainReport dr;
  ASSERT_TRUE(h.drain(&dr).ok());
  EXPECT_TRUE(dr.escalated);
  EXPECT_GT(dr.shed_on_drain, 0u);

  // Every shed is typed (kShutdown) and journaled; nothing is silent.
  std::uint64_t sheds = 0, completed = 0;
  for (const TenantLedger& l : h.ledger()) {
    sheds += l.sheds;
    completed += l.completed;
  }
  EXPECT_EQ(sheds, dr.shed_on_drain);
  EXPECT_EQ(sheds + completed, 25u);
  for (std::uint64_t id = 1; id <= 25; ++id) {
    const PollResult p = h.poll(id);
    EXPECT_TRUE(p.state == SubmissionState::kCompleted ||
                (p.state == SubmissionState::kShed &&
                 p.reason == ShedReason::kShutdown))
        << "id " << id;
  }
}

TEST_F(DurableServiceTest, ShedsOnDrainAreFinalHistoryAfterRestart) {
  const std::string d = subdir("svc");
  std::vector<TenantLedger> before;
  {
    DurableConfig cfg = base_config(d);
    cfg.drain_budget_ms = 50;
    auto h = ServiceHandle::open(cfg);
    ASSERT_TRUE(h.has_value());
    h.value()->service().executor().hold_dequeue();
    submit_range(*h.value(), 1, 25);
    ASSERT_TRUE(h.value()->drain(nullptr).ok());
    before = h.value()->ledger();
  }
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value()) << h.error().message;
  // A shed journaled as final history is not retried by the restart.
  EXPECT_EQ(h.value()->recovery_info().resubmitted, 0u);
  expect_ledgers_equal(h.value()->ledger(), before, "sheds are final");
}

TEST_F(DurableServiceTest, SigtermLatchesTheQuiesceFlag) {
  ServiceHandle::clear_quiesce_request();
  ServiceHandle::install_quiesce_signal_handler();
  EXPECT_FALSE(ServiceHandle::quiesce_requested());
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(ServiceHandle::quiesce_requested());
  ServiceHandle::clear_quiesce_request();
  EXPECT_FALSE(ServiceHandle::quiesce_requested());
  (void)std::signal(SIGTERM, SIG_DFL);
}

// --- state image primitives ------------------------------------------------

TEST_F(DurableServiceTest, StateImageRoundTripsBitExactly) {
  StateImage im;
  im.snapshot_id = 3;
  im.covered_sequence = 99;
  im.max_submission_id = 1234;
  im.door.door_clock = 777777;
  service::DoorTenantState t;
  t.counters.submitted = 10;
  t.counters.forwarded = 8;
  t.counters.offered_bytes = 123456789;
  t.quota_level_bytes = 0.1 + 0.2;  // not exactly representable: bit test
  t.last_refill = 55555;
  t.breaker.consecutive_failures = 3;
  t.breaker.backoff.current = 1.7;
  t.breaker.backoff.retries = 2;
  t.breaker.backoff.ready_at = 424242;
  util::Xoshiro256 rng(99);
  t.breaker.backoff.rng = rng.state();
  im.door.tenants = {t, service::DoorTenantState{}};
  im.clocks.arrival = 1;
  im.clocks.service_tail = 2;
  im.clocks.admit_tail = 3;
  im.ledger = {TenantLedger{5, 500, 1}, TenantLedger{2, 200, 0}};

  const std::string p = subdir("state.mcpt");
  ASSERT_TRUE(save_state(p, im).ok());
  auto back = load_state(p);
  ASSERT_TRUE(back.has_value()) << back.error().message;
  const StateImage& got = back.value();
  EXPECT_EQ(got.snapshot_id, 3u);
  EXPECT_EQ(got.covered_sequence, 99u);
  EXPECT_EQ(got.max_submission_id, 1234u);
  EXPECT_EQ(got.door.door_clock, 777777u);
  ASSERT_EQ(got.door.tenants.size(), 2u);
  EXPECT_EQ(got.door.tenants[0].counters.submitted, 10u);
  EXPECT_EQ(got.door.tenants[0].quota_level_bytes, 0.1 + 0.2);  // bit-exact
  EXPECT_EQ(got.door.tenants[0].breaker.backoff.rng, rng.state());
  EXPECT_EQ(got.clocks.admit_tail, 3u);
  EXPECT_EQ(got.ledger[0].served_bytes, 500u);
}

TEST_F(DurableServiceTest, StateImageCarriesTheAttributionSection) {
  obs::Attribution::instance().reset();
  obs::Attribution::instance().charge(1, 2, obs::Charge::kServed, 0, 4096);
  obs::Attribution::instance().charge(2, -1, obs::Charge::kShed, 3, 512, 2);

  StateImage im;
  im.snapshot_id = 1;
  im.door.tenants.resize(2);
  im.ledger.resize(2);
  im.has_attribution = true;
  im.attribution = obs::Attribution::instance().encode();

  const std::string p = subdir("attr_state.mcpt");
  ASSERT_TRUE(save_state(p, im).ok());
  auto back = load_state(p);
  ASSERT_TRUE(back.has_value()) << back.error().message;
  ASSERT_TRUE(back.value().has_attribution);
  EXPECT_EQ(back.value().attribution, im.attribution);

  // The loaded blob restores the ledger exactly (a fresh "process").
  obs::Attribution::instance().reset();
  ASSERT_TRUE(obs::Attribution::instance().restore(back.value().attribution)
                  .ok());
  EXPECT_EQ(obs::Attribution::instance().tenant_bytes(1, obs::Charge::kServed),
            4096u);
  EXPECT_EQ(obs::Attribution::instance().tenant_count(2, obs::Charge::kShed),
            2u);
  obs::Attribution::instance().reset();
}

TEST_F(DurableServiceTest, UnknownStateSectionFlagsAreATypedRefusal) {
  StateImage im;
  im.snapshot_id = 1;
  const std::string p = subdir("flags.mcpt");
  ASSERT_TRUE(save_state(p, im).ok());
  auto ckpt = load_checkpoint(p);
  ASSERT_TRUE(ckpt.has_value());

  // A future writer sets a section flag this build does not know, or an old
  // one sets the retired bit 0. Loading must refuse — skipping an unknown
  // section would drop state silently.
  for (const unsigned bit : {0u, 7u}) {
    Checkpoint doctored = ckpt.value();
    doctored.user[1] |= std::uint64_t{1} << bit;
    ASSERT_TRUE(save_checkpoint(p, doctored).ok());
    auto refused = load_state(p);
    ASSERT_FALSE(refused.has_value()) << "bit " << bit;
    EXPECT_NE(refused.error().message.find("unknown section flags"),
              std::string::npos)
        << refused.error().message;
  }
}

TEST_F(DurableServiceTest, StateImageVersionsOtherThanTheCurrentAreRefused) {
  StateImage im;
  im.snapshot_id = 1;
  im.door.tenants.resize(1);
  im.ledger.resize(1);
  const std::string p = subdir("version.mcpt");
  ASSERT_TRUE(save_state(p, im).ok());
  auto ckpt = load_checkpoint(p);
  ASSERT_TRUE(ckpt.has_value());
  ASSERT_EQ(ckpt.value().user[0], kStateImageVersion);

  for (const std::uint64_t version : {std::uint64_t{1}, std::uint64_t{3}}) {
    Checkpoint doctored = ckpt.value();
    doctored.user[0] = version;
    ASSERT_TRUE(save_checkpoint(p, doctored).ok());
    auto refused = load_state(p);
    ASSERT_FALSE(refused.has_value()) << "version " << version << " accepted";
    EXPECT_NE(refused.error().message.find("image version"), std::string::npos)
        << refused.error().message;
  }
}

/// A state image with every field of the three sections a ServiceHandle
/// writes (core, ledger, attribution) away from its default.
StateImage pinned_state_image() {
  StateImage im;
  im.snapshot_id = 7;
  im.covered_sequence = 4242;
  im.max_submission_id = 977;
  im.door.door_clock = 123456789;
  service::DoorTenantState t;
  t.counters = {10, 1, 2, 7, 6, 123456789, 4096, 98765, 1};
  t.breaker.backoff = {0.1 + 0.2, 1, 99, {5, 6, 7, 8}};
  t.breaker.consecutive_failures = 1;
  t.breaker.state = 2;
  t.quota_level_bytes = 1.5e6;
  t.last_refill = 55555;
  im.door.tenants = {t, service::DoorTenantState{}};
  im.clocks = {11, 22, 33};
  im.ledger = {TenantLedger{5, 500, 1}, TenantLedger{2, 200, 3}};
  obs::Attribution& attr = obs::Attribution::instance();
  attr.reset();
  attr.charge(1, 2, obs::Charge::kServed, 0, 4096);
  attr.charge(2, -1, obs::Charge::kShed, 3, 512, 2);
  im.has_attribution = true;
  im.attribution = attr.encode();
  attr.reset();
  return im;
}

TEST_F(DurableServiceTest, StateImageEncodesToPinnedBytes) {
  // The image format a ServiceHandle writes, byte for byte: version 2, the
  // attribution flag, and the core, ledger and attribution sections. A
  // change to any pin misreads the snapshots already on disk; a new format
  // bumps kStateImageVersion instead.
  const std::string p = subdir("pinned.mcpt");
  ASSERT_TRUE(save_state(p, pinned_state_image()).ok());
  const auto ckpt = load_checkpoint(p);
  ASSERT_TRUE(ckpt.has_value()) << ckpt.error().message;
  EXPECT_EQ(ckpt.value().user[0], 2u);
  EXPECT_EQ(ckpt.value().user[1], kStateFlagAttribution);
  const std::vector<std::vector<std::uint8_t>>& sections =
      ckpt.value().sections;
  ASSERT_EQ(sections.size(), 3u);
  const std::size_t sizes[] = {348, 52, 88};
  const std::uint32_t crcs[] = {0xed597a3fu, 0x58d6cba8u, 0xe5047c47u};
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].size(), sizes[i]) << "section " << i;
    EXPECT_EQ(util::crc32c(sections[i].data(), sections[i].size()), crcs[i])
        << "section " << i << std::hex << " crc 0x"
        << util::crc32c(sections[i].data(), sections[i].size());
  }

  const auto file = util::wire::read_file(p, "state image");
  ASSERT_TRUE(file.has_value()) << file.error().message;
  const std::vector<std::uint8_t>& bytes = file.value();
  EXPECT_EQ(bytes.size(), 600u);
  EXPECT_EQ(util::crc32c(bytes.data(), bytes.size()), 0x48674bc7u)
      << std::hex << "file crc 0x" << util::crc32c(bytes.data(), bytes.size());
}

TEST_F(DurableServiceTest, AttributionReconcilesWithLedgerAcrossCrashReplay) {
  // The in-process mirror of the bench/durability contract: after a crash
  // (no drain, outcomes unjournaled) and a replayed restart, the attribution
  // ledger's per-tenant served bytes and shed events equal the service
  // ledger exactly.
  obs::Attribution::instance().reset();
  const std::string d = subdir("attr");
  {
    auto h = ServiceHandle::open(base_config(d));
    ASSERT_TRUE(h.has_value());
    submit_range(*h.value(), 1, 24);
    for (int i = 0; i < 50; ++i) (void)h.value()->pump();
    ASSERT_TRUE(h.value()->flush().ok());
  }
  obs::Attribution::instance().reset();  // the restart is a fresh process
  auto h = ServiceHandle::open(base_config(d));
  ASSERT_TRUE(h.has_value()) << h.error().message;
  ASSERT_TRUE(h.value()->drain(nullptr).ok());
  const std::vector<TenantLedger> ledger = h.value()->ledger();
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    const auto tenant = static_cast<std::uint32_t>(i + 1);
    EXPECT_EQ(
        obs::Attribution::instance().tenant_bytes(tenant, obs::Charge::kServed),
        ledger[i].served_bytes)
        << "tenant " << tenant;
    EXPECT_EQ(
        obs::Attribution::instance().tenant_count(tenant, obs::Charge::kShed),
        ledger[i].sheds)
        << "tenant " << tenant;
  }
  obs::Attribution::instance().reset();
}

TEST_F(DurableServiceTest, BreakerAndBackoffSnapshotsRestoreBehavior) {
  const util::BackoffConfig bcfg{.initial = 100, .multiplier = 2.0,
                                 .cap = 10000, .jitter = 0.2};
  util::CircuitBreaker a(bcfg, 2, 77);
  a.record_failure(1000);  // 1 of 2
  const util::CircuitBreaker::Snapshot snap = a.snapshot();

  util::CircuitBreaker b(bcfg, 2, 0);  // different seed: rng comes from snap
  b.restore(snap);
  // Both now one failure from tripping; the hold they compute next draws
  // from identical rng state, so their futures are bit-identical.
  a.record_failure(2000);
  b.record_failure(2000);
  EXPECT_EQ(a.state(), util::CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.state(), util::CircuitBreaker::State::kOpen);
  EXPECT_EQ(a.allow(3000), b.allow(3000));
  EXPECT_EQ(a.allow(999999999), b.allow(999999999));
}

}  // namespace
}  // namespace mcopt::runtime::durable
