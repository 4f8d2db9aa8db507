// Write-ahead journal: format round-trips, the write->fsync->ack ordering
// surface (uncommitted tails are crash losses, committed records never are),
// and the fuzzing contract from DESIGN.md §4l — truncation at EVERY byte
// offset and a single-bit flip at EVERY bit of a journal must yield either a
// typed refusal or a clean, reported tail-truncation whose surviving records
// are a byte-exact prefix of the original history. Silent corruption (a
// successful scan whose records differ from what was written) is the one
// outcome that must be impossible.

#include "runtime/durable/journal.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/crc.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>
#include <unistd.h>

namespace mcopt::runtime::durable {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mcopt_jnl_" +
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
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

std::vector<std::uint8_t> read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A small mixed-record journal: submissions, a completion, a shed, a
/// snapshot mark. Returns the committed records in append order.
std::vector<Record> build_journal(const std::string& p, std::uint64_t user) {
  auto writer = JournalWriter::create(p, user);
  EXPECT_TRUE(writer.has_value()) << writer.error().message;
  JournalWriter& w = *writer.value();

  std::vector<Record> out;
  auto add = [&](RecordType t, const std::vector<std::uint8_t>& payload) {
    const std::uint64_t seq = w.append(t, payload);
    out.push_back(Record{t, seq, payload});
  };

  for (std::uint64_t i = 1; i <= 4; ++i) {
    SubmissionRecord s;
    s.submission_id = i;
    s.exec_job_id = 100 + i;
    s.tenant = static_cast<std::uint32_t>(1 + i % 2);
    s.verdict = i == 3 ? 7u : 0u;
    s.kind = 0;
    s.priority = 1;
    s.n = 4096 + i;
    s.iterations = 3;
    s.deadline = ~std::uint64_t{0};
    s.arrival = i * 1000;
    add(RecordType::kSubmission, s.encode());
  }
  CompletionRecord c;
  c.submission_id = 1;
  c.served_bytes = 123456;
  c.finish = 99000;
  c.field_crc = 0xDEADBEEF;
  add(RecordType::kCompletion, c.encode());
  ShedRecord sh;
  sh.submission_id = 3;
  sh.reason = 7;
  sh.origin = static_cast<std::uint32_t>(ShedOrigin::kDoor);
  sh.at = 3000;
  add(RecordType::kShed, sh.encode());
  SnapshotMarkRecord m;
  m.snapshot_id = 1;
  m.covered_sequence = 6;
  add(RecordType::kSnapshotMark, m.encode());

  EXPECT_TRUE(w.commit().ok());
  return out;
}

void expect_prefix(const std::vector<Record>& got,
                   const std::vector<Record>& full, const char* what) {
  ASSERT_LE(got.size(), full.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint32_t>(got[i].type),
              static_cast<std::uint32_t>(full[i].type))
        << what << " record " << i;
    EXPECT_EQ(got[i].sequence, full[i].sequence) << what << " record " << i;
    EXPECT_EQ(got[i].payload, full[i].payload) << what << " record " << i;
  }
}

// --- round-trips -----------------------------------------------------------

TEST_F(JournalTest, CommittedRecordsRecoverExactly) {
  const std::string p = path("j.mjnl");
  const std::vector<Record> written = build_journal(p, 42);

  auto rec = recover_journal(p);
  ASSERT_TRUE(rec.has_value()) << rec.error().message;
  EXPECT_EQ(rec.value().user, 42u);
  EXPECT_EQ(rec.value().dropped_bytes, 0u);
  EXPECT_TRUE(rec.value().tail_note.empty());
  EXPECT_FALSE(rec.value().sealed);
  EXPECT_EQ(rec.value().records.size(), written.size());
  expect_prefix(rec.value().records, written, "clean recovery");
  EXPECT_EQ(rec.value().next_sequence, written.size() + 1);
  EXPECT_EQ(rec.value().valid_bytes, fs::file_size(p));
}

TEST_F(JournalTest, SealMarksCleanShutdown) {
  const std::string p = path("j.mjnl");
  (void)build_journal(p, 1);
  {
    auto rec = recover_journal(p);
    ASSERT_TRUE(rec.has_value());
    auto w = JournalWriter::reopen(p, rec.value().valid_bytes,
                                   rec.value().next_sequence);
    ASSERT_TRUE(w.has_value()) << w.error().message;
    ASSERT_TRUE(w.value()->seal().ok());
    EXPECT_TRUE(w.value()->sealed());
  }
  auto rec = recover_journal(p);
  ASSERT_TRUE(rec.has_value());
  EXPECT_TRUE(rec.value().sealed);
  EXPECT_EQ(rec.value().records.back().type, RecordType::kSeal);
}

TEST_F(JournalTest, UncommittedTailIsACrashLoss) {
  // append() without commit() buffers in stdio; the destructor deliberately
  // closes without flushing semantics beyond what stdio forces. Whatever
  // survives must still recover to a clean PREFIX — the contract is that an
  // un-acked record may be lost, never that it may be mangled.
  const std::string p = path("j.mjnl");
  std::vector<Record> written;
  {
    auto writer = JournalWriter::create(p, 9);
    ASSERT_TRUE(writer.has_value());
    SubmissionRecord s;
    s.submission_id = 1;
    const std::uint64_t seq =
        writer.value()->append(RecordType::kSubmission, s.encode());
    written.push_back(Record{RecordType::kSubmission, seq, s.encode()});
    ASSERT_TRUE(writer.value()->commit().ok());
    SubmissionRecord s2;
    s2.submission_id = 2;
    (void)writer.value()->append(RecordType::kSubmission, s2.encode());
    EXPECT_EQ(writer.value()->uncommitted(), 1u);
    // destructor: no commit
  }
  auto rec = recover_journal(p);
  ASSERT_TRUE(rec.has_value()) << rec.error().message;
  ASSERT_GE(rec.value().records.size(), 1u);
  EXPECT_EQ(rec.value().records[0].payload, written[0].payload);
}

TEST_F(JournalTest, MissingFileIsATypedRefusal) {
  auto rec = recover_journal(path("nope.mjnl"));
  ASSERT_FALSE(rec.has_value());
  EXPECT_NE(rec.error().message.find("journal"), std::string::npos);
}

TEST_F(JournalTest, ForeignFileIsATypedRefusal) {
  const std::string p = path("not_a_journal.bin");
  write_file(p, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l', 'd', '!',
                 '!', '!', '!', '!', '!', '!', '!', '!', '!', '!'});
  auto rec = recover_journal(p);
  ASSERT_FALSE(rec.has_value());
}

TEST_F(JournalTest, PayloadDecodersRejectWrongSizes) {
  const std::vector<std::uint8_t> junk(7, 0xAB);
  EXPECT_FALSE(SubmissionRecord::decode(junk).has_value());
  EXPECT_FALSE(CompletionRecord::decode(junk).has_value());
  EXPECT_FALSE(ShedRecord::decode(junk).has_value());
  EXPECT_FALSE(SnapshotMarkRecord::decode(junk).has_value());
  // 64 bytes is the retired v1 layout without the trace context: damage too.
  std::vector<std::uint8_t> v1_submission = SubmissionRecord{}.encode();
  v1_submission.resize(64);
  EXPECT_FALSE(SubmissionRecord::decode(v1_submission).has_value());

  SubmissionRecord s;
  s.submission_id = 77;
  s.arrival = 123;
  auto back = SubmissionRecord::decode(s.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().submission_id, 77u);
  EXPECT_EQ(back.value().arrival, 123u);
}

// --- registry metrics ------------------------------------------------------

TEST_F(JournalTest, WriterAndRecoveryAdvanceRegistryCounters) {
  auto& reg = obs::MetricsRegistry::instance();
  auto& records = reg.counter("mcopt_journal_records_total",
                              "Records appended to the write-ahead job journal");
  auto& commits = reg.counter("mcopt_journal_commits_total",
                              "Journal group commits (the submission ack points)");
  auto& fsyncs = reg.counter("mcopt_journal_fsyncs_total",
                             "fsync calls issued by the journal writer");
  auto& recoveries = reg.counter("mcopt_journal_recoveries_total",
                                 "Journal recovery scans performed");
  auto& replayed = reg.counter("mcopt_journal_replayed_records_total",
                               "Intact records returned by journal recovery");
  auto& torn =
      reg.counter("mcopt_journal_truncated_tails_total",
                  "Recoveries that found and reported a torn/corrupt tail");
  const std::uint64_t records0 = records.value();
  const std::uint64_t commits0 = commits.value();
  const std::uint64_t fsyncs0 = fsyncs.value();
  const std::uint64_t recoveries0 = recoveries.value();
  const std::uint64_t replayed0 = replayed.value();
  const std::uint64_t torn0 = torn.value();

  const std::string p = path("metrics.mjnl");
  const std::vector<Record> written = build_journal(p, 9);  // 7 records
  EXPECT_EQ(records.value() - records0, written.size());
  EXPECT_EQ(commits.value() - commits0, 1u);
  // create() syncs the header, commit() syncs the batch: at least 2.
  EXPECT_GE(fsyncs.value() - fsyncs0, 2u);

  auto rec = recover_journal(p);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(recoveries.value() - recoveries0, 1u);
  EXPECT_EQ(replayed.value() - replayed0, written.size());
  EXPECT_EQ(torn.value() - torn0, 0u);

  // A torn tail is counted as such on the next scan.
  std::vector<std::uint8_t> bytes = read_file(p);
  bytes.resize(bytes.size() - 3);
  write_file(p, bytes);
  ASSERT_TRUE(recover_journal(p).has_value());
  EXPECT_EQ(torn.value() - torn0, 1u);
  EXPECT_EQ(recoveries.value() - recoveries0, 2u);
}

// --- format version (journal v2 trace context) ----------------------------

/// Hand-built journal header with an arbitrary version stamp.
std::vector<std::uint8_t> make_header(std::uint32_t version,
                                      std::uint64_t user) {
  std::vector<std::uint8_t> h;
  wire::put_u32(h, kJournalMagic);
  wire::put_u32(h, version);
  wire::put_u64(h, user);
  wire::put_u32(h, util::crc32c(h.data(), h.size()));
  return h;
}

TEST_F(JournalTest, SubmissionRecordRoundTripsTraceContext) {
  SubmissionRecord s;
  s.submission_id = 11;
  s.trace_id = 0xABCDEF0123456789ull;
  s.parent_span = 0x42;
  const std::vector<std::uint8_t> payload = s.encode();
  EXPECT_EQ(payload.size(), 80u);  // journal v2 layout
  auto back = SubmissionRecord::decode(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().trace_id, 0xABCDEF0123456789ull);
  EXPECT_EQ(back.value().parent_span, 0x42u);
}

TEST_F(JournalTest, CompletionRecordRoundTripsPlanMask) {
  CompletionRecord c;
  c.submission_id = 5;
  c.served_bytes = 4096;
  c.plan_mask = 0b1010u;
  auto back = CompletionRecord::decode(c.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().plan_mask, 0b1010u);
  // A zero word decodes to an empty plan mask (replay charges the
  // unknown-controller cell).
  c.plan_mask = 0;
  back = CompletionRecord::decode(c.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back.value().plan_mask, 0u);
}

TEST_F(JournalTest, VersionsOutsideTheReadRangeAreRefused) {
  for (const std::uint32_t bad :
       {0u, 1u, kJournalVersion + 1, kJournalVersion + 100}) {
    const std::string p = path("v" + std::to_string(bad) + ".mjnl");
    write_file(p, make_header(bad, 1));
    auto rec = recover_journal(p);
    EXPECT_FALSE(rec.has_value()) << "version " << bad << " accepted";
    if (!rec.has_value())
      EXPECT_NE(rec.error().message.find("version"), std::string::npos)
          << rec.error().message;
  }
  // The one supported version still opens.
  const std::string ok = path("ok.mjnl");
  write_file(ok, make_header(kJournalVersion, 1));
  EXPECT_TRUE(recover_journal(ok).has_value());
}

// --- fuzzing: truncation at every offset -----------------------------------

TEST_F(JournalTest, TruncationAtEveryOffsetIsRefusedOrCleanlyTruncated) {
  const std::string p = path("full.mjnl");
  const std::vector<Record> written = build_journal(p, 5);
  const std::vector<std::uint8_t> bytes = read_file(p);
  ASSERT_GT(bytes.size(), kJournalHeaderBytes);

  const std::string tp = path("trunc.mjnl");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(tp, {bytes.begin(), bytes.begin() + len});
    auto rec = recover_journal(tp);
    if (len < kJournalHeaderBytes) {
      EXPECT_FALSE(rec.has_value()) << "short header accepted at " << len;
      continue;
    }
    ASSERT_TRUE(rec.has_value())
        << "valid prefix refused at " << len << ": " << rec.error().message;
    const JournalRecovery& r = rec.value();
    expect_prefix(r.records, written,
                  ("truncate@" + std::to_string(len)).c_str());
    // Accounting must be exact and never silent: every byte is either in
    // the intact prefix or reported dropped.
    EXPECT_EQ(r.valid_bytes + r.dropped_bytes, len) << "at " << len;
    if (r.dropped_bytes > 0)
      EXPECT_FALSE(r.tail_note.empty()) << "silent drop at " << len;
    if (r.records.size() < written.size())
      EXPECT_LT(len, bytes.size());  // only a shorter file may lose records
  }
}

TEST_F(JournalTest, TruncateJournalDropsTheTailOnDisk) {
  const std::string p = path("j.mjnl");
  const std::vector<Record> written = build_journal(p, 5);
  const std::vector<std::uint8_t> bytes = read_file(p);

  // Cut mid-record, recover, physically truncate, re-recover: clean.
  const std::size_t cut = bytes.size() - 3;
  write_file(p, {bytes.begin(), bytes.begin() + cut});
  auto rec = recover_journal(p);
  ASSERT_TRUE(rec.has_value());
  EXPECT_GT(rec.value().dropped_bytes, 0u);
  ASSERT_TRUE(truncate_journal(p, rec.value().valid_bytes).ok());
  EXPECT_EQ(fs::file_size(p), rec.value().valid_bytes);

  auto clean = recover_journal(p);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean.value().dropped_bytes, 0u);
  EXPECT_EQ(clean.value().records.size(), written.size() - 1);
}

// --- fuzzing: a single-bit flip at every bit -------------------------------

TEST_F(JournalTest, SingleBitFlipAtEveryOffsetNeverCorruptsSilently) {
  const std::string p = path("full.mjnl");
  const std::vector<Record> written = build_journal(p, 5);
  const std::vector<std::uint8_t> bytes = read_file(p);

  const std::string fp = path("flip.mjnl");
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mut = bytes;
      mut[byte] = static_cast<std::uint8_t>(mut[byte] ^ (1u << bit));
      write_file(fp, mut);
      auto rec = recover_journal(fp);
      const std::string where =
          "byte " + std::to_string(byte) + " bit " + std::to_string(bit);
      if (byte < kJournalHeaderBytes) {
        // Header damage: the file's identity is in doubt — typed refusal.
        EXPECT_FALSE(rec.has_value()) << "damaged header accepted at " << where;
        continue;
      }
      // Body damage: refusal is never the answer (the header is intact),
      // and whatever is recovered must be a byte-exact prefix with the
      // damage reported — never a silent full parse of altered history.
      ASSERT_TRUE(rec.has_value()) << "refused at " << where << ": "
                                   << rec.error().message;
      const JournalRecovery& r = rec.value();
      expect_prefix(r.records, written, where.c_str());
      EXPECT_LT(r.records.size(), written.size())
          << "flip at " << where << " survived a full parse";
      EXPECT_GT(r.dropped_bytes, 0u) << where;
      EXPECT_FALSE(r.tail_note.empty()) << where;
      EXPECT_EQ(r.valid_bytes + r.dropped_bytes, bytes.size()) << where;
    }
  }
}

// --- idempotent replay (scan level) ----------------------------------------

TEST_F(JournalTest, RecoveryIsIdempotent) {
  // recover_journal is read-only: scanning twice — or scanning, truncating
  // the reported tail, and scanning again — yields the same history.
  const std::string p = path("j.mjnl");
  (void)build_journal(p, 5);
  std::vector<std::uint8_t> bytes = read_file(p);
  bytes.resize(bytes.size() - 5);  // torn tail
  write_file(p, bytes);

  auto first = recover_journal(p);
  auto second = recover_journal(p);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first.value().records.size(), second.value().records.size());
  expect_prefix(first.value().records, second.value().records, "rescan");
  EXPECT_EQ(first.value().valid_bytes, second.value().valid_bytes);
  EXPECT_EQ(first.value().dropped_bytes, second.value().dropped_bytes);

  ASSERT_TRUE(truncate_journal(p, first.value().valid_bytes).ok());
  auto third = recover_journal(p);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third.value().records.size(), first.value().records.size());
  EXPECT_EQ(third.value().dropped_bytes, 0u);
  EXPECT_EQ(third.value().next_sequence, first.value().next_sequence);
}

}  // namespace
}  // namespace mcopt::runtime::durable
