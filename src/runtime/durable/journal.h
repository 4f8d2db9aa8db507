#pragma once
// Write-ahead job journal — the durability spine of the service runtime.
//
// The journal is an append-only file of CRC32C-framed records describing
// everything that crossed the service door: submissions (with the door's
// verdict), completions, typed sheds, snapshot marks and a seal. The
// contract is write -> fsync -> ack: JournalWriter::append() buffers, and
// only commit() (fflush + fsync) makes the records durable — a caller must
// not acknowledge a submission to its client before commit() returns, and
// then a crash at ANY instant loses no acknowledged submission. Batching
// many append()s under one commit() (group commit) is what keeps the
// steady-state overhead in the low single digits.
//
// Layout (all integers little-endian, same-machine restart artifact like
// runtime/checkpoint.h, not portable interchange):
//
//   header:  u32 magic 'MJNL'  u32 version  u64 user  u32 header_crc
//   record:  u32 payload_bytes  u32 type  u64 sequence
//            payload_bytes of payload
//            u32 crc   (CRC32C of the frame: prefix + payload)
//   ... records ...
//
// Recovery (recover_journal) distinguishes two failure shapes, and the
// distinction is the whole point:
//
//   * a file that is not a journal — missing, unreadable, wrong magic or
//     version, damaged header — is a TYPED REFUSAL (Expected failure):
//     restarting against it would silently fake an empty history;
//   * a valid journal whose tail is torn or bit-flipped (the crash landed
//     mid-write) is recovered up to the last intact record; the damaged
//     tail's length and reason are REPORTED in JournalRecovery, never
//     silently accepted. truncate_journal() then drops the tail on disk so
//     a writer can resume appending.
//
// Record payloads for the service runtime (SubmissionRecord etc.) live here
// too, with encode/decode helpers; runtime/durable/service_handle.h owns
// the replay state machine that interprets them.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/expected.h"
#include "util/wire.h"

namespace mcopt::runtime::durable {

inline constexpr std::uint32_t kJournalMagic = 0x4C4E4A4Du;  // "MJNL"
/// The version this build writes, and the only one recovery reads. v2
/// extended SubmissionRecord with the 64-bit trace context (trace_id,
/// parent_span) and reused CompletionRecord's spare word as the plan-set
/// controller mask for attribution replay.
inline constexpr std::uint32_t kJournalVersion = 2;
/// magic + version + user + header CRC.
inline constexpr std::size_t kJournalHeaderBytes = 4 + 4 + 8 + 4;  // 20
/// Record frame prefix (payload_bytes + type + sequence) before the payload.
inline constexpr std::size_t kRecordPrefixBytes = 4 + 4 + 8;  // 16
inline constexpr std::size_t kRecordCrcBytes = 4;
/// Upper bound on a record payload. A length prefix above this is damage
/// (a bit flip in the length field must not make recovery try to read
/// gigabytes before the CRC can refute it).
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;

enum class RecordType : std::uint32_t {
  kSubmission = 1,    ///< a job crossed the door (verdict included)
  kCompletion = 2,    ///< the executor finished a forwarded job
  kShed = 3,          ///< typed loss: door rejection or executor shed
  kSnapshotMark = 4,  ///< a state snapshot covering a journal prefix exists
  kSeal = 5,          ///< clean shutdown: the journal ends here on purpose
};

[[nodiscard]] constexpr const char* to_string(RecordType t) noexcept {
  switch (t) {
    case RecordType::kSubmission: return "submission";
    case RecordType::kCompletion: return "completion";
    case RecordType::kShed: return "shed";
    case RecordType::kSnapshotMark: return "snapshot-mark";
    case RecordType::kSeal: return "seal";
  }
  return "?";
}

/// One recovered record.
struct Record {
  RecordType type = RecordType::kSeal;
  std::uint64_t sequence = 0;
  std::vector<std::uint8_t> payload;
};

// The little-endian codec of every record and of the state image.
namespace wire = util::wire;

// --- typed record payloads -------------------------------------------------

/// Every job presented at the door, with the door's verdict. 80 bytes.
struct SubmissionRecord {
  std::uint64_t submission_id = 0;  ///< caller-chosen dedup key
  std::uint64_t exec_job_id = 0;    ///< executor id in the writing process; 0 if never forwarded
  std::uint32_t tenant = 0;
  std::uint32_t verdict = 0;  ///< 0 = door accepted; else exec::ShedReason
  std::uint32_t kind = 0;     ///< exec::JobKind
  std::uint32_t priority = 0; ///< exec::Priority as submitted (pre-SLO)
  std::uint64_t n = 0;
  std::uint64_t iterations = 0;
  std::uint64_t deadline = 0;  ///< as submitted (exec::kNoDeadline = none)
  std::uint64_t arrival = 0;
  /// Causal trace context allocated at the service door. Journaling it is
  /// what lets a post-restart replay emit flow events with the SAME id the
  /// pre-kill submit span carried, stitching the job's causal chain across
  /// the SIGKILL in the exported Chrome trace.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static util::Expected<SubmissionRecord> decode(
      const std::vector<std::uint8_t>& payload);
};

/// A forwarded job the executor completed. 32 bytes.
struct CompletionRecord {
  std::uint64_t submission_id = 0;
  std::uint64_t served_bytes = 0;  ///< quote bytes credited to the tenant ledger
  std::uint64_t finish = 0;        ///< virtual-cycle finish stamp
  std::uint32_t field_crc = 0;     ///< kernel field CRC (bit-identity witness)
  /// Plan-set controller bitmask (bit i = controller i), so a replayed
  /// completion re-credits the attribution ledger to the same controllers
  /// the live run charged. A zero mask charges the unknown-controller cell
  /// instead; per-tenant totals stay exact.
  std::uint32_t plan_mask = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static util::Expected<CompletionRecord> decode(
      const std::vector<std::uint8_t>& payload);
};

/// Where a shed happened — determines replay semantics (a door rejection
/// replays deterministically; an executor outcome is final history).
enum class ShedOrigin : std::uint32_t {
  kDoor = 0,          ///< rejected at the service door (never forwarded)
  kExecutorReject = 1,///< executor admission rejection at submit time
  kExecutorShed = 2,  ///< accepted, then shed (queue expiry, shutdown, ...)
};

/// Typed loss record. 24 bytes.
struct ShedRecord {
  std::uint64_t submission_id = 0;
  std::uint32_t reason = 0;  ///< exec::ShedReason
  std::uint32_t origin = 0;  ///< ShedOrigin
  std::uint64_t at = 0;      ///< virtual cycle of the verdict

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static util::Expected<ShedRecord> decode(
      const std::vector<std::uint8_t>& payload);
};

/// Marks that a state snapshot covering sequences <= covered_sequence was
/// durably published (written, fsync'd, renamed) before this record. 16 bytes.
struct SnapshotMarkRecord {
  std::uint64_t snapshot_id = 0;
  std::uint64_t covered_sequence = 0;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static util::Expected<SnapshotMarkRecord> decode(
      const std::vector<std::uint8_t>& payload);
};

// --- writer ----------------------------------------------------------------

/// Append-side of the journal. Not thread-safe (the service handle owns one
/// and serializes access). The destructor closes WITHOUT committing —
/// durability is explicit, and an exit without commit() is equivalent to a
/// crash at the same point, which is exactly what the recovery tests rely on.
class JournalWriter {
 public:
  /// Creates a fresh journal at `path` (replacing any existing file) and
  /// makes the header durable before returning. The header is fsynced under
  /// `path + ".tmp"` and renamed into place, so a crash inside create()
  /// leaves no journal or a whole header, never a truncated one; a leftover
  /// temp file is overwritten by the next create().
  [[nodiscard]] static util::Expected<std::unique_ptr<JournalWriter>> create(
      const std::string& path, std::uint64_t user);

  /// Reopens a recovered journal for appending. `valid_bytes` and
  /// `next_sequence` come from JournalRecovery; the file is truncated to
  /// `valid_bytes` first, dropping any torn tail recovery reported.
  [[nodiscard]] static util::Expected<std::unique_ptr<JournalWriter>> reopen(
      const std::string& path, std::uint64_t valid_bytes,
      std::uint64_t next_sequence);

  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Buffers one record; returns its sequence number. Not durable until
  /// commit().
  std::uint64_t append(RecordType type,
                       const std::vector<std::uint8_t>& payload);

  /// Makes every appended record durable (fflush + fsync) — the ack point.
  /// One commit per submission batch is the intended cadence (group commit).
  [[nodiscard]] util::Status commit();

  /// Appends a seal record and commits: a recovered journal ending in a
  /// seal is a clean shutdown, anything else is a crash.
  [[nodiscard]] util::Status seal();

  [[nodiscard]] std::uint64_t next_sequence() const noexcept {
    return next_sequence_;
  }
  /// Records appended but not yet covered by a commit().
  [[nodiscard]] std::uint64_t uncommitted() const noexcept {
    return uncommitted_;
  }
  [[nodiscard]] bool sealed() const noexcept { return sealed_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  JournalWriter(std::string path, std::FILE* f, std::uint64_t next_sequence);

  std::string path_;
  std::FILE* f_ = nullptr;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t uncommitted_ = 0;
  bool sealed_ = false;
};

// --- recovery --------------------------------------------------------------

/// Result of scanning a journal file.
struct JournalRecovery {
  std::uint64_t user = 0;        ///< header user word
  std::vector<Record> records;   ///< intact records, in append order
  std::uint64_t valid_bytes = 0; ///< byte length of the intact prefix
  std::uint64_t dropped_bytes = 0;  ///< torn/corrupt tail length (0 = clean)
  bool sealed = false;           ///< last record is a seal (clean shutdown)
  /// Why the scan stopped before end-of-file (empty when the tail is clean).
  /// Never silent: a nonzero dropped_bytes always carries a reason here.
  std::string tail_note;
  std::uint64_t next_sequence = 1;  ///< first unused sequence number
};

/// Scans and validates `path`. Typed refusal (failure) when the file is not
/// a readable journal: missing, unreadable, short/damaged header, wrong
/// magic or version. A damaged TAIL is not a refusal — the intact prefix is
/// returned with dropped_bytes/tail_note describing the damage.
[[nodiscard]] util::Expected<JournalRecovery> recover_journal(
    const std::string& path);

/// Physically truncates `path` to `valid_bytes` (drops a torn tail so a
/// writer can resume). No-op when the file is already that short.
[[nodiscard]] util::Status truncate_journal(const std::string& path,
                                            std::uint64_t valid_bytes);

}  // namespace mcopt::runtime::durable
