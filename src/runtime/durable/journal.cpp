#include "runtime/durable/journal.h"

#include <cerrno>
#include <cstring>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc.h"

namespace mcopt::runtime::durable {
namespace {

struct JournalMetrics {
  obs::Counter& records;
  obs::Counter& commits;
  obs::Counter& fsyncs;
  obs::Counter& bytes;
  obs::Counter& recoveries;
  obs::Counter& replayed;
  obs::Counter& truncated_tails;
  obs::Counter& truncated_bytes;

  static JournalMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static JournalMetrics m{
        reg.counter("mcopt_journal_records_total",
                    "Records appended to the write-ahead job journal"),
        reg.counter("mcopt_journal_commits_total",
                    "Journal group commits (the submission ack points)"),
        reg.counter("mcopt_journal_fsyncs_total",
                    "fsync calls issued by the journal writer"),
        reg.counter("mcopt_journal_bytes_total",
                    "Bytes appended to the journal"),
        reg.counter("mcopt_journal_recoveries_total",
                    "Journal recovery scans performed"),
        reg.counter("mcopt_journal_replayed_records_total",
                    "Intact records returned by journal recovery"),
        reg.counter("mcopt_journal_truncated_tails_total",
                    "Recoveries that found and reported a torn/corrupt tail"),
        reg.counter("mcopt_journal_truncated_bytes_total",
                    "Torn/corrupt tail bytes dropped by recovery")};
    return m;
  }
};

util::Status errno_failure(const std::string& what, const std::string& path) {
  return util::Status::failure("journal: " + what + " '" + path +
                               "': " + std::strerror(errno));
}

std::vector<std::uint8_t> encode_header(std::uint64_t user) {
  std::vector<std::uint8_t> out;
  out.reserve(kJournalHeaderBytes);
  wire::put_u32(out, kJournalMagic);
  wire::put_u32(out, kJournalVersion);
  wire::put_u64(out, user);
  wire::put_u32(out, util::crc32c(out.data(), out.size()));
  return out;
}

util::Status flush_and_sync(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) return errno_failure("cannot flush", path);
#ifndef _WIN32
  if (fsync(fileno(f)) != 0) return errno_failure("cannot fsync", path);
#endif
  JournalMetrics::get().fsyncs.inc();
  return util::Status{};
}

}  // namespace

// --- typed payloads --------------------------------------------------------

std::vector<std::uint8_t> SubmissionRecord::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(80);
  wire::put_u64(out, submission_id);
  wire::put_u64(out, exec_job_id);
  wire::put_u32(out, tenant);
  wire::put_u32(out, verdict);
  wire::put_u32(out, kind);
  wire::put_u32(out, priority);
  wire::put_u64(out, n);
  wire::put_u64(out, iterations);
  wire::put_u64(out, deadline);
  wire::put_u64(out, arrival);
  wire::put_u64(out, trace_id);
  wire::put_u64(out, parent_span);
  return out;
}

util::Expected<SubmissionRecord> SubmissionRecord::decode(
    const std::vector<std::uint8_t>& p) {
  using Result = util::Expected<SubmissionRecord>;
  // Any other size is damage, refused before a field is read.
  if (p.size() != 80)
    return Result::failure("journal: submission record has " +
                           std::to_string(p.size()) + " bytes, expected 80");
  SubmissionRecord r;
  r.submission_id = wire::get_u64(p.data());
  r.exec_job_id = wire::get_u64(p.data() + 8);
  r.tenant = wire::get_u32(p.data() + 16);
  r.verdict = wire::get_u32(p.data() + 20);
  r.kind = wire::get_u32(p.data() + 24);
  r.priority = wire::get_u32(p.data() + 28);
  r.n = wire::get_u64(p.data() + 32);
  r.iterations = wire::get_u64(p.data() + 40);
  r.deadline = wire::get_u64(p.data() + 48);
  r.arrival = wire::get_u64(p.data() + 56);
  r.trace_id = wire::get_u64(p.data() + 64);
  r.parent_span = wire::get_u64(p.data() + 72);
  return r;
}

std::vector<std::uint8_t> CompletionRecord::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(32);
  wire::put_u64(out, submission_id);
  wire::put_u64(out, served_bytes);
  wire::put_u64(out, finish);
  wire::put_u32(out, field_crc);
  wire::put_u32(out, plan_mask);
  return out;
}

util::Expected<CompletionRecord> CompletionRecord::decode(
    const std::vector<std::uint8_t>& p) {
  using Result = util::Expected<CompletionRecord>;
  if (p.size() != 32)
    return Result::failure("journal: completion record has " +
                           std::to_string(p.size()) + " bytes, expected 32");
  CompletionRecord r;
  r.submission_id = wire::get_u64(p.data());
  r.served_bytes = wire::get_u64(p.data() + 8);
  r.finish = wire::get_u64(p.data() + 16);
  r.field_crc = wire::get_u32(p.data() + 24);
  r.plan_mask = wire::get_u32(p.data() + 28);
  return r;
}

std::vector<std::uint8_t> ShedRecord::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(24);
  wire::put_u64(out, submission_id);
  wire::put_u32(out, reason);
  wire::put_u32(out, origin);
  wire::put_u64(out, at);
  return out;
}

util::Expected<ShedRecord> ShedRecord::decode(
    const std::vector<std::uint8_t>& p) {
  using Result = util::Expected<ShedRecord>;
  if (p.size() != 24)
    return Result::failure("journal: shed record has " +
                           std::to_string(p.size()) + " bytes, expected 24");
  ShedRecord r;
  r.submission_id = wire::get_u64(p.data());
  r.reason = wire::get_u32(p.data() + 8);
  r.origin = wire::get_u32(p.data() + 12);
  r.at = wire::get_u64(p.data() + 16);
  return r;
}

std::vector<std::uint8_t> SnapshotMarkRecord::encode() const {
  std::vector<std::uint8_t> out;
  out.reserve(16);
  wire::put_u64(out, snapshot_id);
  wire::put_u64(out, covered_sequence);
  return out;
}

util::Expected<SnapshotMarkRecord> SnapshotMarkRecord::decode(
    const std::vector<std::uint8_t>& p) {
  using Result = util::Expected<SnapshotMarkRecord>;
  if (p.size() != 16)
    return Result::failure("journal: snapshot-mark record has " +
                           std::to_string(p.size()) + " bytes, expected 16");
  SnapshotMarkRecord r;
  r.snapshot_id = wire::get_u64(p.data());
  r.covered_sequence = wire::get_u64(p.data() + 8);
  return r;
}

// --- writer ----------------------------------------------------------------

JournalWriter::JournalWriter(std::string path, std::FILE* f,
                             std::uint64_t next_sequence)
    : path_(std::move(path)), f_(f), next_sequence_(next_sequence) {}

JournalWriter::~JournalWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

util::Expected<std::unique_ptr<JournalWriter>> JournalWriter::create(
    const std::string& path, std::uint64_t user) {
  using Result = util::Expected<std::unique_ptr<JournalWriter>>;
  // The header is written and made durable under a temporary name, then
  // renamed into place (the save_checkpoint discipline): a crash at any
  // point leaves either no journal (a fresh start; nothing was acked) or a
  // journal with a whole header, never a headerless file that every later
  // open would refuse. The stream stays open across the rename and appends
  // to the published file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    const util::Status s = errno_failure("cannot create", tmp);
    return Result::failure(s.error().message);
  }
  const std::vector<std::uint8_t> header = encode_header(user);
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    const util::Status s = errno_failure("short header write to", tmp);
    return Result::failure(s.error().message);
  }
  if (const util::Status s = flush_and_sync(f, tmp); !s.ok()) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Result::failure(s.error().message);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const util::Status s = errno_failure("cannot rename into", path);
    std::fclose(f);
    std::remove(tmp.c_str());
    return Result::failure(s.error().message);
  }
  JournalMetrics::get().bytes.inc(header.size());
  return std::unique_ptr<JournalWriter>(new JournalWriter(path, f, 1));
}

util::Expected<std::unique_ptr<JournalWriter>> JournalWriter::reopen(
    const std::string& path, std::uint64_t valid_bytes,
    std::uint64_t next_sequence) {
  using Result = util::Expected<std::unique_ptr<JournalWriter>>;
  if (valid_bytes < kJournalHeaderBytes)
    return Result::failure(
        "journal: reopen needs a recovered header (valid_bytes " +
        std::to_string(valid_bytes) + " < " +
        std::to_string(kJournalHeaderBytes) + ")");
  if (const util::Status s = truncate_journal(path, valid_bytes); !s.ok())
    return Result::failure(s.error().message);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    const util::Status s = errno_failure("cannot reopen", path);
    return Result::failure(s.error().message);
  }
  return std::unique_ptr<JournalWriter>(
      new JournalWriter(path, f, next_sequence));
}

std::uint64_t JournalWriter::append(RecordType type,
                                    const std::vector<std::uint8_t>& payload) {
  const std::uint64_t seq = next_sequence_++;
  std::vector<std::uint8_t> frame;
  frame.reserve(kRecordPrefixBytes + payload.size() + kRecordCrcBytes);
  wire::put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  wire::put_u32(frame, static_cast<std::uint32_t>(type));
  wire::put_u64(frame, seq);
  frame.insert(frame.end(), payload.begin(), payload.end());
  wire::put_u32(frame, util::crc32c(frame.data(), frame.size()));
  // Short writes surface at commit() via fflush/ferror; append stays
  // infallible so group commit has one failure point.
  (void)std::fwrite(frame.data(), 1, frame.size(), f_);
  ++uncommitted_;
  JournalMetrics& m = JournalMetrics::get();
  m.records.inc();
  m.bytes.inc(frame.size());
  return seq;
}

util::Status JournalWriter::commit() {
  const obs::TraceSpan span("journal.commit", "journal", uncommitted_, 0);
  if (std::ferror(f_) != 0)
    return util::Status::failure("journal: buffered write failed on '" +
                                 path_ + "'");
  if (const util::Status s = flush_and_sync(f_, path_); !s.ok()) return s;
  uncommitted_ = 0;
  JournalMetrics::get().commits.inc();
  return util::Status{};
}

util::Status JournalWriter::seal() {
  if (sealed_) return util::Status{};
  (void)append(RecordType::kSeal, {});
  const util::Status s = commit();
  if (s.ok()) {
    sealed_ = true;
    obs::trace_instant("journal.seal", "journal", next_sequence_ - 1, 0);
  }
  return s;
}

// --- recovery --------------------------------------------------------------

util::Expected<JournalRecovery> recover_journal(const std::string& path) {
  using Result = util::Expected<JournalRecovery>;
  const obs::TraceSpan span("journal.recover", "journal");
  JournalMetrics& m = JournalMetrics::get();
  m.recoveries.inc();

  auto contents = wire::read_file(path, "journal");
  if (!contents) return Result::failure(contents.error().message);
  const std::vector<std::uint8_t>& bytes = contents.value();

  // Header: any damage here is a refusal, not a truncation — there is no
  // intact prefix to fall back to.
  if (bytes.size() < kJournalHeaderBytes)
    return Result::failure("journal: '" + path + "' is truncated (" +
                           std::to_string(bytes.size()) +
                           " bytes; the header alone is " +
                           std::to_string(kJournalHeaderBytes) + ")");
  const std::uint8_t* p = bytes.data();
  if (wire::get_u32(p) != kJournalMagic)
    return Result::failure("journal: '" + path +
                           "' is not a journal (bad magic)");
  const std::uint32_t version = wire::get_u32(p + 4);
  if (version != kJournalVersion)
    return Result::failure("journal: '" + path + "' has version " +
                           std::to_string(version) + "; this build reads " +
                           std::to_string(kJournalVersion));
  const std::uint32_t stored_crc = wire::get_u32(p + kJournalHeaderBytes - 4);
  const std::uint32_t header_crc = util::crc32c(p, kJournalHeaderBytes - 4);
  if (stored_crc != header_crc)
    return Result::failure("journal: '" + path +
                           "' header CRC mismatch (stored " +
                           std::to_string(stored_crc) + ", computed " +
                           std::to_string(header_crc) + ")");

  JournalRecovery out;
  out.user = wire::get_u64(p + 8);

  std::size_t at = kJournalHeaderBytes;
  std::uint64_t expected_seq = 1;
  const auto stop = [&](const std::string& why) {
    out.valid_bytes = at;
    out.dropped_bytes = bytes.size() - at;
    out.tail_note = why + " at byte " + std::to_string(at) + " (" +
                    std::to_string(out.dropped_bytes) + " tail bytes dropped)";
  };

  while (at < bytes.size()) {
    const std::size_t remaining = bytes.size() - at;
    if (remaining < kRecordPrefixBytes + kRecordCrcBytes) {
      stop("incomplete record frame");
      break;
    }
    const std::uint32_t payload_bytes = wire::get_u32(p + at);
    if (payload_bytes > kMaxPayloadBytes) {
      stop("implausible payload length " + std::to_string(payload_bytes));
      break;
    }
    const std::size_t frame =
        kRecordPrefixBytes + payload_bytes + kRecordCrcBytes;
    if (remaining < frame) {
      stop("record extends past end of file");
      break;
    }
    const std::uint32_t stored = wire::get_u32(p + at + frame - 4);
    const std::uint32_t crc = util::crc32c(p + at, frame - 4);
    if (stored != crc) {
      stop("record CRC mismatch (stored " + std::to_string(stored) +
           ", computed " + std::to_string(crc) + ")");
      break;
    }
    const std::uint32_t type = wire::get_u32(p + at + 4);
    if (type < static_cast<std::uint32_t>(RecordType::kSubmission) ||
        type > static_cast<std::uint32_t>(RecordType::kSeal)) {
      // CRC-valid but unknown: a newer writer's record. Refusing the whole
      // file would lose the intact prefix; stop here and report instead.
      stop("unknown record type " + std::to_string(type));
      break;
    }
    const std::uint64_t seq = wire::get_u64(p + at + 8);
    if (seq != expected_seq) {
      stop("sequence gap (record claims " + std::to_string(seq) +
           ", expected " + std::to_string(expected_seq) + ")");
      break;
    }
    Record rec;
    rec.type = static_cast<RecordType>(type);
    rec.sequence = seq;
    rec.payload.assign(p + at + kRecordPrefixBytes,
                       p + at + kRecordPrefixBytes + payload_bytes);
    out.records.push_back(std::move(rec));
    ++expected_seq;
    at += frame;
  }
  if (out.tail_note.empty()) out.valid_bytes = bytes.size();
  out.next_sequence = expected_seq;
  out.sealed =
      !out.records.empty() && out.records.back().type == RecordType::kSeal;

  m.replayed.inc(out.records.size());
  if (out.dropped_bytes > 0) {
    m.truncated_tails.inc();
    m.truncated_bytes.inc(out.dropped_bytes);
    obs::trace_instant("journal.truncate", "journal", out.valid_bytes,
                       out.dropped_bytes);
  }
  return out;
}

util::Status truncate_journal(const std::string& path,
                              std::uint64_t valid_bytes) {
#ifndef _WIN32
  if (truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0)
    return errno_failure("cannot truncate", path);
  return util::Status{};
#else
  (void)path;
  (void)valid_bytes;
  return util::Status::failure("journal: truncate unsupported on this platform");
#endif
}

}  // namespace mcopt::runtime::durable
