#pragma once
// Persistent submission API over runtime::Service — the durable service
// runtime.
//
// A ServiceHandle owns a Service, a write-ahead journal and a periodic
// state snapshot, and stitches them into a process-lifetime-crossing
// contract:
//
//   submit(tenant, submission_id, spec)  -> journaled door verdict
//   flush()                              -> group commit: everything
//                                           submitted so far is ACKED —
//                                           a crash at any later instant
//                                           cannot lose it
//   pump()                               -> journal executor outcomes
//                                           (completions, typed sheds)
//   checkpoint()                         -> quiesced-instant state snapshot
//   drain()                              -> quiesce: stop admitting, drain
//                                           or (watchdog escalation) shed
//                                           the backlog, snapshot, seal
//
// ## Crash-consistent restart
//
// open() on a directory with history replays it idempotently:
//
//   1. the state snapshot (CRC-guarded; torn writes impossible by atomic
//      rename) restores the door, the executor's virtual clocks, the
//      per-tenant ledgers and the bandwidth-attribution ledger;
//   2. journal records covered by the snapshot are skipped; records after
//      it are REPLAYED: every submission is re-presented to the restored
//      door, which reproduces the original verdict bit-identically (all
//      door arithmetic is deterministic in state + order — a divergence is
//      a config mismatch and refuses the restart);
//   3. submissions whose completion is journaled are NOT re-executed —
//      their ledger credit comes from the record; journaled sheds are
//      final history; accepted submissions with no journaled outcome (in
//      flight at the crash) are re-forwarded to the executor and run;
//   4. a torn/corrupt journal tail is truncated and REPORTED in
//      RecoveryInfo (never silently accepted); a file that is not a
//      journal, or a corrupt snapshot, is a typed refusal.
//
// Duplicate submissions — a client retrying an id it never saw acked —
// dedupe by submission id: ids with in-memory outcomes return them; ids at
// or below the snapshot watermark are acknowledged history. Submission ids
// should be dense and monotonically increasing per instance (the natural
// shape for a resumable generator).
//
// ## Quiesce triggers
//
// install_quiesce_signal_handler() latches SIGTERM into a flag the serving
// loop polls (quiesce_requested()) before calling drain(). drain() itself
// carries the watchdog-escalation path: a backlog that does not empty
// within drain_budget_ms is shed (typed kShutdown records) rather than
// wedging the shutdown.
//
// ## Threading
//
// One logical caller (the serving loop) drives the handle; an internal
// mutex makes the API safe against incidental cross-thread use, but the
// intended shape is single-driver, mirroring the soak harnesses.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/slo.h"
#include "runtime/durable/journal.h"
#include "runtime/durable/state.h"
#include "runtime/service/service.h"

namespace mcopt::runtime::durable {

struct DurableConfig {
  /// Directory holding journal + snapshot (created if missing).
  std::string dir;
  service::ServiceConfig service{};
  /// Tenants registered at open(), in order (ids 1..n). A restart must pass
  /// the same set — the door snapshot is positional.
  std::vector<service::TenantConfig> tenants;
  /// Instance word stamped into the journal header (e.g. the run seed).
  std::uint64_t instance = 0;
  /// drain(): wall-clock budget for the backlog to empty before the
  /// watchdog escalates to shedding it. 0 = wait indefinitely.
  unsigned drain_budget_ms = 0;
  /// SLO error-budget monitor thresholds (see obs/slo.h). Every journaled
  /// outcome — live or replayed — feeds the handle's monitor on the virtual
  /// service timeline, so burn rates reproduce across restarts.
  obs::SloBurnConfig slo{};

  [[nodiscard]] util::Status check() const;

  [[nodiscard]] std::string journal_path() const { return dir + "/journal.mjnl"; }
  [[nodiscard]] std::string state_path() const { return dir + "/state.mcpt"; }
};

/// Lifecycle of one submission id as the handle knows it.
enum class SubmissionState : unsigned {
  kUnknown = 0,        ///< never seen (and above the ack watermark)
  kPending,            ///< forwarded, outcome not yet journaled
  kCompleted,
  kShed,               ///< typed loss (door or executor)
  kAckedHistory,       ///< at/below the snapshot watermark: acknowledged,
                       ///< details compacted away
};

/// Result of submit().
struct SubmitAck {
  std::uint64_t submission_id = 0;
  bool accepted = false;   ///< door verdict (false for duplicates of sheds)
  bool duplicate = false;  ///< deduped — no door state was touched
  std::uint64_t exec_id = 0;
  exec::ShedReason rejected = exec::ShedReason::kNone;
};

struct PollResult {
  SubmissionState state = SubmissionState::kUnknown;
  bool acked = false;  ///< covered by a journal commit
  std::uint64_t served_bytes = 0;
  std::uint32_t field_crc = 0;
  exec::ShedReason reason = exec::ShedReason::kNone;
};

/// What open() found and did.
struct RecoveryInfo {
  bool restarted = false;        ///< a journal existed
  bool snapshot_loaded = false;
  bool was_sealed = false;       ///< previous life shut down cleanly
  std::uint64_t journal_records = 0;
  std::uint64_t replayed_submissions = 0;
  std::uint64_t resubmitted = 0;        ///< re-forwarded (in flight at crash)
  std::uint64_t completed_skipped = 0;  ///< journaled completions not re-run
  std::uint64_t sheds_replayed = 0;
  std::uint64_t dropped_bytes = 0;      ///< torn tail truncated
  std::string tail_note;                ///< why, when dropped_bytes > 0
};

/// Outcome of drain().
struct DrainReport {
  bool escalated = false;       ///< watchdog shed the backlog
  std::uint64_t shed_on_drain = 0;
};

class ServiceHandle {
 public:
  /// Opens (or creates) the durable service in cfg.dir. See the file
  /// comment for the restart semantics.
  [[nodiscard]] static util::Expected<std::unique_ptr<ServiceHandle>> open(
      DurableConfig cfg);

  /// Closes WITHOUT draining or committing — exiting without drain() is
  /// deliberately crash-equivalent.
  ~ServiceHandle();
  ServiceHandle(const ServiceHandle&) = delete;
  ServiceHandle& operator=(const ServiceHandle&) = delete;

  /// Journaled submission. NOT durable until the next flush(); the caller
  /// must not acknowledge the submission upstream before flush() returns.
  SubmitAck submit(service::TenantId tenant, std::uint64_t submission_id,
                   exec::JobSpec spec);

  /// Group commit: makes every journal record appended so far durable.
  /// The ack point.
  [[nodiscard]] util::Status flush();

  /// Journals executor outcomes (completions / typed sheds) that finalized
  /// since the last pump. Returns records appended (durable at next flush).
  std::size_t pump();

  /// Waits for the executor to quiesce (queue empty, every forwarded job's
  /// outcome journaled), then publishes a state snapshot: journal commit ->
  /// atomic snapshot write -> snapshot mark -> commit.
  [[nodiscard]] util::Status checkpoint();

  /// Quiesce/drain: stop admitting, let the backlog finish (or shed it
  /// after drain_budget_ms — the watchdog escalation), journal every
  /// outcome, snapshot, seal. The handle stops accepting submissions.
  [[nodiscard]] util::Status drain(DrainReport* report = nullptr);

  [[nodiscard]] PollResult poll(std::uint64_t submission_id) const;

  [[nodiscard]] service::Service& service() noexcept { return *service_; }
  [[nodiscard]] const service::Service& service() const noexcept {
    return *service_;
  }
  [[nodiscard]] std::vector<TenantLedger> ledger() const;
  /// The handle's SLO burn monitor (fed by every journaled outcome); the
  /// serving loop drains typed alerts from it between batches.
  [[nodiscard]] obs::SloMonitor& slo_monitor() noexcept { return slo_; }
  [[nodiscard]] const obs::SloMonitor& slo_monitor() const noexcept {
    return slo_;
  }
  [[nodiscard]] const RecoveryInfo& recovery_info() const noexcept {
    return recovery_;
  }
  [[nodiscard]] bool draining() const noexcept { return draining_; }
  /// Largest submission id ever journaled (snapshot watermark included).
  [[nodiscard]] std::uint64_t max_submission_id() const;

  /// Latches SIGTERM into the quiesce flag (serving loops poll
  /// quiesce_requested() and call drain()).
  static void install_quiesce_signal_handler();
  [[nodiscard]] static bool quiesce_requested() noexcept;
  static void clear_quiesce_request() noexcept;

 private:
  /// In-memory view of one submission this incarnation knows in detail.
  struct Sub {
    SubmissionRecord rec;
    bool acked = false;
    bool outcome_known = false;
    bool completed = false;
    CompletionRecord comp;
    ShedRecord shed;
  };

  ServiceHandle(DurableConfig cfg, std::unique_ptr<service::Service> svc);

  [[nodiscard]] util::Status replay_locked(const JournalRecovery& rec,
                                           std::uint64_t covered_sequence);
  std::size_t pump_locked();
  void feed_slo_locked(std::uint32_t tenant, bool missed, std::uint64_t at);
  /// `compact` drops finished, acked entries below the new watermark — on
  /// for live checkpoints (bounded memory), off for drain (final outcomes
  /// stay pollable).
  [[nodiscard]] util::Status publish_snapshot_locked(bool compact);
  void wait_quiesced_locked();
  void apply_outcome_locked(Sub& sub, const exec::JobReport& report);

  DurableConfig cfg_;
  std::unique_ptr<service::Service> service_;

  mutable std::mutex mu_;
  std::unique_ptr<JournalWriter> writer_;
  std::map<std::uint64_t, Sub> subs_;
  std::map<std::uint64_t, std::uint64_t> exec_to_sub_;
  std::vector<std::uint64_t> unacked_;
  std::vector<TenantLedger> ledger_;
  std::size_t reports_seen_ = 0;  ///< executor reports consumed by pump()
  std::uint64_t acked_watermark_ = 0;   ///< snapshot's max_submission_id
  std::uint64_t max_submission_id_ = 0;
  std::uint64_t snapshot_id_ = 0;
  bool draining_ = false;
  RecoveryInfo recovery_;
  obs::SloMonitor slo_;
};

}  // namespace mcopt::runtime::durable
