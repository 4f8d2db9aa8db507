#include "runtime/durable/service_handle.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>
#include <utility>

#ifndef _WIN32
#include <sys/stat.h>
#include <sys/types.h>
#endif

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"

namespace mcopt::runtime::durable {
namespace {

struct DurableMetrics {
  obs::Counter& restarts;
  obs::Counter& replayed;
  obs::Counter& resubmitted;
  obs::Counter& completed_skipped;
  obs::Counter& deduped;
  obs::Counter& snapshots;
  obs::Counter& drains;
  obs::Counter& drain_escalations;

  static DurableMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static DurableMetrics m{
        reg.counter("mcopt_durable_restarts_total",
                    "ServiceHandle opens that found prior history"),
        reg.counter("mcopt_durable_replayed_submissions_total",
                    "Journaled submissions re-presented to the door"),
        reg.counter("mcopt_durable_resubmitted_total",
                    "Replayed submissions re-forwarded to the executor "
                    "(in flight at the crash)"),
        reg.counter("mcopt_durable_completed_skipped_total",
                    "Replayed submissions NOT re-run (completion journaled)"),
        reg.counter("mcopt_durable_deduped_total",
                    "Duplicate submissions resolved by id"),
        reg.counter("mcopt_durable_snapshots_total",
                    "Durable state snapshots published"),
        reg.counter("mcopt_durable_drains_total", "Quiesce/drain sequences"),
        reg.counter("mcopt_durable_drain_escalations_total",
                    "Drains where the watchdog shed the backlog")};
    return m;
  }
};

std::atomic<bool> g_quiesce{false};

void on_quiesce_signal(int) { g_quiesce.store(true, std::memory_order_relaxed); }

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

constexpr std::uint32_t kDoorVerdict =
    static_cast<std::uint32_t>(exec::ShedReason::kTenantThrottled);

}  // namespace

util::Status DurableConfig::check() const {
  util::Status s;
  if (dir.empty()) s.note("DurableConfig: dir must be set");
  if (tenants.empty()) s.note("DurableConfig: at least one tenant required");
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    if (tenants[i].name.empty())
      s.note("DurableConfig: tenant " + std::to_string(i + 1) +
             " has an empty name");
    if (!(tenants[i].weight > 0.0))
      s.note("DurableConfig: tenant " + std::to_string(i + 1) +
             " weight must be > 0");
  }
  s.merge(slo.check());
  return s;
}

ServiceHandle::ServiceHandle(DurableConfig cfg,
                             std::unique_ptr<service::Service> svc)
    : cfg_(std::move(cfg)), service_(std::move(svc)), slo_(cfg_.slo) {}

void ServiceHandle::feed_slo_locked(std::uint32_t tenant, bool missed,
                                    std::uint64_t at) {
  slo_.record(tenant,
              static_cast<std::uint32_t>(cfg_.tenants[tenant - 1].slo), missed,
              at);
}

ServiceHandle::~ServiceHandle() = default;

util::Expected<std::unique_ptr<ServiceHandle>> ServiceHandle::open(
    DurableConfig cfg) {
  using Result = util::Expected<std::unique_ptr<ServiceHandle>>;
  if (const util::Status s = cfg.check(); !s.ok())
    return Result::failure(s.error().message);
#ifndef _WIN32
  (void)::mkdir(cfg.dir.c_str(), 0755);  // EEXIST is the common case
#endif

  auto svc = std::make_unique<service::Service>(cfg.service);
  for (const service::TenantConfig& tc : cfg.tenants)
    (void)svc->register_tenant(tc);

  const std::string journal_path = cfg.journal_path();
  const std::string state_path = cfg.state_path();
  const bool had_journal = file_exists(journal_path);

  std::unique_ptr<ServiceHandle> handle(
      new ServiceHandle(std::move(cfg), std::move(svc)));
  handle->ledger_.assign(handle->cfg_.tenants.size(), TenantLedger{});

  if (!had_journal) {
    // Fresh instance. A lingering snapshot without a journal would mean a
    // deleted/lost journal — starting "fresh" over it would silently fork
    // history, so refuse.
    if (file_exists(state_path))
      return Result::failure(
          "durable: '" + state_path +
          "' exists but the journal is missing — refusing to start a fresh "
          "instance over prior state");
    auto writer =
        JournalWriter::create(journal_path, handle->cfg_.instance);
    if (!writer) return Result::failure(writer.error().message);
    handle->writer_ = std::move(writer.value());
    return Result(std::move(handle));
  }

  // Restart path.
  DurableMetrics::get().restarts.inc();
  const obs::TraceSpan span("journal.replay", "journal");
  auto recovered = recover_journal(journal_path);
  if (!recovered) return Result::failure(recovered.error().message);
  JournalRecovery& rec = recovered.value();

  RecoveryInfo& info = handle->recovery_;
  info.restarted = true;
  info.was_sealed = rec.sealed;
  info.journal_records = rec.records.size();
  info.dropped_bytes = rec.dropped_bytes;
  info.tail_note = rec.tail_note;
  if (rec.dropped_bytes > 0)
    util::log_warn("durable: journal tail damaged — " + rec.tail_note);

  std::uint64_t covered = 0;
  if (file_exists(state_path)) {
    // Present but unloadable is a protocol failure (typed refusal), exactly
    // like the checkpoint chaos contract: the snapshot is written atomically,
    // so damage here is disk corruption, not a crash artifact.
    auto image = load_state(state_path);
    if (!image) return Result::failure(image.error().message);
    StateImage& im = image.value();
    if (const util::Status s = handle->service_->restore_door(im.door);
        !s.ok())
      return Result::failure(s.error().message);
    handle->service_->executor().restore_virtual_clocks(im.clocks);
    if (im.ledger.size() != handle->ledger_.size())
      return Result::failure("durable: snapshot ledger covers " +
                             std::to_string(im.ledger.size()) +
                             " tenants, config has " +
                             std::to_string(handle->ledger_.size()));
    handle->ledger_ = im.ledger;
    handle->acked_watermark_ = im.max_submission_id;
    handle->max_submission_id_ = im.max_submission_id;
    handle->snapshot_id_ = im.snapshot_id;
    covered = im.covered_sequence;
    info.snapshot_loaded = true;
    if (im.has_attribution) {
      if (const util::Status s =
              obs::Attribution::instance().restore(im.attribution);
          !s.ok())
        return Result::failure(s.error().message);
    }
  }

  if (const util::Status s = handle->replay_locked(rec, covered); !s.ok())
    return Result::failure(s.error().message);

  auto writer =
      JournalWriter::reopen(journal_path, rec.valid_bytes, rec.next_sequence);
  if (!writer) return Result::failure(writer.error().message);
  handle->writer_ = std::move(writer.value());
  return Result(std::move(handle));
}

util::Status ServiceHandle::replay_locked(const JournalRecovery& rec,
                                          std::uint64_t covered_sequence) {
  DurableMetrics& m = DurableMetrics::get();
  RecoveryInfo& info = recovery_;

  // Pass 1: index post-snapshot outcomes by submission id.
  std::map<std::uint64_t, CompletionRecord> completions;
  std::map<std::uint64_t, ShedRecord> sheds;
  for (const Record& r : rec.records) {
    if (r.sequence <= covered_sequence) continue;
    if (r.type == RecordType::kCompletion) {
      auto c = CompletionRecord::decode(r.payload);
      if (!c) return util::Status::failure(c.error().message);
      completions.emplace(c.value().submission_id, c.value());
    } else if (r.type == RecordType::kShed) {
      auto s = ShedRecord::decode(r.payload);
      if (!s) return util::Status::failure(s.error().message);
      sheds.emplace(s.value().submission_id, s.value());
    }
  }

  // Pass 2: re-present submissions to the restored door, in journal order.
  // Re-forwarded jobs go in under a dequeue hold so the replay batch's
  // reservation order is atomic, like the original lockstep submission.
  service_->executor().hold_dequeue();
  util::Status failure;
  for (const Record& r : rec.records) {
    if (r.sequence <= covered_sequence) continue;
    if (r.type != RecordType::kSubmission) continue;
    auto decoded = SubmissionRecord::decode(r.payload);
    if (!decoded) {
      failure = util::Status::failure(decoded.error().message);
      break;
    }
    const SubmissionRecord& sr = decoded.value();
    if (sr.tenant == 0 || sr.tenant > cfg_.tenants.size()) {
      failure = util::Status::failure(
          "durable: journal submission " + std::to_string(sr.submission_id) +
          " names tenant " + std::to_string(sr.tenant) + " but only " +
          std::to_string(cfg_.tenants.size()) +
          " tenants are configured — journal belongs to a different service");
      break;
    }
    max_submission_id_ = std::max(max_submission_id_, sr.submission_id);
    ++info.replayed_submissions;
    m.replayed.inc();

    exec::JobSpec spec;
    spec.kind = static_cast<exec::JobKind>(sr.kind);
    spec.n = static_cast<std::size_t>(sr.n);
    spec.iterations = static_cast<unsigned>(sr.iterations);
    spec.priority = static_cast<exec::Priority>(sr.priority);
    spec.deadline = sr.deadline;
    spec.arrival = sr.arrival;
    // The journaled trace context is what stitches the chain across the
    // kill: post-restart events carry the SAME flow id the pre-kill submit
    // span started (a zero context starts no flow).
    spec.trace_id = sr.trace_id;
    spec.parent_span = sr.parent_span;
    if (sr.trace_id != 0)
      obs::trace_flow_step("job.flow.replay", "causal", sr.trace_id,
                           sr.submission_id);

    const auto comp = completions.find(sr.submission_id);
    const auto shed = sheds.find(sr.submission_id);
    const bool has_outcome = comp != completions.end() || shed != sheds.end();
    const bool forward = sr.verdict == 0 && !has_outcome;

    const exec::SubmitResult res =
        service_->submit_replay(sr.tenant, spec, forward);
    const bool door_accepted =
        res.accepted || res.rejected != exec::ShedReason::kTenantThrottled;
    if (door_accepted != (sr.verdict == 0)) {
      failure = util::Status::failure(
          "durable: replay diverged at submission " +
          std::to_string(sr.submission_id) + " (journal verdict " +
          std::to_string(sr.verdict) + ", door " +
          (door_accepted ? "accepted" : "rejected") +
          ") — tenant configuration does not match the journal's writer");
      break;
    }

    Sub sub;
    sub.rec = sr;
    sub.acked = true;  // it is in the recovered journal — durable by definition
    TenantLedger& led = ledger_[sr.tenant - 1];
    if (sr.verdict != 0) {
      // Door rejection: final history.
      sub.outcome_known = true;
      if (shed != sheds.end()) sub.shed = shed->second;
      ++led.sheds;
      feed_slo_locked(sr.tenant, /*missed=*/true, sr.arrival);
      ++info.sheds_replayed;
    } else if (comp != completions.end()) {
      // Completed before the crash: credit the ledger, do NOT re-run. The
      // attribution re-charge uses the journaled plan mask, so the bytes
      // land on the same controllers the live run charged (a zero mask
      // charges the unknown-controller cell — totals stay exact).
      sub.outcome_known = true;
      sub.completed = true;
      sub.comp = comp->second;
      service_->credit_replayed_accept(sr.tenant);
      ++led.completed;
      led.served_bytes += sub.comp.served_bytes;
      obs::Attribution::instance().charge_mask(sr.tenant, sub.comp.plan_mask,
                                               obs::Charge::kServed, 0,
                                               sub.comp.served_bytes);
      feed_slo_locked(sr.tenant,
                      sr.deadline != exec::kNoDeadline &&
                          sub.comp.finish > sr.deadline,
                      sub.comp.finish);
      if (sr.trace_id != 0)
        obs::trace_flow_end("job.flow.replayed-complete", "causal",
                            sr.trace_id, sr.submission_id);
      ++info.completed_skipped;
      m.completed_skipped.inc();
    } else if (shed != sheds.end()) {
      // Shed before the crash: final history, do NOT retry.
      sub.outcome_known = true;
      sub.shed = shed->second;
      if (sub.shed.origin ==
          static_cast<std::uint32_t>(ShedOrigin::kExecutorShed))
        service_->credit_replayed_accept(sr.tenant);
      ++led.sheds;
      obs::Attribution::instance().charge(sr.tenant, -1, obs::Charge::kShed,
                                          sub.shed.reason, 0);
      feed_slo_locked(sr.tenant, /*missed=*/true, sub.shed.at);
      if (sr.trace_id != 0)
        obs::trace_flow_end("job.flow.replayed-shed", "causal", sr.trace_id,
                            sr.submission_id);
      ++info.sheds_replayed;
    } else {
      // Accepted, in flight at the crash: re-forwarded just now.
      if (res.accepted) {
        sub.rec.exec_job_id = res.id;  // this incarnation's id, not the old one
        exec_to_sub_[res.id] = sr.submission_id;
        ++info.resubmitted;
        m.resubmitted.inc();
      } else {
        // The executor refused it on replay (e.g. shutdown race). Typed,
        // never silent: journaled as a shed once the writer reopens — here
        // we only record it in memory; pump() paths won't see a report for
        // an id we never mapped.
        sub.outcome_known = true;
        sub.shed.submission_id = sr.submission_id;
        sub.shed.reason = static_cast<std::uint32_t>(res.rejected);
        sub.shed.origin =
            static_cast<std::uint32_t>(ShedOrigin::kExecutorReject);
        ++led.sheds;
        obs::Attribution::instance().charge(
            sr.tenant, -1, obs::Charge::kShed,
            static_cast<std::uint32_t>(res.rejected), 0);
        feed_slo_locked(sr.tenant, /*missed=*/true, sr.arrival);
        ++info.sheds_replayed;
      }
    }
    subs_.emplace(sr.submission_id, std::move(sub));
  }
  service_->executor().release_dequeue();
  return failure;
}

SubmitAck ServiceHandle::submit(service::TenantId tenant,
                                std::uint64_t submission_id,
                                exec::JobSpec spec) {
  const std::lock_guard<std::mutex> guard(mu_);
  SubmitAck ack;
  ack.submission_id = submission_id;

  // Dedup by submission id: an unacknowledged retry must not double-run.
  const auto it = subs_.find(submission_id);
  if (it != subs_.end()) {
    const Sub& sub = it->second;
    ack.duplicate = true;
    ack.accepted = sub.rec.verdict == 0;
    ack.exec_id = sub.rec.exec_job_id;
    if (sub.rec.verdict != 0)
      ack.rejected = static_cast<exec::ShedReason>(sub.rec.verdict);
    DurableMetrics::get().deduped.inc();
    obs::trace_instant("durable.dedup", "journal", submission_id, 0);
    return ack;
  }
  if (submission_id <= acked_watermark_) {
    // Acknowledged history compacted into the snapshot: the detailed
    // verdict is gone, but the ack stands.
    ack.duplicate = true;
    ack.accepted = true;
    DurableMetrics::get().deduped.inc();
    obs::trace_instant("durable.dedup", "journal", submission_id, 1);
    return ack;
  }

  if (draining_) {
    ack.accepted = false;
    ack.rejected = exec::ShedReason::kShutdown;
    return ack;
  }

  // Allocate the causal trace context HERE, before the door sees the spec:
  // Service::submit takes the spec by value, so an id minted inside the door
  // would be invisible to the journal record below.
  if (spec.trace_id == 0) spec.trace_id = obs::next_trace_id();

  const exec::SubmitResult res = service_->submit(tenant, spec);

  Sub sub;
  sub.rec.submission_id = submission_id;
  sub.rec.exec_job_id = res.accepted ? res.id : 0;
  sub.rec.tenant = tenant;
  // verdict is the DOOR's decision: kTenantThrottled for door rejections,
  // 0 otherwise. Executor-side rejections keep verdict 0 and carry the
  // executor reason in a shed record instead — replay must advance the door
  // as an accept and then treat the shed as final history.
  sub.rec.verdict =
      (!res.accepted && res.rejected == exec::ShedReason::kTenantThrottled)
          ? kDoorVerdict
          : 0;
  sub.rec.kind = static_cast<std::uint32_t>(spec.kind);
  sub.rec.priority = static_cast<std::uint32_t>(spec.priority);
  sub.rec.n = spec.n;
  sub.rec.iterations = spec.iterations;
  sub.rec.deadline = spec.deadline;
  sub.rec.arrival = spec.arrival;
  sub.rec.trace_id = spec.trace_id;
  sub.rec.parent_span = spec.parent_span;

  (void)writer_->append(RecordType::kSubmission, sub.rec.encode());
  // Bind the flow id to the submission id in the trace itself: offline
  // tooling (obs_query --explain-job) resolves a submission to its causal
  // chain from a pre-kill trace alone via this step.
  obs::trace_flow_step("job.flow.journal", "causal", spec.trace_id,
                       submission_id);
  max_submission_id_ = std::max(max_submission_id_, submission_id);
  TenantLedger& led = ledger_[tenant - 1];

  if (!res.accepted) {
    sub.outcome_known = true;
    sub.shed.submission_id = submission_id;
    sub.shed.reason = static_cast<std::uint32_t>(res.rejected);
    sub.shed.origin = static_cast<std::uint32_t>(
        res.rejected == exec::ShedReason::kTenantThrottled
            ? ShedOrigin::kDoor
            : ShedOrigin::kExecutorReject);
    sub.shed.at = spec.arrival;
    (void)writer_->append(RecordType::kShed, sub.shed.encode());
    ++led.sheds;
    // Door rejections were charged inside the door; executor-side rejects
    // are charged here so every ledger shed has exactly one attribution
    // event (the reconciliation invariant).
    if (res.rejected != exec::ShedReason::kTenantThrottled)
      obs::Attribution::instance().charge(
          tenant, -1, obs::Charge::kShed,
          static_cast<std::uint32_t>(res.rejected),
          exec::PricingModel::traffic_bytes(spec));
    feed_slo_locked(tenant, /*missed=*/true, spec.arrival);
    if (res.id != 0) exec_to_sub_[res.id] = submission_id;  // report exists
  } else {
    exec_to_sub_[res.id] = submission_id;
  }
  unacked_.push_back(submission_id);
  subs_.emplace(submission_id, std::move(sub));

  ack.accepted = res.accepted;
  ack.exec_id = res.id;
  ack.rejected = res.rejected;
  return ack;
}

util::Status ServiceHandle::flush() {
  const std::lock_guard<std::mutex> guard(mu_);
  if (const util::Status s = writer_->commit(); !s.ok()) return s;
  for (const std::uint64_t id : unacked_) {
    const auto it = subs_.find(id);
    if (it != subs_.end()) it->second.acked = true;
  }
  unacked_.clear();
  return util::Status{};
}

void ServiceHandle::apply_outcome_locked(Sub& sub,
                                         const exec::JobReport& report) {
  TenantLedger& led = ledger_[sub.rec.tenant - 1];
  if (report.completed) {
    sub.completed = true;
    sub.comp.submission_id = sub.rec.submission_id;
    sub.comp.served_bytes = report.quote.bytes;
    sub.comp.finish = report.finish;
    sub.comp.field_crc = report.field_crc;
    std::uint32_t mask = 0;
    for (const unsigned c : report.quote.plan_set)
      if (c < 32) mask |= 1u << c;
    sub.comp.plan_mask = mask;
    (void)writer_->append(RecordType::kCompletion, sub.comp.encode());
    ++led.completed;
    led.served_bytes += sub.comp.served_bytes;
    // Charged at the exact ledger mutation: attribution's per-tenant served
    // bytes equal the ledger's by construction, not by reconciliation.
    obs::Attribution::instance().charge_spread(
        sub.rec.tenant, report.quote.plan_set, obs::Charge::kServed, 0,
        report.quote.bytes);
    feed_slo_locked(sub.rec.tenant, report.missed_deadline(), report.finish);
  } else {
    sub.shed.submission_id = sub.rec.submission_id;
    sub.shed.reason = static_cast<std::uint32_t>(report.shed);
    sub.shed.origin = static_cast<std::uint32_t>(ShedOrigin::kExecutorShed);
    sub.shed.at = report.finish;
    (void)writer_->append(RecordType::kShed, sub.shed.encode());
    ++led.sheds;
    obs::Attribution::instance().charge_spread(
        sub.rec.tenant, report.quote.plan_set, obs::Charge::kShed,
        static_cast<std::uint32_t>(report.shed), report.quote.bytes);
    feed_slo_locked(sub.rec.tenant, /*missed=*/true, report.finish);
  }
  sub.outcome_known = true;
}

std::size_t ServiceHandle::pump() {
  const std::lock_guard<std::mutex> guard(mu_);
  return pump_locked();
}

std::size_t ServiceHandle::pump_locked() {
  std::size_t appended = 0;
  const std::vector<exec::JobReport> tail =
      service_->executor().reports_tail(reports_seen_);
  reports_seen_ += tail.size();
  for (const exec::JobReport& r : tail) {
    const auto mapping = exec_to_sub_.find(r.id);
    if (mapping == exec_to_sub_.end()) continue;
    const auto it = subs_.find(mapping->second);
    if (it == subs_.end() || it->second.outcome_known) continue;
    apply_outcome_locked(it->second, r);
    ++appended;
  }
  return appended;
}

void ServiceHandle::wait_quiesced_locked() {
  // Quiesced = queue empty AND every forwarded job's outcome journaled.
  // Job bodies run on worker threads; completion reports land shortly after
  // the queue empties, so this is a short bounded-yield wait in practice.
  for (;;) {
    (void)pump_locked();
    bool pending = false;
    for (const auto& [id, sub] : subs_) {
      (void)id;
      if (!sub.outcome_known) {
        pending = true;
        break;
      }
    }
    if (!pending && service_->executor().queued() == 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

util::Status ServiceHandle::publish_snapshot_locked(bool compact) {
  // Ordering is the crash-consistency argument:
  //   1. commit the journal — every record the snapshot will cover is
  //      durable FIRST (a snapshot must never cover records a crash could
  //      lose, or replay sequence numbers would collide);
  //   2. write + fsync + rename the snapshot (atomic publish);
  //   3. append the snapshot mark and commit (observability only — restart
  //      reads covered_sequence from the snapshot itself).
  if (const util::Status s = writer_->commit(); !s.ok()) return s;
  for (const std::uint64_t id : unacked_) {
    const auto it = subs_.find(id);
    if (it != subs_.end()) it->second.acked = true;
  }
  unacked_.clear();

  StateImage im;
  im.snapshot_id = ++snapshot_id_;
  im.covered_sequence = writer_->next_sequence() - 1;
  im.max_submission_id = max_submission_id_;
  im.door = service_->snapshot_door();
  im.clocks = service_->executor().virtual_clocks();
  im.ledger = ledger_;
  // The attribution ledger rides in every snapshot: restart restores it and
  // replay re-charges only post-snapshot records, so per-tenant byte totals
  // reconcile exactly across a SIGKILL.
  im.has_attribution = true;
  im.attribution = obs::Attribution::instance().encode();
  if (const util::Status s = save_state(cfg_.state_path(), im); !s.ok())
    return s;

  SnapshotMarkRecord mark;
  mark.snapshot_id = im.snapshot_id;
  mark.covered_sequence = im.covered_sequence;
  (void)writer_->append(RecordType::kSnapshotMark, mark.encode());
  if (const util::Status s = writer_->commit(); !s.ok()) return s;

  // Everything detailed below the watermark is now compacted history; a
  // live checkpoint drops the in-memory entries so a long-lived service
  // does not grow without bound (dedup for them is answered by the
  // watermark). drain() keeps them: the serving loop reports final typed
  // outcomes to its clients after the backlog settles.
  acked_watermark_ = im.max_submission_id;
  if (compact) {
    for (auto it = subs_.begin(); it != subs_.end();) {
      if (it->second.outcome_known && it->second.acked) {
        exec_to_sub_.erase(it->second.rec.exec_job_id);
        it = subs_.erase(it);
      } else {
        ++it;
      }
    }
  }
  DurableMetrics::get().snapshots.inc();
  obs::trace_instant("state.publish", "journal", im.snapshot_id,
                     im.covered_sequence);
  return util::Status{};
}

util::Status ServiceHandle::checkpoint() {
  const obs::TraceSpan span("durable.checkpoint", "journal");
  const std::lock_guard<std::mutex> guard(mu_);
  wait_quiesced_locked();
  return publish_snapshot_locked(/*compact=*/true);
}

util::Status ServiceHandle::drain(DrainReport* report) {
  const obs::TraceSpan span("durable.drain", "journal");
  DurableMetrics::get().drains.inc();
  DrainReport local;
  {
    const std::lock_guard<std::mutex> guard(mu_);
    draining_ = true;
    // Ack everything admitted so far before we stop the world.
    if (const util::Status s = writer_->commit(); !s.ok()) return s;
    for (const std::uint64_t id : unacked_) {
      const auto it = subs_.find(id);
      if (it != subs_.end()) it->second.acked = true;
    }
    unacked_.clear();
  }

  // Let the backlog finish — or escalate. The watchdog path is what keeps a
  // SIGTERM from wedging behind a pathological backlog: past the budget the
  // queue is shed (every queued job reports kShutdown, typed) and only
  // in-flight bodies finish.
  bool escalate = false;
  if (cfg_.drain_budget_ms > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(cfg_.drain_budget_ms);
    while (service_->executor().queued() > 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        escalate = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  if (escalate) {
    util::log_warn("durable: drain budget exceeded with " +
                   std::to_string(service_->executor().queued()) +
                   " jobs queued — escalating to shed");
    DurableMetrics::get().drain_escalations.inc();
    obs::trace_instant("durable.drain.escalate", "journal",
                       service_->executor().queued(), 0);
  }
  service_->shutdown(escalate ? exec::Executor::Drain::kShedQueued
                              : exec::Executor::Drain::kDrain);

  const std::lock_guard<std::mutex> guard(mu_);
  local.escalated = escalate;
  const std::size_t before = [&] {
    std::size_t sheds = 0;
    for (const TenantLedger& l : ledger_) sheds += l.sheds;
    return sheds;
  }();
  // Workers are joined: every outcome is final. Journal them all.
  (void)pump_locked();
  const std::size_t after = [&] {
    std::size_t sheds = 0;
    for (const TenantLedger& l : ledger_) sheds += l.sheds;
    return sheds;
  }();
  local.shed_on_drain = after - before;

  if (const util::Status s = publish_snapshot_locked(/*compact=*/false);
      !s.ok())
    return s;
  if (const util::Status s = writer_->seal(); !s.ok()) return s;
  if (report != nullptr) *report = local;
  return util::Status{};
}

PollResult ServiceHandle::poll(std::uint64_t submission_id) const {
  const std::lock_guard<std::mutex> guard(mu_);
  PollResult out;
  const auto it = subs_.find(submission_id);
  if (it == subs_.end()) {
    if (submission_id <= acked_watermark_) {
      out.state = SubmissionState::kAckedHistory;
      out.acked = true;
    }
    return out;
  }
  const Sub& sub = it->second;
  out.acked = sub.acked;
  if (!sub.outcome_known) {
    out.state = SubmissionState::kPending;
  } else if (sub.completed) {
    out.state = SubmissionState::kCompleted;
    out.served_bytes = sub.comp.served_bytes;
    out.field_crc = sub.comp.field_crc;
  } else {
    out.state = SubmissionState::kShed;
    out.reason = static_cast<exec::ShedReason>(sub.shed.reason);
  }
  return out;
}

std::vector<TenantLedger> ServiceHandle::ledger() const {
  const std::lock_guard<std::mutex> guard(mu_);
  return ledger_;
}

std::uint64_t ServiceHandle::max_submission_id() const {
  const std::lock_guard<std::mutex> guard(mu_);
  return max_submission_id_;
}

void ServiceHandle::install_quiesce_signal_handler() {
#ifndef _WIN32
  (void)std::signal(SIGTERM, on_quiesce_signal);
#endif
}

bool ServiceHandle::quiesce_requested() noexcept {
  return g_quiesce.load(std::memory_order_relaxed);
}

void ServiceHandle::clear_quiesce_request() noexcept {
  g_quiesce.store(false, std::memory_order_relaxed);
}

}  // namespace mcopt::runtime::durable
