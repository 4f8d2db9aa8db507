#pragma once
// The durable kill-restart harness, the one copy that `chaos_soak
// --kill-service`, `bench/durability` and the tier-1 DurabilityRegression
// all run. A forked child serves a two-tenant durable service through a
// batched submission stream, group-committing every batch and recording its
// ack watermark in a side file only AFTER flush() returns; the parent
// SIGKILLs it at a chosen instant, restarts on the same directory, and
// holds the crash-consistency invariants against an uninterrupted
// reference run of the same stream:
//
//   K1  recovery always succeeds — a torn tail is truncated and reported,
//       never refused — and finds the killed run's journal;
//   K2  zero acknowledged-submission loss: every id at or below the
//       child's last durable ack marker is known after restart;
//   K3  byte-exact ledger reconciliation: after the client retries the
//       whole stream (duplicates dedupe) and drains, per-tenant completed
//       counts, served bytes and typed sheds equal the reference run's — no
//       loss AND no double execution — and the attribution ledger owns
//       exactly those served bytes and sheds (DESIGN.md §4m);
//   K4  replay idempotence: a further restart is sealed, re-tears nothing,
//       and reports the same ledger.
//
// SIGKILL (not SIGTERM) is the point: no handler runs, stdio buffers die
// unflushed, and the journal may be torn mid-record. The kill-restart half
// is POSIX only (fork); the workload shape builds everywhere.

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#endif

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "runtime/durable/journal.h"
#include "runtime/durable/service_handle.h"

namespace mcopt::bench {

/// One kill-restart submission stream.
struct DurableWorkload {
  std::uint64_t seed = 0;  ///< perturbs job sizes; the tier-1 stream is 0
  std::uint64_t jobs = 60;
  std::uint64_t batch = 10;  ///< submissions per group commit
  /// The killed child's pause between batches, so the kill lands
  /// mid-stream (the reference run does not pause).
  unsigned inter_batch_us = 3000;
  /// When set, the killed child rewrites trace_pre.json here after every
  /// group commit (so a SIGKILL at any instant leaves a complete trace) and
  /// the restart writes trace_post.json: the obs_query --explain-job pair.
  std::string trace_dir;
};

/// Validates the --jobs/--batch flags before any work or fork: a zero
/// batch divides the checkpoint cadence by zero, and zero jobs reconcile
/// nothing.
[[nodiscard]] inline util::Status check_durable_counts(std::int64_t jobs,
                                                       std::int64_t batch) {
  util::Status status = check_count("jobs", jobs, 1);
  status.merge(check_count("batch", batch, 1));
  return status;
}

/// Two tenants, batch SLO (no deadlines, so quotes are deterministic),
/// accounting mode. Tenant 2's tight byte quota keeps door sheds in the
/// reconciled history.
inline runtime::durable::DurableConfig durable_config(const std::string& dir) {
  runtime::durable::DurableConfig cfg;
  cfg.dir = dir;
  cfg.service.executor.num_workers = 2;
  cfg.service.executor.run_kernels = false;
  cfg.service.executor.lane_capacity = {4096, 4096, 4096};
  cfg.service.executor.seed = 1234;
  cfg.tenants.push_back({.name = "steady",
                         .weight = 2.0,
                         .slo = runtime::service::SloClass::kBatch});
  cfg.tenants.push_back({.name = "capped",
                         .weight = 1.0,
                         .quota_bytes_per_s = 250000.0,
                         .burst_seconds = 1.0,
                         .slo = runtime::service::SloClass::kBatch,
                         .breaker_trip_threshold = 6});
  return cfg;
}

inline runtime::exec::JobSpec durable_job(std::uint64_t seed, std::uint64_t id) {
  runtime::exec::JobSpec spec;
  spec.kind = runtime::exec::JobKind::kTriad;
  spec.n = 2048 + 128 * ((id + seed) % 5);
  spec.iterations = 1 + static_cast<unsigned>(id % 3);
  spec.arrival = id * 20000;
  return spec;
}

inline runtime::service::TenantId durable_tenant(std::uint64_t id) {
  return 1 + static_cast<runtime::service::TenantId>(id % 2);
}

#ifndef _WIN32

/// `<tmp>/<stem>_<pid>_<seed>`: a scratch path no concurrent run shares.
inline std::filesystem::path scratch_path(const std::string& stem,
                                          std::uint64_t seed) {
  return std::filesystem::temp_directory_path() /
         (stem + "_" + std::to_string(::getpid()) + "_" + std::to_string(seed));
}

/// Records "every id <= max_id is acked": written only after flush()
/// returned and fsync'd before the rename, so it never overstates what the
/// journal committed.
inline void write_ack_marker(const std::string& dir, std::uint64_t max_id) {
  const std::string tmp = dir + "/acked.tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  std::fprintf(f, "%llu\n", static_cast<unsigned long long>(max_id));
  std::fflush(f);
  ::fsync(::fileno(f));
  std::fclose(f);
  std::rename(tmp.c_str(), (dir + "/acked.txt").c_str());
}

inline std::uint64_t read_ack_marker(const std::string& dir) {
  std::FILE* f = std::fopen((dir + "/acked.txt").c_str(), "rb");
  if (f == nullptr) return 0;
  unsigned long long v = 0;
  const int got = std::fscanf(f, "%llu", &v);
  std::fclose(f);
  return got == 1 ? v : 0;
}

/// The serving loop the reference and the killed child both run: submit a
/// batch, group-commit (ack) it, pump outcomes, checkpoint every third
/// batch, pause, and drain at the end. Returns false on any local failure.
inline bool run_durable_workload(const std::string& dir,
                                 const DurableWorkload& w,
                                 unsigned inter_batch_us,
                                 const std::string& trace_path) {
  auto handle = runtime::durable::ServiceHandle::open(durable_config(dir));
  if (!handle) return false;
  runtime::durable::ServiceHandle& h = *handle.value();
  for (std::uint64_t first = 1; first <= w.jobs; first += w.batch) {
    const std::uint64_t last = std::min(w.jobs, first + w.batch - 1);
    for (std::uint64_t id = first; id <= last; ++id)
      (void)h.submit(durable_tenant(id), id, durable_job(w.seed, id));
    if (!h.flush().ok()) return false;
    write_ack_marker(dir, last);
    (void)h.pump();
    if (!trace_path.empty())
      (void)obs::TraceRecorder::instance().write_chrome_trace(trace_path);
    if (((first / w.batch) % 3) == 2 && !h.checkpoint().ok()) return false;
    if (inter_batch_us > 0) ::usleep(inter_batch_us);
  }
  return h.drain(nullptr).ok();
}

/// Forks the serving loop on `dir` and SIGKILLs it `kill_after_us` after
/// its journal header is on disk: the delay lands the kill that far into
/// journaled traffic, not into process start-up, and journal creation is
/// atomic, so the restart always has a journal to replay. Returns the
/// failures (fork, a journal that never appeared, a child that failed
/// before the kill landed); a child that finished first is not one.
inline std::vector<std::string> fork_and_kill(const std::string& dir,
                                              const DurableWorkload& w,
                                              unsigned kill_after_us) {
  const pid_t pid = ::fork();
  if (pid < 0) return {"fork failed"};
  if (pid == 0) {
    // The fork copied the parent's attribution cells; the child's
    // snapshots must carry only this incarnation's charges.
    obs::Attribution::instance().reset();
    std::string trace_pre;
    if (!w.trace_dir.empty()) {
      obs::TraceRecorder::instance().enable(1u << 16);
      trace_pre = w.trace_dir + "/trace_pre.json";
    }
    const bool ok = run_durable_workload(dir, w, w.inter_batch_us, trace_pre);
    ::_exit(ok ? 0 : 42);
  }
  std::vector<std::string> failures;
  const std::string journal = durable_config(dir).journal_path();
  const auto header_durable = [&journal] {
    std::error_code ec;
    return std::filesystem::file_size(journal, ec) >=
               runtime::durable::kJournalHeaderBytes &&
           !ec;
  };
  for (int i = 0; i < 20000 && !header_durable(); ++i) ::usleep(100);
  if (header_durable())
    ::usleep(kill_after_us);
  else
    failures.emplace_back("child never created the journal");
  (void)::kill(pid, SIGKILL);
  int status = 0;
  (void)::waitpid(pid, &status, 0);
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0)
    failures.emplace_back("child failed before the kill landed");
  return failures;
}

/// Attribution-vs-ledger reconciliation for one tenant on the restart side.
struct AttributionCheck {
  std::uint64_t attr_served_bytes = 0;
  std::uint64_t ledger_served_bytes = 0;
  std::uint64_t attr_shed_events = 0;
  std::uint64_t ledger_sheds = 0;
};

struct KillRestartOutcome {
  std::uint64_t acked = 0;  ///< the child's last durable ack marker
  runtime::durable::RecoveryInfo recovery;
  std::vector<runtime::durable::TenantLedger> want;  ///< reference run
  std::vector<runtime::durable::TenantLedger> got;   ///< after restart
  std::vector<AttributionCheck> attribution;         ///< per tenant
  std::string burn_json;  ///< the restarted handle's SLO burn export
  std::vector<std::string> failures;
};

/// Appends one failure per tenant whose ledger differs from `want`.
inline void compare_ledgers(const char* invariant,
                            const std::vector<runtime::durable::TenantLedger>& got,
                            const std::vector<runtime::durable::TenantLedger>& want,
                            std::vector<std::string>& failures) {
  if (got.size() != want.size()) {
    failures.push_back(std::string("ledger width diverged (") + invariant + ")");
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i)
    if (got[i].completed != want[i].completed ||
        got[i].served_bytes != want[i].served_bytes ||
        got[i].sheds != want[i].sheds)
      failures.push_back(
          "tenant " + std::to_string(i + 1) + " ledger diverged (" + invariant +
          "): completed " + std::to_string(got[i].completed) + "/" +
          std::to_string(want[i].completed) + " bytes " +
          std::to_string(got[i].served_bytes) + "/" +
          std::to_string(want[i].served_bytes) + " sheds " +
          std::to_string(got[i].sheds) + "/" + std::to_string(want[i].sheds));
}

/// The whole contract: the reference run in `root`/ref, the killed run in
/// `root`/kill, then restart, K1-K4. Empty `failures` means it held.
inline KillRestartOutcome run_kill_restart(const std::filesystem::path& root,
                                           const DurableWorkload& w,
                                           unsigned kill_after_us) {
  using runtime::durable::ServiceHandle;
  KillRestartOutcome out;
  std::filesystem::create_directories(root / "ref");
  std::filesystem::create_directories(root / "kill");
  const std::string ref_dir = (root / "ref").string();
  const std::string kill_dir = (root / "kill").string();

  if (!run_durable_workload(ref_dir, w, 0, "")) {
    out.failures.emplace_back("reference run failed");
    return out;
  }
  {
    auto ref = ServiceHandle::open(durable_config(ref_dir));
    if (!ref) {
      out.failures.emplace_back("reference reopen refused: " +
                                ref.error().message);
      return out;
    }
    out.want = ref.value()->ledger();
  }
  if (out.want.size() < 2 || out.want[1].sheds == 0) {
    out.failures.emplace_back("quota tenant never shed: the run is vacuous");
    return out;
  }

  out.failures = fork_and_kill(kill_dir, w, kill_after_us);
  if (!out.failures.empty()) return out;

  out.acked = read_ack_marker(kill_dir);
  // The restart side's attribution must come only from the child's
  // snapshot plus replay charges, so the reconciliation below is exact.
  obs::Attribution::instance().reset();
  if (!w.trace_dir.empty()) obs::TraceRecorder::instance().enable(1u << 16);
  {
    auto handle = ServiceHandle::open(durable_config(kill_dir));
    if (!handle) {
      out.failures.emplace_back("recovery refused (K1): " +
                                handle.error().message);
      return out;
    }
    ServiceHandle& h = *handle.value();
    out.recovery = h.recovery_info();
    if (!out.recovery.restarted)
      out.failures.emplace_back("restart found no journal (K1)");
    for (std::uint64_t id = 1; id <= out.acked; ++id)
      if (h.poll(id).state == runtime::durable::SubmissionState::kUnknown) {
        out.failures.emplace_back("acked id " + std::to_string(id) +
                                  " lost (K2)");
        break;
      }
    // The client retries the whole stream; duplicates dedupe, the rest runs.
    for (std::uint64_t id = 1; id <= w.jobs; ++id)
      (void)h.submit(durable_tenant(id), id, durable_job(w.seed, id));
    if (!h.flush().ok() || !h.drain(nullptr).ok()) {
      out.failures.emplace_back("recovery drain failed");
      return out;
    }
    out.got = h.ledger();
    out.burn_json = h.slo_monitor().json();
    if (!w.trace_dir.empty())
      (void)obs::TraceRecorder::instance().write_chrome_trace(
          w.trace_dir + "/trace_post.json");
  }
  compare_ledgers("K3", out.got, out.want, out.failures);
  // Every served byte and every shed the restart accounts for has exactly
  // one owner in the attribution ledger (snapshot blob + replay charges).
  for (std::size_t i = 0; i < out.got.size(); ++i) {
    const auto tenant = static_cast<std::uint32_t>(i + 1);
    AttributionCheck chk;
    chk.attr_served_bytes =
        obs::Attribution::instance().tenant_bytes(tenant, obs::Charge::kServed);
    chk.ledger_served_bytes = out.got[i].served_bytes;
    chk.attr_shed_events =
        obs::Attribution::instance().tenant_count(tenant, obs::Charge::kShed);
    chk.ledger_sheds = out.got[i].sheds;
    if (chk.attr_served_bytes != chk.ledger_served_bytes ||
        chk.attr_shed_events != chk.ledger_sheds)
      out.failures.emplace_back("tenant " + std::to_string(i + 1) +
                                " attribution diverged from ledger (K3)");
    out.attribution.push_back(chk);
  }

  auto again = ServiceHandle::open(durable_config(kill_dir));
  if (!again) {
    out.failures.emplace_back("post-drain reopen refused (K4): " +
                              again.error().message);
    return out;
  }
  const runtime::durable::RecoveryInfo& info = again.value()->recovery_info();
  if (!info.was_sealed)
    out.failures.emplace_back("post-drain journal not sealed (K4)");
  if (info.dropped_bytes != 0)
    out.failures.emplace_back("post-drain reopen re-tore the tail (K4)");
  compare_ledgers("K4", again.value()->ledger(), out.want, out.failures);
  return out;
}

#endif  // !_WIN32

}  // namespace mcopt::bench
