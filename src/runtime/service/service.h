#pragma once
// Multi-tenant service front end over the overload-robust executor.
//
// The executor (runtime/executor) arbitrates one contended resource — the
// memory subsystem's aggregate bandwidth — but treats every submission as
// equally entitled to it. This layer adds the *tenant*: a named traffic
// source with a WFQ weight, a bandwidth quota, an SLO class, and a circuit
// breaker. The robustness contract is isolation:
//
//   * no tenant starves — backlogged tenants share served bandwidth in
//     weight proportion (the executor runs QueuePolicy::kWeightedFair with
//     the tenant as the flow and the pricing quote's bytes as the job
//     length, so fairness is measured in bytes, not job counts);
//   * one tenant's overload cannot raise another's p99 — an over-quota
//     tenant is rejected AT THE DOOR with ShedReason::kTenantThrottled,
//     before the executor's admission projection (admit_tail) is touched,
//     so other tenants' deadline estimates never see the abuse;
//   * abuse is contained, not amplified — a tenant that keeps hitting its
//     quota trips a util::CircuitBreaker whose open state rejects in O(1)
//     without even refilling the token bucket, and whose half-open state
//     admits a single probe before either closing or re-opening with a
//     geometrically longer hold.
//
// ## The door clock
//
// All door decisions (token-bucket refill, breaker holds) run on the
// service's own monotone arrival clock — the largest JobSpec::arrival seen —
// never on the executor's service tail, which advances with real worker
// timing. A fixed submission order therefore produces a bit-identical
// sequence of door verdicts, which is what makes seeded service soaks
// replayable.
//
// ## Threading
//
// submit() is thread-safe; the door (quota + breaker + forwarding) is one
// critical section per call, so verdicts are totally ordered. Everything
// past the door is the executor's own concurrency. Rejected submissions
// never reach the executor and produce no JobReport there; the door keeps
// its own typed per-tenant counters, and conservation across both layers is
// asserted by the service soak (offered = door-shed + executor-accounted).

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/executor/executor.h"
#include "util/backoff.h"
#include "util/expected.h"

namespace mcopt::runtime::service {

using TenantId = std::uint32_t;

/// SLO tiers, mapped to executor priority lanes and deadline slack.
enum class SloClass : unsigned { kInteractive = 0, kStandard = 1, kBatch = 2 };
inline constexpr std::size_t kNumSloClasses = 3;

[[nodiscard]] constexpr const char* to_string(SloClass c) noexcept {
  switch (c) {
    case SloClass::kInteractive: return "interactive";
    case SloClass::kStandard: return "standard";
    case SloClass::kBatch: return "batch";
  }
  return "?";
}

struct TenantConfig {
  std::string name;
  /// WFQ weight (> 0): a backlogged tenant's share of served bandwidth is
  /// weight-proportional among backlogged tenants.
  double weight = 1.0;
  /// Token-bucket admission quota in bytes of job traffic per second of
  /// virtual time; 0 = unlimited. Refills on the door clock.
  double quota_bytes_per_s = 0.0;
  /// Bucket depth, in seconds of quota (burst tolerance).
  double burst_seconds = 0.25;
  SloClass slo = SloClass::kStandard;
  /// Consecutive quota throttles that open the tenant's circuit breaker.
  unsigned breaker_trip_threshold = 16;
  /// Breaker hold schedule, in virtual cycles.
  util::BackoffConfig breaker{.initial = 1'000'000, .multiplier = 2.0,
                              .cap = 256'000'000, .jitter = 0.1};
};

/// Deadline policy of one SLO class: lane + deadline slack as a multiple of
/// the job's healthy service quote (slack <= 0 means no deadline — batch),
/// plus an absolute latency floor. The floor is what keeps a tiny job's
/// deadline honest on a shared serialized server: it must tolerate a few
/// max-size jobs in front of it no matter how small its own quote is.
struct SloPolicy {
  exec::Priority priority = exec::Priority::kNormal;
  double deadline_slack = 0.0;
  arch::Cycles deadline_floor = 0;
};

struct ServiceConfig {
  /// Executor configuration; queue_policy is forced to kWeightedFair.
  exec::ExecutorConfig executor{};
  /// Per-class lane + slack (interactive, standard, batch).
  std::array<SloPolicy, kNumSloClasses> slo = {
      SloPolicy{exec::Priority::kHigh, 24.0},
      SloPolicy{exec::Priority::kNormal, 96.0},
      SloPolicy{exec::Priority::kLow, 0.0}};
};

/// Door-level accounting for one tenant. Bytes are static traffic bytes
/// (PricingModel::traffic_bytes) — quota is measured in offered traffic,
/// independent of the fault state the job later prices against.
struct TenantCounters {
  std::uint64_t submitted = 0;
  std::uint64_t throttled = 0;         ///< quota rejections at the door
  std::uint64_t breaker_rejected = 0;  ///< open-breaker rejections
  std::uint64_t forwarded = 0;         ///< passed the door to the executor
  std::uint64_t accepted = 0;          ///< admitted by the executor
  std::uint64_t offered_bytes = 0;
  std::uint64_t door_shed_bytes = 0;  ///< throttled + breaker-rejected bytes
  std::uint64_t forwarded_bytes = 0;
  std::uint64_t breaker_opens = 0;
};

struct TenantSnapshot {
  TenantId id = 0;
  TenantConfig config;
  TenantCounters counters;
  util::CircuitBreaker::State breaker = util::CircuitBreaker::State::kClosed;
  double quota_level_bytes = 0.0;
};

/// Complete mutable door state of one tenant, for durable snapshots.
struct DoorTenantState {
  TenantCounters counters;
  util::CircuitBreaker::Snapshot breaker;
  double quota_level_bytes = 0.0;
  arch::Cycles last_refill = 0;
};

/// Everything the door learned since construction. Captured at a quiesced
/// instant and restored into a freshly constructed Service with the same
/// tenant registrations, the door then produces bit-identical verdicts for
/// any submission sequence the original would have seen (all door
/// arithmetic — token-bucket refill, breaker holds — is deterministic in
/// (state, submission order)).
struct DoorSnapshot {
  arch::Cycles door_clock = 0;
  std::vector<DoorTenantState> tenants;
};

/// Post-drain join of door counters with the executor's per-job reports.
struct TenantSummary {
  TenantId id = 0;
  std::string name;
  double weight = 1.0;
  SloClass slo = SloClass::kStandard;
  TenantCounters counters;
  std::uint64_t completed = 0;
  std::uint64_t goodput_bytes = 0;
  std::uint64_t exec_shed_bytes = 0;  ///< bytes of forwarded-but-shed jobs
  std::uint64_t missed_deadlines = 0;
  double p50_ms = 0.0, p99_ms = 0.0;  ///< completed-job sojourn
};

class Service {
 public:
  explicit Service(ServiceConfig cfg);

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Registers a tenant; ids start at 1 (0 is the anonymous default flow
  /// and cannot be registered). Throws on invalid config.
  TenantId register_tenant(TenantConfig cfg);

  /// Submits one job on behalf of `tenant`. The service stamps the spec's
  /// tenant/fair_weight/priority and (unless the submitter set one) an SLO
  /// deadline, runs the door (breaker, quota), and forwards survivors to the
  /// executor. Door rejections return accepted=false with
  /// ShedReason::kTenantThrottled and touch neither the executor's admission
  /// projection nor its report log. Throws std::out_of_range on unknown
  /// tenant ids and std::invalid_argument for a job whose traffic does not
  /// fit in 64 bits, before any counter moves.
  exec::SubmitResult submit(TenantId tenant, exec::JobSpec spec);

  /// Journal-replay variant of submit(): runs the full door — advancing the
  /// door clock, quota buckets, breakers and counters exactly as submit()
  /// would, so replaying a journaled submission stream reproduces the
  /// original verdict sequence bit-identically — but forwards to the
  /// executor only when `forward` is true. The durable layer passes
  /// forward=false for jobs whose final outcome is already journaled
  /// (completed or shed): their history must advance the door without
  /// re-executing the work. A door-accepted, non-forwarded call returns
  /// accepted=true with id 0.
  exec::SubmitResult submit_replay(TenantId tenant, exec::JobSpec spec,
                                   bool forward);

  /// Replay bookkeeping companion to submit_replay(..., forward=false): a
  /// journaled executor-ACCEPTED outcome (completion, or a post-accept shed)
  /// bumps the tenant's accepted counter that the skipped executor submit
  /// would have produced, keeping conservation invariants replay-exact.
  void credit_replayed_accept(TenantId tenant);

  /// Captures the door's mutable state (see DoorSnapshot).
  [[nodiscard]] DoorSnapshot snapshot_door() const;

  /// Restores door state captured by snapshot_door(). The same tenants must
  /// already be registered, in the same order; fails on a count mismatch.
  [[nodiscard]] util::Status restore_door(const DoorSnapshot& snap);

  /// Forwards cooperative cancellation to the executor.
  bool cancel(std::uint64_t job_id) { return executor_.cancel(job_id); }

  /// Stops the executor (kDrain runs the backlog; kShedQueued sheds it).
  void shutdown(exec::Executor::Drain mode) { executor_.shutdown(mode); }

  [[nodiscard]] const exec::Executor& executor() const noexcept {
    return executor_;
  }
  [[nodiscard]] exec::Executor& executor() noexcept { return executor_; }

  [[nodiscard]] unsigned num_tenants() const;
  [[nodiscard]] TenantSnapshot tenant(TenantId id) const;

  /// Joins door counters with the executor's reports (call after
  /// shutdown()). One summary per registered tenant, id-ascending; reports
  /// from the anonymous flow (tenant 0) are ignored.
  [[nodiscard]] std::vector<TenantSummary> summarize() const;

  /// Jain's fairness index of a non-negative vector: (Σx)² / (n·Σx²) —
  /// 1.0 is perfectly fair, 1/n is one-takes-all. Empty or all-zero → 1.0.
  [[nodiscard]] static double jain_index(const std::vector<double>& x);

 private:
  struct Tenant {
    TenantConfig cfg;
    TenantCounters counters;
    util::CircuitBreaker breaker;
    double quota_level_bytes = 0.0;  ///< token bucket level
    arch::Cycles last_refill = 0;
    Tenant(TenantConfig c, std::uint64_t seed)
        : cfg(std::move(c)),
          breaker(cfg.breaker, cfg.breaker_trip_threshold, seed),
          quota_level_bytes(cfg.quota_bytes_per_s * cfg.burst_seconds) {}
  };

  /// Shared body of submit()/submit_replay().
  exec::SubmitResult submit_impl(TenantId tenant, exec::JobSpec spec,
                                 bool forward);

  ServiceConfig cfg_;
  exec::Executor executor_;
  double clock_hz_;

  mutable std::mutex mu_;  ///< door: tenants, quota buckets, breakers
  std::vector<Tenant> tenants_;
  arch::Cycles door_clock_ = 0;  ///< largest arrival seen
};

}  // namespace mcopt::runtime::service
