#pragma once
// Multi-tenant service soak harness: a seeded tenant population (weights,
// quotas, SLO classes) with a configurable share of *adversarial* tenants,
// driven open-loop against runtime::service::Service, plus the isolation
// invariants the service soak and the regression tier assert:
//
//   S1  conservation, twice over: at the door, every tenant's offered bytes
//       split exactly into door-shed + forwarded; past the door, every
//       forwarded job yields exactly one executor report and forwarded
//       bytes split exactly into goodput + typed executor-shed bytes;
//   S2  starvation-freedom: every well-behaved tenant — sized at its
//       weight-proportional share of capacity — completes >= 90% of its
//       offered bytes no matter what the attackers do;
//   S3  isolation: a well-behaved tenant's completed-job p99 sojourn in the
//       full adversarial mix stays within 1.25x of its p99 in the *solo
//       baseline* — the identical run with every attacker muted (per-tenant
//       RNG streams and a fixed virtual horizon make the victims' job
//       streams bit-identical across the two runs);
//   S4  containment: an attacker sustaining attacker_overdrive x its quota
//       gets at most quota-rate x time (+ one bucket depth) past the door —
//       abuse is throttled at the door, never amortized over victims.
//
// All accounting lives on virtual cycle clocks (the door clock for quota
// and breakers, the bandwidth-server clock for service), so the invariants
// are timing-independent and every failure replays from its seed.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "overload_common.h"
#include "runtime/service/service.h"

namespace mcopt::bench {

/// How a tenant misbehaves. Everything except kWellBehaved is adversarial.
enum class TenantBehavior : unsigned {
  kWellBehaved = 0,
  kBurstFlood,       ///< on/off bursts averaging attacker_overdrive x quota
  kDeadlineAbuser,   ///< in-quota rate, but every deadline is impossible
  kQuotaOscillator,  ///< long idle, then a dense over-quota volley
  kMidRunFaulter     ///< cancels ~30% of its accepted jobs mid-flight
};
inline constexpr unsigned kNumTenantBehaviors = 5;

/// Sum of well-behaved offered load, as a fraction of the mix capacity.
inline constexpr double kWellBehavedLoad = 0.70;
/// Tenant quota as a multiple of its weight-proportional fair rate.
inline constexpr double kQuotaHeadroom = 1.5;

[[nodiscard]] constexpr const char* to_string(TenantBehavior b) noexcept {
  switch (b) {
    case TenantBehavior::kWellBehaved: return "well-behaved";
    case TenantBehavior::kBurstFlood: return "burst-flood";
    case TenantBehavior::kDeadlineAbuser: return "deadline-abuser";
    case TenantBehavior::kQuotaOscillator: return "quota-oscillator";
    case TenantBehavior::kMidRunFaulter: return "mid-run-faulter";
  }
  return "?";
}

struct ServiceSoakParams {
  unsigned tenants = 1000;
  /// Expected total submissions of the full (unmuted) mix; the virtual
  /// horizon is derived from this and the population's offered rates.
  unsigned target_jobs = 1'000'000;
  std::uint64_t seed = 1;
  unsigned num_workers = 4;
  /// Share of tenants drawn adversarial (uniform over the attacker kinds).
  double attacker_fraction = 0.02;
  /// Attacker offered rate as a multiple of its own quota.
  double attacker_overdrive = 4.0;
  /// Ground-truth controller-fault timeline (virtual cycles; resolved).
  sim::FaultSchedule truth{};
  /// Solo baseline: attacker submissions skipped (tenant registry and every
  /// well-behaved job stream are bit-identical to the unmuted run).
  bool mute_attackers = false;
};

/// The job shapes tenants draw from, with healthy quotes priced once.
struct JobShape {
  runtime::exec::JobKind kind = runtime::exec::JobKind::kTriad;
  std::size_t n = 1024;
  unsigned iterations = 1;
  std::uint64_t bytes = 0;
  arch::Cycles healthy_cycles = 0;
};

inline std::vector<JobShape> service_job_shapes(
    const runtime::exec::PricingModel& pricing) {
  using runtime::exec::JobKind;
  std::vector<JobShape> shapes;
  for (const std::size_t n : {1024, 2048, 4096})
    for (const unsigned it : {1u, 2u})
      shapes.push_back({JobKind::kTriad, n, it, 0, 0});
  for (const std::size_t n : {32, 48, 64})
    for (const unsigned it : {1u, 2u})
      shapes.push_back({JobKind::kJacobi, n, it, 0, 0});
  for (JobShape& s : shapes) {
    runtime::exec::JobSpec spec;
    spec.kind = s.kind;
    spec.n = s.n;
    spec.iterations = s.iterations;
    const auto quote = pricing.price(spec, {});
    s.bytes = quote.value().bytes;
    s.healthy_cycles = quote.value().service_cycles;
  }
  return shapes;
}

/// One tenant's plan: service config + behavior + offered rate.
struct TenantPlan {
  runtime::service::TenantConfig config;
  TenantBehavior behavior = TenantBehavior::kWellBehaved;
  double offered_bytes_per_cycle = 0.0;
  std::uint64_t rng_seed = 0;
};

/// Draws the tenant population. Deterministic in params.seed; independent
/// of mute_attackers (the baseline must see the identical registry).
inline std::vector<TenantPlan> plan_tenants(const ServiceSoakParams& params,
                                            const std::vector<JobShape>& shapes,
                                            double clock_hz) {
  util::Xoshiro256 rng(params.seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<TenantPlan> plans(params.tenants);

  double mean_bytes = 0.0, mean_cycles = 0.0;
  std::uint64_t max_bytes = 0;
  for (const JobShape& s : shapes) {
    mean_bytes += static_cast<double>(s.bytes);
    mean_cycles += static_cast<double>(s.healthy_cycles);
    max_bytes = std::max(max_bytes, s.bytes);
  }
  mean_bytes /= static_cast<double>(shapes.size());
  mean_cycles /= static_cast<double>(shapes.size());
  // The serialized bandwidth server's byte rate on the uniform shape mix.
  const double capacity_bytes_per_cycle = mean_bytes / mean_cycles;

  double total_weight = 0.0;
  for (TenantPlan& p : plans) {
    p.config.weight = static_cast<double>(std::uint64_t{1} << rng.below(4));
    total_weight += p.config.weight;
    p.behavior = rng.uniform() < params.attacker_fraction
                     ? static_cast<TenantBehavior>(1 + rng.below(4))
                     : TenantBehavior::kWellBehaved;
    const double slo_draw = rng.uniform();
    using runtime::service::SloClass;
    p.config.slo = slo_draw < 0.3   ? SloClass::kInteractive
                   : slo_draw < 0.8 ? SloClass::kStandard
                                    : SloClass::kBatch;
  }
  for (unsigned i = 0; i < params.tenants; ++i) {
    TenantPlan& p = plans[i];
    p.config.name =
        std::string(to_string(p.behavior)) + "-" + std::to_string(i + 1);
    const double fair_rate = kWellBehavedLoad * capacity_bytes_per_cycle *
                             p.config.weight / total_weight;
    p.config.quota_bytes_per_s = kQuotaHeadroom * fair_rate * clock_hz;
    // Bucket depth must hold a few of the largest jobs, or a small-weight
    // tenant could never submit one at all — quota caps the *rate*, not the
    // job size. (S4's allowance includes the depth, so this stays honest.)
    p.config.burst_seconds =
        p.config.quota_bytes_per_s > 0.0
            ? std::max(0.25, 4.0 * static_cast<double>(max_bytes) /
                                 p.config.quota_bytes_per_s)
            : 0.25;
    p.config.breaker_trip_threshold = 16;
    p.config.breaker = {.initial = 2'000'000,
                        .multiplier = 2.0,
                        .cap = 128'000'000,
                        .jitter = 0.1};
    const bool floods = p.behavior == TenantBehavior::kBurstFlood ||
                        p.behavior == TenantBehavior::kQuotaOscillator;
    p.offered_bytes_per_cycle =
        floods ? params.attacker_overdrive * kQuotaHeadroom * fair_rate
               : fair_rate;
    // Per-tenant stream RNG: muting one tenant cannot shift another's draws.
    p.rng_seed = params.seed * 1000003ULL + i + 1;
  }
  return plans;
}

/// Virtual horizon of the soak: the submission window that makes the full
/// mix's expected job count hit target_jobs. Deterministic for fixed params
/// (used to resolve percent-relative fault schedules before running).
inline arch::Cycles service_soak_horizon(const ServiceSoakParams& params) {
  const runtime::exec::PricingModel pricing{{}};
  const auto shapes = service_job_shapes(pricing);
  const auto plans = plan_tenants(params, shapes, pricing.clock_hz());
  double mean_bytes = 0.0;
  for (const JobShape& s : shapes) mean_bytes += static_cast<double>(s.bytes);
  mean_bytes /= static_cast<double>(shapes.size());
  double jobs_per_cycle = 0.0;
  for (const TenantPlan& p : plans)
    jobs_per_cycle += p.offered_bytes_per_cycle / mean_bytes;
  if (jobs_per_cycle <= 0.0) return 1;
  return static_cast<arch::Cycles>(
      std::ceil(static_cast<double>(params.target_jobs) / jobs_per_cycle));
}

/// One generated submission.
struct SoakJob {
  arch::Cycles arrival = 0;
  std::uint32_t tenant = 0;  ///< plan index + 1 (== registration order)
  std::uint16_t shape = 0;
  bool abusive_deadline = false;  ///< explicit impossible deadline
  bool cancel_after_submit = false;
};

/// Generates one tenant's stream over [0, horizon). Behavior shapes the
/// arrival process: floods draw exponential gaps at an elevated in-burst
/// rate and skip the off phase entirely, so the long-run average stays at
/// the plan's offered rate while the instantaneous rate spikes well above
/// quota.
inline void generate_tenant_stream(const TenantPlan& plan, unsigned tenant_id,
                                   const std::vector<JobShape>& shapes,
                                   arch::Cycles horizon,
                                   std::vector<SoakJob>& out) {
  util::Xoshiro256 rng(plan.rng_seed);
  double mean_bytes = 0.0;
  for (const JobShape& s : shapes) mean_bytes += static_cast<double>(s.bytes);
  mean_bytes /= static_cast<double>(shapes.size());

  double duty = 1.0;  // fraction of each period the tenant submits in
  arch::Cycles period = horizon;
  switch (plan.behavior) {
    case TenantBehavior::kBurstFlood:
      duty = 0.25;
      period = std::max<arch::Cycles>(1, horizon / 32);
      break;
    case TenantBehavior::kQuotaOscillator:
      duty = 0.125;
      period = std::max<arch::Cycles>(1, horizon / 8);
      break;
    default:
      break;
  }
  const double on_rate = plan.offered_bytes_per_cycle / duty;  // bytes/cycle
  const double mean_gap = mean_bytes / on_rate;                // cycles/job
  const auto on_span =
      static_cast<arch::Cycles>(duty * static_cast<double>(period));

  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) * mean_gap;
    auto arrival = static_cast<arch::Cycles>(std::ceil(t));
    if (duty < 1.0 && arrival % period >= on_span) {
      // Fell in the off phase: skip to the next period's on window. Off
      // time produces no draws, so the in-window rate stays on_rate and the
      // long-run average stays duty * on_rate = the plan's offered rate.
      t += static_cast<double>(period - arrival % period);
      arrival = static_cast<arch::Cycles>(std::ceil(t));
    }
    if (arrival >= horizon) break;
    SoakJob j;
    j.arrival = arrival;
    j.tenant = tenant_id;
    j.shape = static_cast<std::uint16_t>(rng.below(shapes.size()));
    j.abusive_deadline = plan.behavior == TenantBehavior::kDeadlineAbuser;
    j.cancel_after_submit = plan.behavior == TenantBehavior::kMidRunFaulter &&
                            rng.uniform() < 0.30;
    out.push_back(j);
  }
}

/// Harness-side per-tenant latency/goodput detail joined from the raw
/// executor reports (TenantSummary carries the service's own view).
struct TenantLatency {
  double mean_ms = 0.0;  ///< mean completed-job sojourn
  /// Bytes completed by window_end — the starvation-freedom currency. Under
  /// drain-to-completion *total* goodput is blind to starvation (a starved
  /// tenant still finishes eventually); bytes served within the offered
  /// window are not.
  std::uint64_t in_window_bytes = 0;
};

struct ServiceSoakResult {
  std::vector<runtime::service::TenantSummary> tenants;
  std::vector<TenantBehavior> behaviors;  ///< indexed like tenants
  std::vector<TenantLatency> latency;     ///< indexed like tenants
  /// Pooled completed-job sojourn percentiles over every well-behaved
  /// tenant: the victim population's latency, stable at any tenant count.
  double victim_pool_p50_ms = 0.0;
  double victim_pool_p99_ms = 0.0;
  arch::Cycles window_end = 0;  ///< horizon + drain allowance
  runtime::exec::ExecutorStats exec_stats;
  arch::Cycles horizon = 0;       ///< submission window (virtual cycles)
  arch::Cycles drained_at = 0;    ///< virtual_now() after drain
  std::uint64_t submissions = 0;  ///< jobs presented at the door
  std::uint64_t door_shed = 0;    ///< throttled + breaker-rejected
  std::uint64_t breaker_opens = 0;
  std::uint64_t cancelled_requests = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t goodput_bytes = 0;
  double clock_hz = 0.0;
  double goodput_gbs = 0.0;
  double capacity_gbs = 0.0;  ///< shape-mix byte rate of the healthy server
  /// Jain's index over well-behaved tenants' goodput/weight ratios.
  double jain_weighted = 1.0;
};

inline ServiceSoakResult run_service_soak(const ServiceSoakParams& params) {
  using runtime::service::Service;
  using runtime::service::ServiceConfig;
  using runtime::service::SloPolicy;

  ServiceConfig scfg;
  scfg.executor.num_workers = params.num_workers;
  // Lanes sized to hold the entire mix: physical queue depth must not shed
  // anything in an accounting soak.
  scfg.executor.lane_capacity = {std::size_t{1} << 21, std::size_t{1} << 21,
                                 std::size_t{1} << 21};
  scfg.executor.truth = params.truth;
  scfg.executor.seed = params.seed;
  // Accounting mode: at this scale the invariants are about virtual time,
  // not kernel output.
  scfg.executor.run_kernels = false;

  const runtime::exec::PricingModel pricing(scfg.executor.pricing);
  const auto shapes = service_job_shapes(pricing);
  const auto plans = plan_tenants(params, shapes, pricing.clock_hz());
  const arch::Cycles horizon = service_soak_horizon(params);

  arch::Cycles max_service = 0;
  for (const JobShape& s : shapes)
    max_service = std::max(max_service, s.healthy_cycles);
  // Overtake insurance at admission plus a queueing-latency floor on SLO
  // deadlines — same rationale as the overload generator's latency floor.
  scfg.executor.admission_margin = 2 * max_service;
  // The soak's SLO classes keep their distinct priority lanes but no
  // implicit deadlines. Under WFQ a flow queueing behind its own earlier
  // jobs legitimately waits ~burst_bytes x (total weight / own weight) —
  // orders of magnitude beyond any deadline sized in units of one job's
  // service time — so class-wide deadlines would only make the SLO itself
  // shed well-behaved small-weight tenants and drown the fairness signal.
  // Starvation-freedom is gated on in-window completion instead (S2), and
  // the deadline/admission machinery is exercised by the deadline-abuser's
  // explicit hopeless deadlines here plus the dedicated overload sweep.
  scfg.slo = {SloPolicy{runtime::exec::Priority::kHigh, 0.0, 0},
              SloPolicy{runtime::exec::Priority::kNormal, 0.0, 0},
              SloPolicy{runtime::exec::Priority::kLow, 0.0, 0}};

  Service svc(scfg);
  for (const TenantPlan& p : plans) (void)svc.register_tenant(p.config);

  // Generate every tenant's stream, then merge into one arrival-ordered
  // submission sequence. Ties break by tenant id and generation order, so a
  // seed replays the identical submission order — bit-stable end to end.
  std::vector<SoakJob> jobs;
  jobs.reserve(params.target_jobs + params.target_jobs / 8);
  for (unsigned i = 0; i < plans.size(); ++i) {
    if (params.mute_attackers &&
        plans[i].behavior != TenantBehavior::kWellBehaved)
      continue;
    generate_tenant_stream(plans[i], i + 1, shapes, horizon, jobs);
  }
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const SoakJob& a, const SoakJob& b) {
                     if (a.arrival != b.arrival) return a.arrival < b.arrival;
                     return a.tenant < b.tenant;
                   });

  ServiceSoakResult out;
  out.horizon = horizon;
  out.clock_hz = pricing.clock_hz();
  out.submissions = jobs.size();

  const auto submit_one = [&](const SoakJob& j) {
    const JobShape& shape = shapes[j.shape];
    runtime::exec::JobSpec spec;
    spec.kind = shape.kind;
    spec.n = shape.n;
    spec.iterations = shape.iterations;
    spec.arrival = j.arrival;
    if (j.abusive_deadline) spec.deadline = j.arrival + 1;  // hopeless
    const runtime::exec::SubmitResult res = svc.submit(j.tenant, spec);
    if (j.cancel_after_submit && res.accepted) {
      (void)svc.cancel(res.id);
      ++out.cancelled_requests;
    }
  };

  // Lockstep submission: free-running workers race the submitter, and which
  // jobs are physically queued at each pop decides the WFQ pick (an A/A
  // rerun drifted per-tenant mean sojourns by up to ~1.4x, more than the
  // isolation gates allow). Lockstep batches make a healthy soak replay
  // bit-identically from its seed, so the muted solo baseline is a true A/B
  // against the adversarial mix. The 16 x max_service lead is the WFQ
  // mixing window.
  submit_lockstep(
      svc.executor(), jobs, 16 * max_service,
      [](const SoakJob& j) { return j.arrival; }, submit_one);
  svc.shutdown(runtime::exec::Executor::Drain::kDrain);

  out.exec_stats = svc.executor().stats();
  out.drained_at = svc.executor().virtual_now();
  out.tenants = svc.summarize();
  out.behaviors.reserve(plans.size());
  for (const TenantPlan& p : plans) out.behaviors.push_back(p.behavior);

  out.window_end = horizon + 64 * max_service;
  out.latency.resize(plans.size());
  std::vector<std::uint64_t> completed_per(plans.size(), 0);
  std::vector<double> victim_pool;
  for (const runtime::exec::JobReport& r : svc.executor().reports()) {
    if (!r.completed || r.tenant == 0 || r.tenant > plans.size()) continue;
    const std::size_t i = r.tenant - 1;
    const double soj_ms =
        static_cast<double>(r.finish - r.arrival) / out.clock_hz * 1e3;
    out.latency[i].mean_ms += soj_ms;
    ++completed_per[i];
    if (r.finish <= out.window_end)
      out.latency[i].in_window_bytes += r.quote.bytes;
    if (out.behaviors[i] == TenantBehavior::kWellBehaved)
      victim_pool.push_back(soj_ms);
  }
  for (std::size_t i = 0; i < out.latency.size(); ++i)
    if (completed_per[i] > 0)
      out.latency[i].mean_ms /= static_cast<double>(completed_per[i]);
  if (!victim_pool.empty()) {
    std::sort(victim_pool.begin(), victim_pool.end());
    const auto at = [&](double p) {
      return victim_pool[static_cast<std::size_t>(
          p * static_cast<double>(victim_pool.size() - 1))];
    };
    out.victim_pool_p50_ms = at(0.50);
    out.victim_pool_p99_ms = at(0.99);
  }

  std::vector<double> fair_shares;
  for (std::size_t i = 0; i < out.tenants.size(); ++i) {
    const auto& t = out.tenants[i];
    out.offered_bytes += t.counters.offered_bytes;
    out.goodput_bytes += t.goodput_bytes;
    out.door_shed += t.counters.throttled + t.counters.breaker_rejected;
    out.breaker_opens += t.counters.breaker_opens;
    if (out.behaviors[i] == TenantBehavior::kWellBehaved &&
        t.counters.submitted > 0)
      fair_shares.push_back(static_cast<double>(t.goodput_bytes) / t.weight);
  }
  out.jain_weighted = Service::jain_index(fair_shares);

  const double horizon_s =
      static_cast<double>(std::max<arch::Cycles>(out.drained_at, 1)) /
      out.clock_hz;
  out.goodput_gbs = static_cast<double>(out.goodput_bytes) / horizon_s / 1e9;
  double mean_bytes = 0.0, mean_cycles = 0.0;
  for (const JobShape& s : shapes) {
    mean_bytes += static_cast<double>(s.bytes);
    mean_cycles += static_cast<double>(s.healthy_cycles);
  }
  out.capacity_gbs = mean_bytes / mean_cycles * out.clock_hz / 1e9;
  return out;
}

/// Seeds a ServiceSoakParams for one chaos seed: tenant population, every
/// per-tenant stream, and the controller-fault schedule all derive from
/// `seed`, so a failing seed replays bit-for-bit in the regression tier.
inline ServiceSoakParams service_chaos_params(std::uint64_t seed,
                                              unsigned tenants, unsigned jobs,
                                              unsigned workers) {
  ServiceSoakParams params;
  params.tenants = tenants;
  params.target_jobs = jobs;
  params.seed = seed;
  params.num_workers = workers;
  params.attacker_fraction = 0.05;  // denser chaos than the reference mix
  util::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  const arch::InterleaveSpec ispec{};
  const arch::Cycles horizon = service_soak_horizon(params);
  params.truth = random_overload_schedule(rng, ispec.num_controllers())
                     .resolved(horizon + horizon / 4);
  return params;
}

/// Checks S1-S4 on a mixed run, with `baseline` the attacker-muted twin.
/// `degraded` (a mid-run controller fault was injected) waives the
/// starvation floor and the p99 ratio — conservation and containment hold
/// regardless.
inline std::vector<std::string> check_service_invariants(
    const ServiceSoakParams& params, const ServiceSoakResult& mixed,
    const ServiceSoakResult& baseline, bool degraded = false) {
  using runtime::service::TenantSummary;
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) { failures.push_back(what); };

  if (mixed.tenants.size() != params.tenants ||
      baseline.tenants.size() != params.tenants) {
    fail("S1: tenant registry size mismatch");
    return failures;
  }

  // Global: every forwarded job has exactly one executor report.
  std::uint64_t forwarded = 0;
  for (const TenantSummary& t : mixed.tenants)
    forwarded += t.counters.forwarded;
  if (mixed.exec_stats.submitted != forwarded)
    fail("S1: executor saw " + std::to_string(mixed.exec_stats.submitted) +
         " submissions for " + std::to_string(forwarded) + " forwarded jobs");

  // S4's quota allowance re-derives the plan (deterministic in params).
  const runtime::exec::PricingModel pricing{{}};
  const auto shapes = service_job_shapes(pricing);
  const auto plans = plan_tenants(params, shapes, pricing.clock_hz());
  std::uint64_t max_bytes = 0;
  for (const JobShape& s : shapes) max_bytes = std::max(max_bytes, s.bytes);

  for (std::size_t i = 0; i < mixed.tenants.size(); ++i) {
    const TenantSummary& t = mixed.tenants[i];
    const std::string who =
        "tenant " + std::to_string(t.id) + " (" + t.name + ")";

    // S1 per tenant, both layers.
    if (t.counters.offered_bytes !=
        t.counters.door_shed_bytes + t.counters.forwarded_bytes)
      fail("S1: " + who + " offered " +
           std::to_string(t.counters.offered_bytes) + " B != door-shed " +
           std::to_string(t.counters.door_shed_bytes) + " + forwarded " +
           std::to_string(t.counters.forwarded_bytes));
    if (t.counters.forwarded_bytes != t.goodput_bytes + t.exec_shed_bytes)
      fail("S1: " + who + " forwarded " +
           std::to_string(t.counters.forwarded_bytes) + " B != goodput " +
           std::to_string(t.goodput_bytes) + " + executor-shed " +
           std::to_string(t.exec_shed_bytes));

    // S4 containment: past-the-door traffic is capped by the quota over the
    // submission window plus one bucket depth (the burst allowance) plus
    // one job of refill slop.
    const double quota_per_cycle =
        plans[i].config.quota_bytes_per_s / mixed.clock_hz;
    if (quota_per_cycle > 0.0) {
      const double allowance =
          quota_per_cycle * static_cast<double>(mixed.horizon) +
          plans[i].config.quota_bytes_per_s * plans[i].config.burst_seconds +
          static_cast<double>(max_bytes);
      if (static_cast<double>(t.counters.forwarded_bytes) > allowance)
        fail("S4: " + who + " pushed " +
             std::to_string(t.counters.forwarded_bytes) +
             " B past the door > quota allowance " +
             std::to_string(static_cast<std::uint64_t>(allowance)) + " B");
    }
  }

  for (std::size_t i = 0; i < mixed.tenants.size(); ++i) {
    if (mixed.behaviors[i] != TenantBehavior::kWellBehaved) continue;
    const TenantSummary& t = mixed.tenants[i];
    const TenantSummary& b = baseline.tenants[i];
    const std::string who =
        "tenant " + std::to_string(t.id) + " (" + t.name + ")";

    // The muting construction: a victim's stream is identical in both runs.
    if (t.counters.submitted != b.counters.submitted)
      fail("S3: " + who + " submitted " +
           std::to_string(t.counters.submitted) + " jobs mixed vs " +
           std::to_string(b.counters.submitted) +
           " solo — baseline construction broken");

    if (degraded || t.counters.submitted == 0) continue;

    // S2 starvation-freedom: >= 90% of offered bytes complete *within the
    // offered window* (total goodput is blind to starvation under drain).
    const double ratio = static_cast<double>(mixed.latency[i].in_window_bytes) /
                         static_cast<double>(t.counters.offered_bytes);
    if (ratio < 0.90)
      fail("S2: " + who + " completed only " + std::to_string(ratio * 100.0) +
           "% of its offered bytes in-window under attack");

    // S3 isolation, per tenant. The mean sojourn is stable at any sample
    // count; the per-tenant p99 is a single sparse order statistic, so it
    // is gated only once both runs have enough completions to pin it down.
    const double eps_ms = 0.05;
    if (t.completed >= 100 && b.completed >= 100 &&
        mixed.latency[i].mean_ms >
            baseline.latency[i].mean_ms * 1.25 + eps_ms)
      fail("S3: " + who + " mean sojourn " +
           std::to_string(mixed.latency[i].mean_ms) +
           " ms under attack > 1.25x solo mean " +
           std::to_string(baseline.latency[i].mean_ms) + " ms");
    if (t.completed >= 1000 && b.completed >= 1000 &&
        t.p99_ms > b.p99_ms * 1.25 + eps_ms)
      fail("S3: " + who + " p99 " + std::to_string(t.p99_ms) +
           " ms under attack > 1.25x solo p99 " + std::to_string(b.p99_ms) +
           " ms");
  }

  // S3, population level: the pooled p99 over every well-behaved tenant's
  // completed jobs — the headline isolation number, statistically stable
  // even when single tenants see too few jobs for a per-tenant p99.
  if (!degraded && baseline.victim_pool_p99_ms > 0.0 &&
      mixed.victim_pool_p99_ms >
          baseline.victim_pool_p99_ms * 1.25 + 0.05)
    fail("S3: pooled well-behaved p99 " +
         std::to_string(mixed.victim_pool_p99_ms) +
         " ms under attack > 1.25x solo pooled p99 " +
         std::to_string(baseline.victim_pool_p99_ms) + " ms");
  return failures;
}

}  // namespace mcopt::bench
