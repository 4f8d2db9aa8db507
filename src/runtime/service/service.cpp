#include "runtime/service/service.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"

namespace mcopt::runtime::service {
namespace {

/// Service-door metrics, registered once; per-tenant breakdowns live in the
/// service's own counter table (a thousand-tenant soak would otherwise mint
/// a thousand instruments per family) — traces carry the tenant id instead.
struct ServiceMetrics {
  obs::Counter& submitted;
  obs::Counter& throttled;
  obs::Counter& breaker_rejected;
  obs::Counter& breaker_opens;
  obs::Counter& forwarded;
  obs::Gauge& tenants;

  static ServiceMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static ServiceMetrics m{
        reg.counter("mcopt_service_jobs_submitted_total",
                    "Jobs presented at the service door"),
        reg.counter("mcopt_service_jobs_throttled_total",
                    "Door rejections: tenant over bandwidth quota"),
        reg.counter("mcopt_service_jobs_breaker_rejected_total",
                    "Door rejections: tenant circuit breaker open"),
        reg.counter("mcopt_service_breaker_opens_total",
                    "Tenant circuit-breaker open transitions"),
        reg.counter("mcopt_service_jobs_forwarded_total",
                    "Jobs past the door into the executor"),
        reg.gauge("mcopt_service_tenants", "Registered tenants")};
    return m;
  }
};

}  // namespace

Service::Service(ServiceConfig cfg) : cfg_(std::move(cfg)), executor_([&] {
  // The WFQ pop policy is what makes per-tenant weights mean anything;
  // the service never runs strict-priority.
  cfg_.executor.queue_policy = exec::QueuePolicy::kWeightedFair;
  return cfg_.executor;
}()) {
  clock_hz_ = executor_.pricing().clock_hz();
}

TenantId Service::register_tenant(TenantConfig tc) {
  if (!(tc.weight > 0.0))
    throw std::invalid_argument("Service: tenant weight must be > 0");
  if (tc.quota_bytes_per_s < 0.0)
    throw std::invalid_argument("Service: tenant quota must be >= 0");
  if (!(tc.burst_seconds > 0.0))
    throw std::invalid_argument("Service: tenant burst_seconds must be > 0");
  if (static_cast<std::size_t>(tc.slo) >= kNumSloClasses)
    throw std::invalid_argument("Service: unknown SLO class");
  const std::lock_guard<std::mutex> guard(mu_);
  const auto id = static_cast<TenantId>(tenants_.size() + 1);
  // Per-tenant breaker jitter seed: deterministic, distinct per tenant.
  tenants_.emplace_back(std::move(tc), cfg_.executor.seed + 7919ULL * id);
  ServiceMetrics::get().tenants.set(static_cast<double>(tenants_.size()));
  return id;
}

unsigned Service::num_tenants() const {
  const std::lock_guard<std::mutex> guard(mu_);
  return static_cast<unsigned>(tenants_.size());
}

TenantSnapshot Service::tenant(TenantId id) const {
  const std::lock_guard<std::mutex> guard(mu_);
  if (id == 0 || id > tenants_.size())
    throw std::out_of_range("Service: unknown tenant id " + std::to_string(id));
  const Tenant& t = tenants_[id - 1];
  TenantSnapshot snap;
  snap.id = id;
  snap.config = t.cfg;
  snap.counters = t.counters;
  snap.breaker = t.breaker.state();
  snap.quota_level_bytes = t.quota_level_bytes;
  return snap;
}

exec::SubmitResult Service::submit(TenantId tenant, exec::JobSpec spec) {
  return submit_impl(tenant, std::move(spec), /*forward=*/true);
}

exec::SubmitResult Service::submit_replay(TenantId tenant, exec::JobSpec spec,
                                          bool forward) {
  return submit_impl(tenant, std::move(spec), forward);
}

exec::SubmitResult Service::submit_impl(TenantId tenant, exec::JobSpec spec,
                                        bool forward) {
  using exec::ShedReason;
  ServiceMetrics& m = ServiceMetrics::get();
  const std::uint64_t bytes = exec::PricingModel::traffic_bytes(spec);

  const std::lock_guard<std::mutex> guard(mu_);
  if (tenant == 0 || tenant > tenants_.size())
    throw std::out_of_range("Service: unknown tenant id " +
                            std::to_string(tenant));
  Tenant& t = tenants_[tenant - 1];
  door_clock_ = std::max(door_clock_, spec.arrival);
  const arch::Cycles now = door_clock_;

  ++t.counters.submitted;
  t.counters.offered_bytes += bytes;
  m.submitted.inc();
  obs::trace_instant("svc.submit", "service", tenant, spec.arrival);
  // Causal chain root: every submission gets a trace id at the door (jobs
  // arriving with one — durable replays — keep it; the chain must survive
  // the restart). The flow-start arrow is what obs_query stitches from.
  if (spec.trace_id == 0) spec.trace_id = obs::next_trace_id();
  obs::trace_flow_start("job.flow.submit", "causal", spec.trace_id, tenant);

  // Door rejections: typed, O(1), and invisible to the executor — neither
  // its admission projection nor its report log learns the job existed.
  const auto reject = [&](bool breaker_hold) {
    if (breaker_hold) {
      ++t.counters.breaker_rejected;
      m.breaker_rejected.inc();
      obs::trace_instant("svc.breaker.reject", "service", tenant, now);
    } else {
      ++t.counters.throttled;
      m.throttled.inc();
      obs::trace_instant("svc.throttle", "service", tenant, now);
    }
    t.counters.door_shed_bytes += bytes;
    obs::trace_flow_end("job.flow.door-shed", "causal", spec.trace_id, tenant);
    // A door shed never reached pricing, so there is no plan set to spread
    // the bytes over: controller -1 is the "no placement" cell.
    obs::Attribution::instance().charge(
        tenant, -1, obs::Charge::kShed,
        static_cast<std::uint32_t>(ShedReason::kTenantThrottled), bytes);
    exec::SubmitResult out;
    out.accepted = false;
    out.rejected = ShedReason::kTenantThrottled;
    return out;
  };

  if (!t.breaker.allow(now)) return reject(/*breaker_hold=*/true);

  if (t.cfg.quota_bytes_per_s > 0.0) {
    const double rate_per_cycle = t.cfg.quota_bytes_per_s / clock_hz_;
    const double depth = t.cfg.quota_bytes_per_s * t.cfg.burst_seconds;
    t.quota_level_bytes =
        std::min(depth, t.quota_level_bytes +
                            static_cast<double>(now - t.last_refill) *
                                rate_per_cycle);
    t.last_refill = now;
    if (static_cast<double>(bytes) > t.quota_level_bytes) {
      const auto before = t.breaker.state();
      t.breaker.record_failure(now);
      if (before != util::CircuitBreaker::State::kOpen &&
          t.breaker.state() == util::CircuitBreaker::State::kOpen) {
        ++t.counters.breaker_opens;
        m.breaker_opens.inc();
        obs::trace_instant("svc.breaker.open", "service", tenant, now);
        util::log_info("service: breaker opened tenant=" +
                       std::to_string(tenant) + " name=" + t.cfg.name +
                       " now=" + std::to_string(now));
      }
      return reject(/*breaker_hold=*/false);
    }
    t.quota_level_bytes -= static_cast<double>(bytes);
  }
  // Within quota: the half-open probe (if this was one) succeeded, and any
  // closed-state failure streak is forgiven — throttles must be
  // *consecutive* to open the breaker.
  t.breaker.record_success();

  spec.tenant = tenant;
  spec.fair_weight = t.cfg.weight;
  const SloPolicy& pol = cfg_.slo[static_cast<std::size_t>(t.cfg.slo)];
  spec.priority = pol.priority;
  if (spec.deadline == exec::kNoDeadline && pol.deadline_slack > 0.0) {
    // The healthy quote is a table lookup. It only fails if the chip has
    // no controllers at all; fall back to one cycle so the deadline stays
    // finite rather than wedging.
    const auto healthy = executor_.pricing().price(spec, sim::FaultSpec{});
    const arch::Cycles cycles = healthy ? healthy.value().service_cycles : 1;
    spec.deadline = now + pol.deadline_floor +
                    static_cast<arch::Cycles>(std::ceil(
                        static_cast<double>(cycles) * pol.deadline_slack));
  }

  ++t.counters.forwarded;
  t.counters.forwarded_bytes += bytes;
  m.forwarded.inc();
  if (!forward) {
    // Replay of a job whose executor outcome is already on record: the door
    // state advanced exactly as the original run's did; the caller applies
    // the journaled outcome (including the accepted counter) itself.
    exec::SubmitResult out;
    out.accepted = true;
    return out;
  }
  const exec::SubmitResult res = executor_.submit(spec);
  if (res.accepted) ++t.counters.accepted;
  return res;
}

void Service::credit_replayed_accept(TenantId tenant) {
  const std::lock_guard<std::mutex> guard(mu_);
  if (tenant == 0 || tenant > tenants_.size())
    throw std::out_of_range("Service: unknown tenant id " +
                            std::to_string(tenant));
  ++tenants_[tenant - 1].counters.accepted;
}

DoorSnapshot Service::snapshot_door() const {
  const std::lock_guard<std::mutex> guard(mu_);
  DoorSnapshot snap;
  snap.door_clock = door_clock_;
  snap.tenants.reserve(tenants_.size());
  for (const Tenant& t : tenants_) {
    DoorTenantState s;
    s.counters = t.counters;
    s.breaker = t.breaker.snapshot();
    s.quota_level_bytes = t.quota_level_bytes;
    s.last_refill = t.last_refill;
    snap.tenants.push_back(s);
  }
  return snap;
}

util::Status Service::restore_door(const DoorSnapshot& snap) {
  const std::lock_guard<std::mutex> guard(mu_);
  if (snap.tenants.size() != tenants_.size())
    return util::Status::failure(
        "Service: door snapshot carries " +
        std::to_string(snap.tenants.size()) + " tenants, " +
        std::to_string(tenants_.size()) + " are registered");
  door_clock_ = snap.door_clock;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = tenants_[i];
    const DoorTenantState& s = snap.tenants[i];
    t.counters = s.counters;
    t.breaker.restore(s.breaker);
    t.quota_level_bytes = s.quota_level_bytes;
    t.last_refill = s.last_refill;
  }
  return util::Status{};
}

std::vector<TenantSummary> Service::summarize() const {
  std::vector<TenantSummary> out;
  std::vector<std::vector<double>> sojourn_ms;
  {
    const std::lock_guard<std::mutex> guard(mu_);
    out.reserve(tenants_.size());
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      TenantSummary s;
      s.id = static_cast<TenantId>(i + 1);
      s.name = tenants_[i].cfg.name;
      s.weight = tenants_[i].cfg.weight;
      s.slo = tenants_[i].cfg.slo;
      s.counters = tenants_[i].counters;
      out.push_back(std::move(s));
    }
  }
  sojourn_ms.resize(out.size());

  for (const exec::JobReport& r : executor_.reports()) {
    if (r.tenant == 0 || r.tenant > out.size()) continue;
    TenantSummary& s = out[r.tenant - 1];
    if (r.completed) {
      ++s.completed;
      s.goodput_bytes += r.quote.bytes;
      if (r.missed_deadline()) ++s.missed_deadlines;
      sojourn_ms[r.tenant - 1].push_back(
          static_cast<double>(r.finish - r.arrival) / clock_hz_ * 1e3);
    } else {
      s.exec_shed_bytes += r.quote.bytes;
    }
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    auto& v = sojourn_ms[i];
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const auto at = [&](double p) {
      return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
    };
    out[i].p50_ms = at(0.50);
    out[i].p99_ms = at(0.99);
  }
  return out;
}

double Service::jain_index(const std::vector<double>& x) {
  double sum = 0.0, sumsq = 0.0;
  for (const double v : x) {
    sum += v;
    sumsq += v * v;
  }
  if (x.empty() || sumsq <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(x.size()) * sumsq);
}

}  // namespace mcopt::runtime::service
