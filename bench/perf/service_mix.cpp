// service-mix: the multi-tenant control plane alone — the door (quota,
// breaker), pricing, the WFQ queue and supervisor ingest — with job bodies
// skipped (run_kernels = false) and no journal.
//
// 1000 tenants, 2% adversarial, open-loop Poisson arrivals on the virtual
// clock. The tenant kinds are those of the service soak (BENCH_service.json):
// burst floods, hopeless deadlines, quota oscillation, and mid-run faulters
// that cancel ~30% of their accepted jobs. The soak draws each tenant's
// traits at random (seed 1 has 17 adversaries: 1/4/5/7); here the make-up
// is fixed (weights, SLO classes and adversary kinds in exact proportions,
// 5 of each kind) and the seed decides which tenant gets which traits and
// every arrival, so the amount of work barely depends on the seed.
//
// Arrivals are published in lockstep batches (hold dequeue, submit
// everything due within the WFQ mixing window, release, wait for the queue
// to empty), so every verdict and every virtual service window is a pure
// function of the seeded stream: each lap must reproduce the first lap's
// verdict sequence exactly. In wall time the driver waits for each batch, so
// the run is closed-loop.

#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "runtime/executor/pricing.h"
#include "runtime/service/service.h"
#include "util/crc.h"
#include "util/prng.h"
#include "util/stats.h"

namespace mcopt::perf {
namespace {

using runtime::exec::JobKind;
using runtime::exec::JobSpec;
using runtime::service::SloClass;
using runtime::service::TenantConfig;

enum class Behavior {
  kWell,
  kFlood,
  kDeadlineAbuser,
  kOscillator,
  kMidRunFaulter  ///< cancels ~30% of its accepted jobs right after submit
};

struct Shape {
  JobKind kind = JobKind::kTriad;
  std::size_t n = 0;
  unsigned iterations = 1;
  std::uint64_t bytes = 0;
  arch::Cycles healthy_cycles = 0;
};

struct Submission {
  arch::Cycles arrival = 0;
  std::uint32_t tenant = 0;  ///< 1-based, registration order
  std::uint16_t shape = 0;
  Behavior behavior = Behavior::kWell;
  bool cancel = false;
};

JobSpec spec_of(const Shape& s) {
  JobSpec spec;
  spec.kind = s.kind;
  spec.n = s.n;
  spec.iterations = s.iterations;
  return spec;
}

class ServiceMix final : public Workload {
 public:
  explicit ServiceMix(const Options& opt)
      : opt_(opt),
        tenants_(opt.smoke ? 50 : 1000),
        target_(opt.smoke ? 4000 : 125'000),
        window_jobs_(kTraceWindowEvents / 8) {}

  unsigned workers() const override { return kWorkers; }

  void setup() override {
    const runtime::exec::PricingModel pricing{{}};
    shapes_.clear();
    for (const std::size_t n : {1024u, 2048u, 4096u})
      for (const unsigned it : {1u, 2u}) shapes_.push_back({JobKind::kTriad, n, it});
    for (const std::size_t n : {32u, 48u, 64u})
      for (const unsigned it : {1u, 2u}) shapes_.push_back({JobKind::kJacobi, n, it});
    double mean_bytes = 0.0, mean_cycles = 0.0;
    std::uint64_t max_bytes = 0;
    max_service_ = 0;
    for (Shape& s : shapes_) {
      const auto quote = pricing.price(spec_of(s), {}).value();
      s.bytes = quote.bytes;
      s.healthy_cycles = quote.service_cycles;
      mean_bytes += static_cast<double>(s.bytes);
      mean_cycles += static_cast<double>(s.healthy_cycles);
      max_bytes = std::max(max_bytes, s.bytes);
      max_service_ = std::max(max_service_, s.healthy_cycles);
    }
    mean_bytes /= static_cast<double>(shapes_.size());
    mean_cycles /= static_cast<double>(shapes_.size());
    const double capacity = mean_bytes / mean_cycles;  // bytes per cycle

    // Tenant population: weights 1/2/4/8 in equal numbers, SLO classes
    // 30/50/20, 2% adversaries of the four kinds in equal numbers, dealt
    // over a seeded permutation of the tenants.
    util::Xoshiro256 rng(opt_.seed * 0x9e3779b97f4a7c15ULL + 17);
    std::vector<unsigned> perm(tenants_);
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1], perm[rng.below(i)]);
    const unsigned adversaries = std::max(1u, tenants_ / 50);
    configs_.assign(tenants_, TenantConfig{});
    behaviors_.assign(tenants_, Behavior::kWell);
    double total_weight = 0.0;
    for (unsigned i = 0; i < tenants_; ++i) {
      const unsigned t = perm[i];
      configs_[t].weight = static_cast<double>(1u << (i % 4));
      total_weight += configs_[t].weight;
      const unsigned slo = (i / 4) % 10;
      configs_[t].slo = slo < 3   ? SloClass::kInteractive
                        : slo < 8 ? SloClass::kStandard
                                  : SloClass::kBatch;
      if (i < adversaries) behaviors_[t] = static_cast<Behavior>(1 + (i / 4) % 4);
    }
    // Quotas at 1.5x the weight-proportional share of 70% load; attackers
    // offer 4x their quota.
    std::vector<double> offered(tenants_);
    double jobs_per_cycle = 0.0;
    for (unsigned i = 0; i < tenants_; ++i) {
      TenantConfig& c = configs_[i];
      c.name = "tenant-" + std::to_string(i + 1);
      const double fair = 0.70 * capacity * c.weight / total_weight;
      c.quota_bytes_per_s = 1.5 * fair * pricing.clock_hz();
      // The bucket must hold a few of the largest jobs, or a small tenant
      // could never submit one.
      c.burst_seconds =
          std::max(0.25, 4.0 * static_cast<double>(max_bytes) / c.quota_bytes_per_s);
      c.breaker = {.initial = 2'000'000, .multiplier = 2.0,
                   .cap = 128'000'000, .jitter = 0.1};
      const bool floods = behaviors_[i] == Behavior::kFlood ||
                          behaviors_[i] == Behavior::kOscillator;
      offered[i] = floods ? 4.0 * 1.5 * fair : fair;
      jobs_per_cycle += offered[i] / mean_bytes;
    }
    const auto horizon = static_cast<arch::Cycles>(
        std::ceil(static_cast<double>(target_) / jobs_per_cycle));

    stream_.clear();
    for (unsigned i = 0; i < tenants_; ++i)
      generate(i, offered[i], mean_bytes, horizon, opt_.seed * 1000003ULL + i + 1);
    std::stable_sort(stream_.begin(), stream_.end(),
                     [](const Submission& a, const Submission& b) {
                       return a.arrival != b.arrival ? a.arrival < b.arrival
                                                     : a.tenant < b.tenant;
                     });
  }

  Lap lap(TraceWindow& window, HostSpeed& speed) override {
    using runtime::service::Service;
    Lap out;
    const ActiveTimer timer(speed);
    runtime::service::ServiceConfig scfg;
    scfg.executor.num_workers = kWorkers;
    // Lanes hold the whole stream: physical queue depth must not shed
    // anything in an unpaced accounting run.
    scfg.executor.lane_capacity = {std::size_t{1} << 21, std::size_t{1} << 21,
                                   std::size_t{1} << 21};
    scfg.executor.seed = opt_.seed;
    scfg.executor.run_kernels = false;
    scfg.executor.admission_margin = 2 * max_service_;
    // No class-wide deadlines: under WFQ a small-weight flow legitimately
    // queues behind its own burst; the deadline path is exercised by the
    // deadline abusers' explicit hopeless deadlines.
    scfg.slo = {runtime::service::SloPolicy{runtime::exec::Priority::kHigh, 0.0, 0},
                runtime::service::SloPolicy{runtime::exec::Priority::kNormal, 0.0, 0},
                runtime::service::SloPolicy{runtime::exec::Priority::kLow, 0.0, 0}};
    Service svc(scfg);
    for (const TenantConfig& c : configs_) (void)svc.register_tenant(c);

    window.open();
    util::Crc32c verdicts;
    const arch::Cycles lead = 16 * max_service_;
    const bool sample = !window.recording();
    if (sample) out.latency_s.reserve(stream_.size());
    std::size_t i = 0;
    while (i < stream_.size()) {
      const arch::Cycles frontier =
          std::max(svc.executor().virtual_now(), stream_[i].arrival) + lead;
      svc.executor().hold_dequeue();
      for (; i < stream_.size() && stream_[i].arrival <= frontier; ++i) {
        const Submission& s = stream_[i];
        JobSpec spec = spec_of(shapes_[s.shape]);
        spec.arrival = s.arrival;
        if (s.behavior == Behavior::kDeadlineAbuser) spec.deadline = s.arrival + 1;
        const Clock::time_point c0 = Clock::now();
        runtime::exec::SubmitResult res;
        {
          const obs::TraceSpan span("perf.submit", "perf", s.tenant, i);
          res = svc.submit(s.tenant, std::move(spec));
        }
        if (sample) out.latency_s.push_back(seconds_between(c0, Clock::now()));
        if (s.cancel && res.accepted) {
          const obs::TraceSpan span("perf.cancel", "perf", s.tenant, i);
          (void)svc.cancel(res.id);
        }
        const std::uint32_t verdict[2] = {res.accepted ? 1u : 0u,
                                          static_cast<std::uint32_t>(res.rejected)};
        verdicts.update(verdict, sizeof(verdict));
      }
      svc.executor().release_dequeue();
      {
        const obs::TraceSpan span("perf.wait", "perf");
        while (svc.executor().queued() > 0) std::this_thread::yield();
      }
      if (!window.closed() && i >= window_jobs_)
        window.close(static_cast<double>(i));
      speed.quiesced();
    }
    if (!window.closed()) window.close(static_cast<double>(i));
    svc.shutdown(runtime::exec::Executor::Drain::kDrain);
    out.seconds = timer.seconds();
    out.ops = static_cast<double>(stream_.size());

    check_lap(svc, verdicts.value());
    return out;
  }

  void finish(Report& r, const Layers* layers) override {
    r.count_attempted(attempted_);
    r.count_failed(failed_);
    r.gate("service.conservation", conservation_failures_ == 0,
           std::to_string(conservation_failures_) +
               " S1 violations (offered != door-shed + forwarded, forwarded != "
               "goodput + executor-shed, or not exactly one report per "
               "forwarded job)");
    r.gate("service.laps_identical", diverged_laps_ == 0,
           std::to_string(diverged_laps_) +
               " laps produced a different verdict sequence than the first");
    r.digest("verdict_digest", first_digest_);
    r.metric("runtime.service.door_shed_frac", door_shed_frac_, "fraction");
    r.metric("runtime.exec.shed_frac", exec_shed_frac_, "fraction");
    r.metric("submissions_per_lap", static_cast<double>(stream_.size()), "count");
    if (layers == nullptr) return;
    r.metric("runtime.service.submit_s",
             layers->scale * layers->driver_self({"perf.submit"}), "s");
    r.metric("runtime.exec.drain_wait_s",
             layers->scale * layers->driver_self({"perf.wait"}), "s");
    std::vector<double> waits;
    for (const auto& [id, secs] : layers->queue_wait_s)
      waits.push_back(secs * layers->scale * 1e6);
    r.metric("runtime.exec.queue_wait_us.p50",
             waits.empty() ? 0.0 : util::percentile(waits, 50.0), "us");
    r.metric("runtime.exec.queue_wait_us.p99",
             waits.empty() ? 0.0 : util::percentile(waits, 99.0), "us");
    std::vector<JobSpec> specs;
    for (const Shape& s : shapes_) specs.push_back(spec_of(s));
    r.metric("runtime.exec.price_ns", price_ns(specs), "ns");
    r.metric("runtime.exec.estimate_ns", estimate_ns(specs), "ns");
    r.metric("kernels.triad_ns_per_elem", triad_ns_per_elem(4096), "ns");
  }

 private:
  static constexpr unsigned kWorkers = 3;

  /// One tenant's arrivals over [0, horizon): exponential gaps at its
  /// offered rate; floods compress the same average into on-windows (a
  /// quarter of each horizon/32 period, or an eighth of each horizon/8).
  void generate(unsigned idx, double offered_bytes_per_cycle, double mean_bytes,
                arch::Cycles horizon, std::uint64_t seed) {
    util::Xoshiro256 rng(seed);
    const Behavior b = behaviors_[idx];
    double duty = 1.0;
    arch::Cycles period = horizon;
    if (b == Behavior::kFlood) {
      duty = 0.25;
      period = std::max<arch::Cycles>(1, horizon / 32);
    } else if (b == Behavior::kOscillator) {
      duty = 0.125;
      period = std::max<arch::Cycles>(1, horizon / 8);
    }
    const double mean_gap = mean_bytes / (offered_bytes_per_cycle / duty);
    const auto on_span = static_cast<arch::Cycles>(duty * static_cast<double>(period));
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) * mean_gap;
      auto arrival = static_cast<arch::Cycles>(std::ceil(t));
      if (duty < 1.0 && arrival % period >= on_span) {
        t += static_cast<double>(period - arrival % period);
        arrival = static_cast<arch::Cycles>(std::ceil(t));
      }
      if (arrival >= horizon) break;
      Submission s;
      s.arrival = arrival;
      s.tenant = idx + 1;
      s.shape = static_cast<std::uint16_t>(rng.below(shapes_.size()));
      s.behavior = b;
      s.cancel = b == Behavior::kMidRunFaulter && rng.uniform() < 0.30;
      stream_.push_back(s);
    }
  }

  /// S1 conservation at both layers plus the lap-determinism gate.
  void check_lap(const runtime::service::Service& svc, std::uint32_t digest) {
    const std::vector<runtime::service::TenantSummary> sums = svc.summarize();
    const std::vector<runtime::exec::JobReport> reports = svc.executor().reports();
    std::uint64_t forwarded = 0, door_shed = 0, submitted = 0, exec_shed = 0;
    for (const auto& t : sums) {
      const auto& c = t.counters;
      if (c.offered_bytes != c.door_shed_bytes + c.forwarded_bytes ||
          c.forwarded_bytes != t.goodput_bytes + t.exec_shed_bytes)
        ++conservation_failures_;
      forwarded += c.forwarded;
      door_shed += c.throttled + c.breaker_rejected;
      submitted += c.submitted;
    }
    bool unique = true;
    for (std::size_t k = 0; k < reports.size(); ++k) {
      if (k > 0 && reports[k].id <= reports[k - 1].id) unique = false;
      if (!reports[k].completed) ++exec_shed;
    }
    if (!unique || reports.size() != forwarded ||
        svc.executor().stats().submitted != forwarded)
      ++conservation_failures_;
    attempted_ += submitted;
    if (submitted != stream_.size()) failed_ += stream_.size() - submitted;
    door_shed_frac_ = static_cast<double>(door_shed) / static_cast<double>(submitted);
    exec_shed_frac_ = static_cast<double>(exec_shed) / static_cast<double>(submitted);
    if (!have_digest_) {
      first_digest_ = digest;
      have_digest_ = true;
    } else if (digest != first_digest_) {
      ++diverged_laps_;
    }
  }

  Options opt_;
  unsigned tenants_;
  std::size_t target_;
  std::size_t window_jobs_;
  std::vector<Shape> shapes_;
  std::vector<TenantConfig> configs_;
  std::vector<Behavior> behaviors_;
  std::vector<Submission> stream_;
  arch::Cycles max_service_ = 0;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t conservation_failures_ = 0;
  std::uint64_t diverged_laps_ = 0;
  std::uint32_t first_digest_ = 0;
  bool have_digest_ = false;
  double door_shed_frac_ = 0.0;
  double exec_shed_frac_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_service_mix(const Options& opt) {
  return std::make_unique<ServiceMix>(opt);
}

}  // namespace mcopt::perf
