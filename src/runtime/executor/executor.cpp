#include "runtime/executor/executor.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/jacobi.h"
#include "kernels/lbm/solver.h"
#include "kernels/triad.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc.h"
#include "util/log.h"

namespace mcopt::runtime::exec {
namespace {

constexpr std::size_t shed_index(ShedReason r) noexcept {
  return static_cast<std::size_t>(r);
}

std::uint32_t crc_grid(const seg::seg_array<double>& g) {
  util::Crc32c crc;
  for (std::size_t i = 0; i < g.num_segments(); ++i)
    crc.update(g.segment(i).begin(), g.segment(i).size() * sizeof(double));
  return crc.value();
}

/// Typed shed-event names: one literal per reason so a trace consumer can
/// classify sheds without parsing args (the recorder stores pointers, so
/// these must be literals).
const char* shed_event_name(ShedReason r) noexcept {
  switch (r) {
    case ShedReason::kQueueFull: return "job.shed.queue-full";
    case ShedReason::kWouldMissDeadline: return "job.shed.would-miss-deadline";
    case ShedReason::kNoCapacity: return "job.shed.no-capacity";
    case ShedReason::kDeadlineExpiredInQueue: return "job.shed.deadline-expired";
    case ShedReason::kCancelled: return "job.shed.cancelled";
    case ShedReason::kShutdown: return "job.shed.shutdown";
    case ShedReason::kTenantThrottled: return "job.shed.tenant-throttled";
    case ShedReason::kNone: break;
  }
  return "job.shed";
}

/// Executor metrics, registered once; updates are relaxed atomics on the
/// submit/worker paths.
struct ExecMetrics {
  obs::Counter& submitted;
  obs::Counter& admitted;
  obs::Counter& completed;
  obs::Counter& shed;
  obs::Counter& replans;
  obs::Counter& breaker_trips;
  obs::Histogram& sojourn;

  static ExecMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static ExecMetrics m{
        reg.counter("mcopt_exec_jobs_submitted_total", "Jobs submitted"),
        reg.counter("mcopt_exec_jobs_admitted_total",
                    "Jobs past admission control"),
        reg.counter("mcopt_exec_jobs_completed_total", "Jobs completed"),
        reg.counter("mcopt_exec_jobs_shed_total",
                    "Jobs shed for any reason (admission or later)"),
        reg.counter("mcopt_exec_replans_total",
                    "Replans committed by the control step"),
        reg.counter("mcopt_exec_breaker_trips_total",
                    "Circuit-breaker arms on diagnosed-dead controllers"),
        reg.histogram("mcopt_exec_job_sojourn_cycles",
                      {1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9},
                      "Completed-job sojourn (finish - arrival), sim cycles")};
    return m;
  }
};

}  // namespace

Executor::Executor(ExecutorConfig cfg)
    : cfg_(std::move(cfg)),
      pricing_(cfg_.pricing),
      queue_(cfg_.lane_capacity, cfg_.queue_policy),
      supervisor_(cfg_.detector, cfg_.pricing.map.spec(), cfg_.seed) {
  if (cfg_.num_workers == 0)
    throw std::invalid_argument("Executor: num_workers must be >= 1");
  if (cfg_.truth.has_relative())
    throw std::invalid_argument(
        "Executor: truth schedule has unresolved percent bounds — call "
        "resolved(horizon) first");
  cfg_.truth.check(cfg_.pricing.map.spec()).throw_if_failed();

  const unsigned nc = cfg_.pricing.map.spec().num_controllers();
  breakers_.reserve(nc);
  for (unsigned c = 0; c < nc; ++c)
    breakers_.emplace_back(cfg_.breaker, cfg_.seed + c + 1);
  breaker_open_.assign(nc, false);

  workers_.reserve(cfg_.num_workers);
  for (unsigned i = 0; i < cfg_.num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Executor::~Executor() { shutdown(Drain::kShedQueued); }

void Executor::advance_arrival_clock(arch::Cycles to) noexcept {
  arch::Cycles seen = arrival_clock_.load(std::memory_order_relaxed);
  while (seen < to && !arrival_clock_.compare_exchange_weak(
                          seen, to, std::memory_order_relaxed)) {
  }
}

arch::Cycles Executor::virtual_now() const noexcept {
  return std::max(arrival_clock_.load(std::memory_order_relaxed),
                  service_tail_.load(std::memory_order_relaxed));
}

Executor::VirtualClocks Executor::virtual_clocks() const noexcept {
  return VirtualClocks{arrival_clock_.load(std::memory_order_relaxed),
                       service_tail_.load(std::memory_order_relaxed),
                       admit_tail_.load(std::memory_order_relaxed)};
}

void Executor::restore_virtual_clocks(const VirtualClocks& c) noexcept {
  arrival_clock_.store(c.arrival, std::memory_order_relaxed);
  service_tail_.store(c.service_tail, std::memory_order_relaxed);
  admit_tail_.store(c.admit_tail, std::memory_order_relaxed);
}

sim::FaultSpec Executor::believed_fault() const {
  const std::lock_guard<std::mutex> guard(believed_mu_);
  return believed_;
}

sim::FaultSpec Executor::effective_fault(arch::Cycles now) const {
  const std::lock_guard<std::mutex> guard(believed_mu_);
  return effective_fault_locked(now);
}

sim::FaultSpec Executor::effective_fault_locked(arch::Cycles now) const {
  sim::FaultSpec eff = believed_;
  for (unsigned c = 0; c < breakers_.size(); ++c)
    if (!eff.is_offline(c) && breakers_[c].ready_in(now) > 0)
      eff.offline_controllers.push_back(c);
  return eff;
}

std::vector<unsigned> Executor::broken_controllers(arch::Cycles now) const {
  const std::lock_guard<std::mutex> guard(believed_mu_);
  std::vector<unsigned> out;
  for (unsigned c = 0; c < breakers_.size(); ++c)
    if (breakers_[c].ready_in(now) > 0) out.push_back(c);
  return out;
}

SubmitResult Executor::submit(const JobSpec& spec) {
  if (!(spec.fair_weight > 0.0))
    throw std::invalid_argument("Executor: JobSpec::fair_weight must be > 0");
  (void)PricingModel::traffic_bytes(spec);  // throws when it overflows
  SubmitResult out;
  out.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  ExecMetrics::get().submitted.inc();
  obs::trace_instant("job.submit", "exec", out.id, spec.arrival);
  advance_arrival_clock(spec.arrival);

  JobReport rep;
  rep.id = out.id;
  rep.kind = spec.kind;
  rep.priority = spec.priority;
  rep.tenant = spec.tenant;
  rep.arrival = spec.arrival;
  rep.deadline = spec.deadline;
  rep.trace_id = spec.trace_id;

  const auto reject = [&](ShedReason r) {
    out.accepted = false;
    out.rejected = r;
    rep.shed = r;
    shed_[shed_index(r)].fetch_add(1, std::memory_order_relaxed);
    ExecMetrics::get().shed.inc();
    obs::trace_instant(shed_event_name(r), "exec", out.id, spec.arrival);
    if (spec.trace_id != 0)
      obs::trace_flow_end("job.flow.reject", "causal", spec.trace_id, out.id);
    finalize(std::move(rep));
    return out;
  };

  if (stopped_.load(std::memory_order_acquire)) return reject(ShedReason::kShutdown);

  const arch::Cycles vnow = virtual_now();
  auto quote = pricing_.price(spec, effective_fault(vnow));
  if (!quote) return reject(ShedReason::kNoCapacity);
  rep.quote = quote.value();

  // Serialized-server projection over admitted jobs, in submission order:
  // this job starts no earlier than its arrival and no earlier than the
  // projected finish of everything admitted before it (the bandwidth server
  // serves one job at a time). Earlier-admitted work queued "behind" in lane
  // order still serves within the same busy period, so the projection is
  // exact for the aggregate and conservative per job up to priority
  // overtake — which admission_margin absorbs and expiry-shedding bounds.
  const arch::Cycles service = quote.value().service_cycles;
  arch::Cycles tail = admit_tail_.load(std::memory_order_relaxed);
  for (;;) {
    const arch::Cycles start_est = std::max(tail, spec.arrival);
    const arch::Cycles finish_est = start_est + service;
    if (spec.deadline != kNoDeadline &&
        finish_est + cfg_.admission_margin > spec.deadline)
      return reject(ShedReason::kWouldMissDeadline);
    if (admit_tail_.compare_exchange_weak(tail, finish_est,
                                          std::memory_order_relaxed))
      break;
  }

  Pending p;
  p.spec = spec;
  p.id = out.id;
  p.quote = std::move(quote.value());

  CancellationSource source;
  p.token = source.token();
  {
    const std::lock_guard<std::mutex> guard(cancel_mu_);
    cancel_sources_.emplace(out.id, std::move(source));
  }

  // Under kWeightedFair the tenant is the flow and the quote's bytes are
  // the job's WFQ length — fairness is measured in bandwidth, not jobs.
  if (!queue_.try_push(spec.priority, spec.tenant, spec.fair_weight,
                       p.quote.bytes, std::move(p))) {
    // Return the projection the rejected job reserved.
    admit_tail_.fetch_sub(service, std::memory_order_relaxed);
    return reject(ShedReason::kQueueFull);
  }
  out.accepted = true;
  ExecMetrics::get().admitted.inc();
  obs::trace_instant("job.admit", "exec", out.id, spec.arrival);
  if (spec.trace_id != 0)
    obs::trace_flow_step("job.flow.admit", "causal", spec.trace_id, out.id);
  return out;
}

bool Executor::cancel(std::uint64_t id) {
  const std::lock_guard<std::mutex> guard(cancel_mu_);
  const auto it = cancel_sources_.find(id);
  if (it == cancel_sources_.end()) return false;
  it->second.cancel();
  return true;
}

void Executor::worker_loop() {
  for (;;) {
    auto item = queue_.pop([this](Pending& p) {
      // Under the queue lock: reserve the service window against the
      // bandwidth server. Reservation order IS pop order.
      const arch::Cycles start =
          std::max(service_tail_.load(std::memory_order_relaxed),
                   p.spec.arrival);
      p.start = start;
      if (p.spec.deadline != kNoDeadline && start >= p.spec.deadline) {
        p.expired = true;  // shed: consumes no bandwidth, tail unchanged
        p.finish = start;
      } else {
        p.finish = start + p.quote.service_cycles;
        service_tail_.store(p.finish, std::memory_order_relaxed);
      }
    });
    if (!item) return;  // closed and drained
    process(std::move(*item));
  }
}

void Executor::process(Pending&& job) {
  JobReport rep;
  rep.id = job.id;
  rep.kind = job.spec.kind;
  rep.priority = job.spec.priority;
  rep.tenant = job.spec.tenant;
  rep.arrival = job.spec.arrival;
  rep.deadline = job.spec.deadline;
  rep.quote = job.quote;
  rep.start = job.start;
  rep.finish = job.finish;
  rep.trace_id = job.spec.trace_id;

  obs::trace_instant("job.start", "exec", job.id, job.start);
  if (job.spec.trace_id != 0)
    obs::trace_flow_step("job.flow.run", "causal", job.spec.trace_id, job.id);
  if (job.expired) {
    rep.shed = ShedReason::kDeadlineExpiredInQueue;
  } else if (job.token.cancelled()) {
    rep.shed = ShedReason::kCancelled;  // cancelled before the body started
  } else {
    const obs::TraceSpan span("job.run", "exec", job.id,
                              static_cast<std::uint64_t>(job.spec.kind));
    run_body(job, rep);
  }

  if (rep.shed == ShedReason::kNone) {
    rep.completed = true;
    completed_.fetch_add(1, std::memory_order_relaxed);
    goodput_bytes_.fetch_add(rep.quote.bytes, std::memory_order_relaxed);
    ExecMetrics& m = ExecMetrics::get();
    m.completed.inc();
    m.sojourn.observe(static_cast<double>(rep.finish - rep.arrival));
    if (job.spec.trace_id != 0)
      obs::trace_flow_end("job.flow.complete", "causal", job.spec.trace_id,
                          job.id);
    ingest_sample(job);
    control_step();
  } else {
    shed_[shed_index(rep.shed)].fetch_add(1, std::memory_order_relaxed);
    ExecMetrics::get().shed.inc();
    obs::trace_instant(shed_event_name(rep.shed), "exec", job.id, job.start);
    if (job.spec.trace_id != 0)
      obs::trace_flow_end("job.flow.shed", "causal", job.spec.trace_id,
                          job.id);
  }
  finalize(std::move(rep));
}

void Executor::run_body(Pending& job, JobReport& rep) {
  const unsigned iterations = job.spec.iterations;
  unsigned done = 0;
  bool cancelled = false;

  if (!cfg_.run_kernels) {
    for (unsigned it = 0; it < iterations; ++it) {
      if (job.token.cancelled()) {
        cancelled = true;
        break;
      }
      ++done;
      if (job.spec.on_generation) job.spec.on_generation(done);
    }
    rep.iterations_done = done;
    if (cancelled) rep.shed = ShedReason::kCancelled;
    return;
  }

  switch (job.spec.kind) {
    case JobKind::kTriad: {
      const std::size_t n = std::max<std::size_t>(job.spec.n, 1);
      std::vector<double> a(n, 0.0), b(n), c(n), d(n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto x = static_cast<double>(i);
        b[i] = 1.0 + 0.5 * x;
        c[i] = 2.0 - 1e-3 * x;
        d[i] = 0.25 + 1e-6 * x;
      }
      for (unsigned it = 0; it < iterations; ++it) {
        if (job.token.cancelled()) {
          cancelled = true;
          break;
        }
        kernels::triad_local(a.data(), b.data(), c.data(), d.data(), n);
        ++done;
        if (job.spec.on_generation) job.spec.on_generation(done);
      }
      if (done > 0) rep.field_crc = util::crc32c(a.data(), n * sizeof(double));
      break;
    }
    case JobKind::kJacobi: {
      const std::size_t n = std::max<std::size_t>(job.spec.n, 3);
      const seg::LayoutSpec spec = kernels::jacobi_plain_spec();
      seg::seg_array<double> g1 = kernels::make_jacobi_grid(n, spec);
      seg::seg_array<double> g2 = kernels::make_jacobi_grid(n, spec);
      kernels::init_jacobi(g1);
      kernels::init_jacobi(g2);
      seg::seg_array<double>* cur = &g1;
      seg::seg_array<double>* nxt = &g2;
      for (unsigned it = 0; it < iterations && !cancelled; ++it) {
        // Serial sweep, cancellation polled at row (segment) granularity:
        // observing the token mid-sweep abandons the in-progress destination
        // grid — the source grid, never written, IS the last completed
        // generation, bit-identically.
        for (std::size_t i = 1; i + 1 < n; ++i) {
          if (job.token.cancelled()) {
            cancelled = true;
            break;
          }
          kernels::relax_line(nxt->segment(i).begin(),
                              cur->segment(i - 1).begin(),
                              cur->segment(i + 1).begin(),
                              cur->segment(i).begin(), n);
        }
        if (cancelled) break;
        std::swap(cur, nxt);
        ++done;
        if (job.spec.on_generation) job.spec.on_generation(done);
      }
      rep.field_crc = crc_grid(*cur);
      break;
    }
    case JobKind::kLbm: {
      // NOTE: Solver::step() is OpenMP-parallel inside — LBM jobs are
      // excluded from TSan-filtered tests and from the soak's default mix.
      const std::size_t n = std::max<std::size_t>(job.spec.n, 4);
      kernels::lbm::Solver::Params params;
      params.geometry = kernels::lbm::Geometry{n, n, n, 0,
                                               kernels::lbm::DataLayout::kIJKv};
      kernels::lbm::Solver solver(params);
      solver.make_channel_walls_z();
      solver.initialize();
      for (unsigned it = 0; it < iterations; ++it) {
        if (job.token.cancelled()) {
          cancelled = true;
          break;
        }
        (void)solver.step();
        ++done;
        if (job.spec.on_generation) job.spec.on_generation(done);
      }
      const auto& f = solver.distributions();
      rep.field_crc = util::crc32c(f.data(), f.size() * sizeof(double));
      break;
    }
  }

  rep.iterations_done = done;
  if (cancelled) rep.shed = ShedReason::kCancelled;
}

void Executor::ingest_sample(const Pending& job) {
  // Measurement stand-in: what the hardware's counters would have read over
  // this job's service window is the analytic utilization under the GROUND
  // TRUTH fault state — not the believed one. This is the executor's only
  // window onto truth, and it flows through the supervisor like any other
  // measurement.
  const sim::FaultSpec truth = cfg_.truth.active_at(job.finish);
  auto est = pricing_.estimate(job.spec.kind, truth);
  if (!est) return;  // no surviving controller in truth: no signal either
  Sample s;
  s.begin = job.start;
  s.end = job.finish;
  s.mc_utilization = std::move(est.value().mc_utilization);
  const std::lock_guard<std::mutex> guard(ingest_mu_);
  ingest_.push_back(std::move(s));
}

void Executor::control_step() {
  // Whichever worker wins the try-lock becomes the control plane for this
  // round; everyone else just leaves their samples on the ingestion queue.
  // This is the single consumer the supervisor's threading contract names.
  const std::unique_lock<std::mutex> control(control_mu_, std::try_to_lock);
  if (!control.owns_lock()) return;
  for (;;) {
    std::deque<Sample> batch;
    {
      const std::lock_guard<std::mutex> guard(ingest_mu_);
      batch.swap(ingest_);
    }
    if (batch.empty()) return;
    for (const Sample& s : batch) {
      const Decision d = supervisor_.observe(s);
      if (d.action != Action::kReplan) continue;
      supervisor_.commit(s.end);
      replans_.fetch_add(1, std::memory_order_relaxed);
      ExecMetrics::get().replans.inc();
      obs::trace_instant("exec.replan", "exec", s.end, 0);
      util::log_info("executor: replan committed at " + std::to_string(s.end) +
                     " diagnosis=" + d.diagnosis.describe());
      apply_diagnosis(d.diagnosis, s.end);
    }
  }
}

void Executor::apply_diagnosis(const sim::FaultSpec& diagnosis,
                               arch::Cycles now) {
  {
    const std::lock_guard<std::mutex> guard(believed_mu_);
    for (unsigned c = 0; c < breakers_.size(); ++c) {
      const bool off = diagnosis.is_offline(c);
      if (off && !breaker_open_[c]) {
        // Newly diagnosed dead: arm (re-arming a flapping controller
        // escalates the hold geometrically).
        (void)breakers_[c].arm(now);
        breaker_trips_.fetch_add(1, std::memory_order_relaxed);
        ExecMetrics::get().breaker_trips.inc();
        obs::trace_instant("exec.breaker", "exec", c, now);
        util::log_info("executor: breaker armed mc" + std::to_string(c) +
                       " until " + std::to_string(breakers_[c].ready_at()));
      }
      breaker_open_[c] = off;
    }
    believed_ = diagnosis;
  }
  reprice_queued(now);
}

void Executor::reprice_queued(arch::Cycles now) {
  const sim::FaultSpec eff = effective_fault(now);
  queue_.for_each([&](Pending& p) {
    auto q = pricing_.price(p.spec, eff);
    // Unpriceable under the new state (whole chip excluded): keep the old
    // quote; the job stays queued and is served or expired like any other.
    if (!q) return;
    // Keep the admission projection honest: queued work just got cheaper or
    // dearer (uint64 wraparound keeps the sum exact for negative deltas).
    admit_tail_.fetch_add(q.value().service_cycles - p.quote.service_cycles,
                          std::memory_order_relaxed);
    p.quote = std::move(q.value());
  });
}

void Executor::finalize(JobReport rep) {
  {
    const std::lock_guard<std::mutex> guard(cancel_mu_);
    cancel_sources_.erase(rep.id);
  }
  const std::lock_guard<std::mutex> guard(reports_mu_);
  reports_.push_back(std::move(rep));
}

void Executor::shutdown(Drain mode) {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;

  std::vector<Pending> shed;
  if (mode == Drain::kShedQueued) shed = queue_.shed_all();
  queue_.close();
  for (std::thread& t : workers_) t.join();

  for (Pending& p : shed) {
    JobReport rep;
    rep.id = p.id;
    rep.kind = p.spec.kind;
    rep.priority = p.spec.priority;
    rep.tenant = p.spec.tenant;
    rep.arrival = p.spec.arrival;
    rep.deadline = p.spec.deadline;
    rep.quote = p.quote;
    rep.trace_id = p.spec.trace_id;
    rep.shed = ShedReason::kShutdown;
    shed_[shed_index(ShedReason::kShutdown)].fetch_add(
        1, std::memory_order_relaxed);
    ExecMetrics::get().shed.inc();
    obs::trace_instant(shed_event_name(ShedReason::kShutdown), "exec", p.id, 0);
    if (p.spec.trace_id != 0)
      obs::trace_flow_end("job.flow.shed", "causal", p.spec.trace_id, p.id);
    finalize(std::move(rep));
  }
  control_step();  // drain the last samples into the supervisor
}

std::vector<JobReport> Executor::reports() const {
  std::vector<JobReport> out;
  {
    const std::lock_guard<std::mutex> guard(reports_mu_);
    out = reports_;
  }
  std::sort(out.begin(), out.end(),
            [](const JobReport& a, const JobReport& b) { return a.id < b.id; });
  return out;
}

std::vector<JobReport> Executor::reports_tail(std::size_t from) const {
  const std::lock_guard<std::mutex> guard(reports_mu_);
  if (from >= reports_.size()) return {};
  return {reports_.begin() + static_cast<std::ptrdiff_t>(from),
          reports_.end()};
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.shed.size(); ++i)
    s.shed[i] = shed_[i].load(std::memory_order_relaxed);
  s.goodput_bytes = goodput_bytes_.load(std::memory_order_relaxed);
  s.replans = replans_.load(std::memory_order_relaxed);
  s.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mcopt::runtime::exec
