// durable-kernels: the durable service with real job bodies — where the
// write-ahead journal, the state snapshot and the serial triad/Jacobi
// kernels dominate, and which service-mix bypasses entirely.
//
// A lap is one service life in a fresh directory: open, a closed loop of
// submissions (64 outstanding, batches of 16, one flush() group commit per
// batch, pump()/poll() for outcomes, a quiesced checkpoint() every 4096
// completions), then drain(). Eight batch-SLO tenants without quotas, so no
// shed depends on timing: every submission must complete, exactly once,
// with the same field CRC as every other job of its shape. After each lap
// the directory is reopened to prove the drained journal is sealed with no
// torn tail. LBM jobs are left out: their OpenMP body would oversubscribe
// the cores the three workers and the driver already use.

#include <deque>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness.h"
#include "kernels/jacobi.h"
#include "kernels/triad.h"
#include "obs/metrics.h"
#include "runtime/durable/service_handle.h"
#include "util/crc.h"
#include "util/prng.h"
#include "util/stats.h"

namespace mcopt::perf {
namespace {

namespace fs = std::filesystem;
using runtime::durable::PollResult;
using runtime::durable::ServiceHandle;
using runtime::durable::SubmissionState;
using runtime::exec::JobKind;
using runtime::exec::JobSpec;

constexpr std::size_t kOutstanding = 64;
constexpr std::size_t kBatch = 16;
constexpr std::uint64_t kCheckpointEvery = 4096;

struct Shape {
  JobKind kind = JobKind::kTriad;
  std::size_t n = 0;
  unsigned iterations = 1;
};

JobSpec spec_of(const Shape& s) {
  JobSpec spec;
  spec.kind = s.kind;
  spec.n = s.n;
  spec.iterations = s.iterations;
  return spec;
}

std::uint64_t registry_counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

double mean_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::mean(xs);
}

class DurableKernels final : public Workload {
 public:
  explicit DurableKernels(const Options& opt)
      : opt_(opt),
        jobs_per_lap_(opt.smoke ? 600 : 40'000),
        window_jobs_(kTraceWindowEvents / 16),
        root_(opt.out_dir + "/durable-" + std::to_string(::getpid())) {
    for (const std::size_t n : {2048u, 4096u, 8192u})
      for (const unsigned it : {1u, 2u, 4u}) shapes_.push_back({JobKind::kTriad, n, it});
    for (const std::size_t n : {32u, 48u, 64u})
      for (const unsigned it : {1u, 2u, 4u}) shapes_.push_back({JobKind::kJacobi, n, it});
    shape_crc_.assign(shapes_.size(), std::nullopt);
  }

  ~DurableKernels() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  unsigned workers() const override { return kWorkers; }

  void setup() override {
    // Seeded plan with a fixed make-up: tenant weights 1/2/4 dealt over a
    // seeded tenant order, every shape equally often (to within one) in a
    // seeded job order, tenants drawn uniformly per submission.
    util::Xoshiro256 rng(opt_.seed * 0x9e3779b97f4a7c15ULL + 29);
    cfg_ = runtime::durable::DurableConfig{};
    cfg_.service.executor.num_workers = kWorkers;
    cfg_.service.executor.lane_capacity = {1024, 1024, 1024};
    cfg_.service.executor.seed = opt_.seed;
    cfg_.instance = opt_.seed;
    std::vector<unsigned> tenant_order(kTenants);
    std::iota(tenant_order.begin(), tenant_order.end(), 0u);
    shuffle(tenant_order, rng);
    cfg_.tenants.assign(kTenants, {});
    for (unsigned i = 0; i < kTenants; ++i) {
      const unsigned t = tenant_order[i];
      cfg_.tenants[t] = {.name = "tenant-" + std::to_string(t + 1),
                         .weight = static_cast<double>(1u << (i % 3)),
                         .slo = runtime::service::SloClass::kBatch};
    }
    std::vector<std::uint16_t> shape_of(jobs_per_lap_);
    for (std::size_t k = 0; k < shape_of.size(); ++k)
      shape_of[k] = static_cast<std::uint16_t>(k % shapes_.size());
    shuffle(shape_of, rng);
    plan_.assign(jobs_per_lap_ + 1, {});
    for (std::uint64_t id = 1; id <= jobs_per_lap_; ++id)
      plan_[id] = {static_cast<std::uint32_t>(1 + rng.below(kTenants)),
                   shape_of[id - 1]};
    // Opening a durable service in a fresh directory is part of set-up.
    cfg_.dir = root_ + "/setup";
    std::error_code ec;
    fs::remove_all(cfg_.dir, ec);
    fs::create_directories(root_);
    {
      auto handle = ServiceHandle::open(cfg_);
      if (!handle) throw std::runtime_error(handle.error().message);
    }
    fs::remove_all(cfg_.dir, ec);
  }

  Lap lap(TraceWindow& window, HostSpeed& speed) override {
    Lap out;
    cfg_.dir = root_ + "/lap-" + std::to_string(laps_++);
    std::error_code ec;
    fs::remove_all(cfg_.dir, ec);
    const std::uint64_t fsyncs0 = registry_counter("mcopt_journal_fsyncs_total");
    const std::uint64_t bytes0 = registry_counter("mcopt_journal_bytes_total");

    const ActiveTimer timer(speed);
    auto opened = ServiceHandle::open(cfg_);
    if (!opened) throw std::runtime_error(opened.error().message);
    ServiceHandle& h = *opened.value();

    struct Pending {
      std::uint64_t id;
      Clock::time_point submitted;
    };
    std::deque<Pending> pending;
    std::vector<std::uint8_t> resolved(jobs_per_lap_ + 1, 0);
    std::vector<std::uint32_t> outcome(jobs_per_lap_ + 1, 0);
    // Jobs the executor has finalized; the driver idles until it moves.
    const auto finished = [&h] {
      const runtime::exec::ExecutorStats s = h.service().executor().stats();
      std::uint64_t total = s.completed;
      for (const std::uint64_t shed : s.shed) total += shed;
      return total;
    };
    std::uint64_t next_id = 1, done = 0, since_checkpoint = 0;
    const bool sample = !window.recording();
    window.open();
    while (done < jobs_per_lap_) {
      // A checkpoint needs a quiesced service: stop submitting, let the
      // outstanding jobs resolve, then snapshot.
      if (since_checkpoint >= kCheckpointEvery && pending.empty()) {
        speed.quiesced();
        const obs::TraceSpan span("perf.checkpoint", "perf");
        check(h.checkpoint(), "checkpoint");
        since_checkpoint = 0;
      }
      while (since_checkpoint < kCheckpointEvery &&
             pending.size() + kBatch <= kOutstanding && next_id <= jobs_per_lap_) {
        const std::size_t first = pending.size();
        for (std::size_t k = 0; k < kBatch && next_id <= jobs_per_lap_; ++k) {
          const std::uint64_t id = next_id++;
          pending.push_back({id, Clock::now()});
          JobSpec spec = spec_of(shapes_[plan_[id].shape]);
          spec.arrival = id * 20000;
          runtime::durable::SubmitAck ack;
          {
            const obs::TraceSpan span("perf.submit", "perf", id, 0);
            ack = h.submit(plan_[id].tenant, id, std::move(spec));
          }
          if (window.recording() && ack.exec_id != 0)
            traced_shape_[ack.exec_id] = plan_[id].shape;
        }
        {
          const obs::TraceSpan span("perf.flush", "perf");
          check(h.flush(), "flush");
        }
        if (sample) {
          const Clock::time_point acked = Clock::now();
          for (std::size_t k = first; k < pending.size(); ++k)
            out.ack_s.push_back(seconds_between(pending[k].submitted, acked));
        }
      }
      const std::uint64_t seen = finished();
      {
        const obs::TraceSpan span("perf.pump", "perf");
        (void)h.pump();
      }
      std::size_t resolved_now = 0;
      {
        const obs::TraceSpan span("perf.poll", "perf");
        for (auto it = pending.begin(); it != pending.end();) {
          const PollResult p = h.poll(it->id);
          if (p.state != SubmissionState::kCompleted &&
              p.state != SubmissionState::kShed) {
            ++it;
            continue;
          }
          if (sample)
            out.latency_s.push_back(seconds_between(it->submitted, Clock::now()));
          resolve(it->id, p, resolved, outcome);
          ++resolved_now;
          it = pending.erase(it);
        }
      }
      done += resolved_now;
      since_checkpoint += resolved_now;
      if (!window.closed() && done >= window_jobs_)
        window.close(static_cast<double>(done));
      if (resolved_now == 0 && !pending.empty()) {
        // Bounded: a report can land just after the counter moved, so the
        // counter alone cannot be trusted to move again.
        const obs::TraceSpan span("perf.wait", "perf");
        const Clock::time_point w0 = Clock::now();
        while (finished() == seen &&
               Clock::now() - w0 < std::chrono::microseconds(200))
          std::this_thread::yield();
      }
    }
    if (!window.closed()) window.close(static_cast<double>(done));
    check(h.drain(), "drain");
    out.seconds = timer.seconds();
    out.ops = static_cast<double>(done);
    speed.quiesced();

    const std::vector<runtime::durable::TenantLedger> ledger = h.ledger();
    opened.value().reset();
    check_lap(ledger, resolved, outcome);
    if (sample) {
      const double jobs = static_cast<double>(jobs_per_lap_);
      fsyncs_per_job_ = static_cast<double>(
          registry_counter("mcopt_journal_fsyncs_total") - fsyncs0) / jobs;
      journal_bytes_per_job_ = static_cast<double>(
          registry_counter("mcopt_journal_bytes_total") - bytes0) / jobs;
    }
    fs::remove_all(cfg_.dir, ec);
    return out;
  }

  void finish(Report& r, const Layers* layers) override {
    r.count_attempted(attempted_);
    r.count_failed(failed_);
    r.gate("durable.resolved_once", failed_ == 0,
           std::to_string(failed_) + " of " + std::to_string(attempted_) +
               " submissions were shed, unresolved, resolved twice, or "
               "disagreed with their shape's field CRC");
    r.gate("durable.ledger", ledger_mismatches_ == 0,
           std::to_string(ledger_mismatches_) +
               " laps whose per-tenant ledger did not sum to the submissions");
    r.gate("durable.reopen_sealed", unsealed_reopens_ == 0,
           std::to_string(unsealed_reopens_) +
               " drained journals reopened unsealed or with a torn tail");
    r.gate("durable.laps_identical", diverged_laps_ == 0,
           std::to_string(diverged_laps_) +
               " laps produced a different outcome sequence than the first");
    r.digest("verdict_digest", first_digest_);
    r.metric("runtime.durable.fsyncs_per_job", fsyncs_per_job_, "count/job");
    r.metric("runtime.durable.journal_bytes_per_job", journal_bytes_per_job_,
             "B/job");
    if (layers == nullptr) return;

    // Per-call host cost of each durable entry point in the traced window.
    const double scale = layers->scale;
    const auto durations = [&](const char* name) {
      const auto it = layers->driver_durations_s.find(name);
      std::vector<double> out;
      if (it != layers->driver_durations_s.end())
        for (const double s : it->second) out.push_back(s * scale);
      return out;
    };
    const std::vector<double> flush = durations("perf.flush");
    r.metric("runtime.durable.submit_us", 1e6 * mean_of(durations("perf.submit")),
             "us");
    r.metric("runtime.durable.flush_ms.p50",
             flush.empty() ? 0.0 : 1e3 * util::percentile(flush, 50.0), "ms");
    r.metric("runtime.durable.flush_ms.p99",
             flush.empty() ? 0.0 : 1e3 * util::percentile(flush, 99.0), "ms");
    r.metric("runtime.durable.pump_ms", 1e3 * mean_of(durations("perf.pump")), "ms");
    r.metric("runtime.durable.poll_us", 1e6 * mean_of(durations("perf.poll")), "us");
    r.metric("runtime.durable.checkpoint_ms",
             1e3 * mean_of(durations("perf.checkpoint")), "ms");

    // Kernel-only cost per shape on preallocated buffers: what a job body
    // would cost without its per-job allocation and initialisation.
    std::vector<double> kernel_s(shapes_.size());
    for (std::size_t s = 0; s < shapes_.size(); ++s)
      kernel_s[s] = kernel_only_seconds(shapes_[s]);
    double kernel = 0.0, run = 0.0;
    std::vector<double> run_us[2];
    for (const auto& [id, secs] : layers->job_run_s) {
      const auto shape = traced_shape_.find(id);
      if (shape == traced_shape_.end()) continue;
      kernel += kernel_s[shape->second];
      run += secs * scale;
      run_us[shapes_[shape->second].kind == JobKind::kTriad ? 0 : 1].push_back(
          secs * scale * 1e6);
    }
    r.metric("runtime.exec.body_overhead_share",
             run > 0.0 ? 1.0 - kernel / run : 0.0, "fraction");
    r.metric("kernels.job_run_us.triad", mean_of(run_us[0]), "us");
    r.metric("kernels.job_run_us.jacobi", mean_of(run_us[1]), "us");
    std::vector<JobSpec> specs;
    for (const Shape& s : shapes_) specs.push_back(spec_of(s));
    r.metric("runtime.exec.price_ns", price_ns(specs), "ns");
    r.metric("runtime.exec.estimate_ns", estimate_ns(specs), "ns");
    r.metric("kernels.triad_ns_per_elem", triad_ns_per_elem(4096), "ns");
  }

 private:
  static constexpr unsigned kWorkers = 3;
  static constexpr unsigned kTenants = 8;

  struct Planned {
    std::uint32_t tenant = 0;
    std::uint16_t shape = 0;
  };

  template <typename T>
  static void shuffle(std::vector<T>& v, util::Xoshiro256& rng) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  }

  static void check(const util::Status& s, const char* what) {
    if (!s.ok())
      throw std::runtime_error(std::string(what) + ": " + s.error().message);
  }

  static double kernel_only_seconds(const Shape& s) {
    if (s.kind == JobKind::kTriad) {
      std::vector<double> a(s.n, 0.0), b(s.n, 1.0), c(s.n, 2.0), d(s.n, 0.5);
      return side_time([&] {
        for (unsigned it = 0; it < s.iterations; ++it)
          kernels::triad_local(a.data(), b.data(), c.data(), d.data(), s.n);
      }, 0.01);
    }
    const seg::LayoutSpec spec = kernels::jacobi_plain_spec();
    seg::seg_array<double> g1 = kernels::make_jacobi_grid(s.n, spec);
    seg::seg_array<double> g2 = kernels::make_jacobi_grid(s.n, spec);
    kernels::init_jacobi(g1);
    kernels::init_jacobi(g2);
    return side_time([&] {
      seg::seg_array<double>* cur = &g1;
      seg::seg_array<double>* nxt = &g2;
      for (unsigned it = 0; it < s.iterations; ++it) {
        for (std::size_t i = 1; i + 1 < s.n; ++i)
          kernels::relax_line(nxt->segment(i).begin(), cur->segment(i - 1).begin(),
                              cur->segment(i + 1).begin(), cur->segment(i).begin(),
                              s.n);
        std::swap(cur, nxt);
      }
    }, 0.01);
  }

  void resolve(std::uint64_t id, const PollResult& p,
               std::vector<std::uint8_t>& resolved,
               std::vector<std::uint32_t>& outcome) {
    ++attempted_;
    bool ok = resolved[id]++ == 0 && p.state == SubmissionState::kCompleted;
    std::optional<std::uint32_t>& expect = shape_crc_[plan_[id].shape];
    if (ok && !expect) expect = p.field_crc;
    ok = ok && p.field_crc == *expect;
    if (!ok) ++failed_;
    outcome[id] = p.state == SubmissionState::kCompleted ? p.field_crc : 0;
  }

  void check_lap(const std::vector<runtime::durable::TenantLedger>& ledger,
                 const std::vector<std::uint8_t>& resolved,
                 const std::vector<std::uint32_t>& outcome) {
    std::uint64_t completed = 0, sheds = 0;
    for (const auto& l : ledger) {
      completed += l.completed;
      sheds += l.sheds;
    }
    if (completed != jobs_per_lap_ || sheds != 0) ++ledger_mismatches_;
    for (std::uint64_t id = 1; id <= jobs_per_lap_; ++id)
      if (resolved[id] != 1) ++failed_;

    // Reopen the drained directory: a sealed journal, nothing truncated.
    auto reopened = ServiceHandle::open(cfg_);
    if (!reopened || !reopened.value()->recovery_info().was_sealed ||
        reopened.value()->recovery_info().dropped_bytes != 0)
      ++unsealed_reopens_;

    const std::uint32_t digest =
        util::crc32c(outcome.data(), outcome.size() * sizeof(std::uint32_t));
    if (laps_ == 1) {
      first_digest_ = digest;
    } else if (digest != first_digest_) {
      ++diverged_laps_;
    }
  }

  Options opt_;
  std::uint64_t jobs_per_lap_;
  std::uint64_t window_jobs_;
  std::string root_;
  std::vector<Shape> shapes_;
  std::vector<Planned> plan_;
  runtime::durable::DurableConfig cfg_;
  unsigned laps_ = 0;

  /// Field CRC every job of a shape must reproduce (first one seen).
  std::vector<std::optional<std::uint32_t>> shape_crc_;
  std::map<std::uint64_t, std::size_t> traced_shape_;  ///< exec id -> shape
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t ledger_mismatches_ = 0;
  std::uint64_t unsealed_reopens_ = 0;
  std::uint64_t diverged_laps_ = 0;
  std::uint32_t first_digest_ = 0;
  double fsyncs_per_job_ = 0.0;
  double journal_bytes_per_job_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_durable_kernels(const Options& opt) {
  return std::make_unique<DurableKernels>(opt);
}

}  // namespace mcopt::perf
