#pragma once
// Shared plumbing of the wall-clock benchmark harness (mcopt_perf).
//
// The harness measures the *system's* cost — host seconds spent simulating,
// pricing, admitting, journaling and running jobs — not the simulated GB/s
// the paper reproduces. Every workload builds its inputs from one seeded
// generator using the public src/ headers only (never bench/*.h), so edits
// to the figure and soak helpers cannot silently change what is measured.
//
// A run is: set-up repeated kSetupReps times (the median is setup_s), then
// laps until the run length is used up. A lap is one self-contained unit of
// the workload (one DES sweep pass, one service stream, one durable service
// life), so memory per lap is bounded and every lap must reproduce the same
// outputs. Rates and latency percentiles are medians over laps.
//
// Every reported time is in reference-host seconds: wall seconds scaled by
// HostSpeed::kReferenceSliceS over the median duration of the probe slices
// (probe.h) run between the steps of the same lap. Without that scaling the
// run-to-run spread on a shared host is several times the regression bounds;
// the unscaled numbers are kept under wall.* in the results file.
//
// Traced runs spend the first half of the run untraced, then run one lap
// whose "window" (a prefix sized so the trace rings never wrap) records
// obs::TraceRecorder events. The harness's own perf.* spans wrap each public
// call on the driver thread; self time per span name, divided by the window's
// wall time, is the per-layer breakdown.

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "runtime/executor/job.h"

namespace mcopt::perf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// What the command line asked for.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured-phase length; laps start while it is not used up.
  double seconds = 20.0;
  bool traced = false;
  /// Tiny sizes: checks the harness and its gates in well under a second.
  bool smoke = false;
  /// Where results, traces and the durable workload's journals go.
  std::string out_dir = ".";
};

/// Tracks the shared host's current speed with probe slices run where the
/// workload has nothing in flight, so a slice neither delays nor overlaps
/// the measured work.
class HostSpeed {
 public:
  /// Nominal probe slice on the reference host (the 4-vCPU x86-64 VM of
  /// README.md's baseline, where slices take 0.9-1.3 ms). It only fixes the
  /// unit: reported times are wall times scaled to a host whose slice takes
  /// this long.
  static constexpr double kReferenceSliceS = 1.0e-3;

  /// A slice runs the probe on `threads` threads at once (the caller plus
  /// threads - 1 helpers parked between slices) and records their mean: a
  /// multi-threaded workload's speed depends on every core it runs on.
  explicit HostSpeed(unsigned threads = 1);
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Called by a workload between steps: runs the probe slices due since
  /// the previous one (one per 20 slice durations, so probing takes about
  /// 5% of wall time), at most 8, so long steps (a whole DES node run) still
  /// weigh in with several samples.
  void quiesced();
  /// Runs one probe slice now.
  void slice();
  /// Forgets the slices of the previous lap.
  void begin_lap() { lap_slices_.clear(); }
  /// Factor turning this lap's wall seconds into reference-host seconds
  /// (1 when no slice ran).
  [[nodiscard]] double lap_scale() const;
  /// Wall seconds spent in probe slices so far.
  [[nodiscard]] double spent_s() const noexcept { return spent_s_; }

 private:
  void helper(unsigned index);

  std::vector<double> lap_slices_;
  double spent_s_ = 0.0;
  Clock::time_point last_{};
  double last_cost_s_ = kReferenceSliceS;
  /// Per-thread seconds of the current slice; each thread writes its own
  /// entry between the two barrier phases of a slice.
  std::vector<double> thread_s_;
  std::barrier<> sync_;
  bool stop_ = false;  ///< written before a phase, read after it
  std::vector<std::jthread> helpers_;
};

/// Wall time since construction minus the probe slices run meanwhile.
class ActiveTimer {
 public:
  explicit ActiveTimer(const HostSpeed& speed)
      : speed_(speed), t0_(Clock::now()), spent0_(speed.spent_s()) {}
  [[nodiscard]] double seconds() const {
    return seconds_between(t0_, Clock::now()) - (speed_.spent_s() - spent0_);
  }

 private:
  const HostSpeed& speed_;
  Clock::time_point t0_;
  double spent0_;
};

/// Per-thread trace ring capacity. A window may record at most half of it
/// on any thread, so no event is ever overwritten (obs.trace_dropped == 0).
inline constexpr std::size_t kTraceRingSlots = std::size_t{1} << 18;
inline constexpr std::size_t kTraceWindowEvents = kTraceRingSlots / 2;

/// Records the steady-state prefix of a lap. Untraced laps time the window
/// too, so the traced window's rate can be compared against them (that
/// ratio is the tracing overhead).
class TraceWindow {
 public:
  TraceWindow(bool record, const HostSpeed& speed)
      : record_(record), speed_(speed) {}

  void open();
  void close(double ops);

  [[nodiscard]] bool recording() const noexcept { return record_; }
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] double ops() const noexcept { return ops_; }

 private:
  bool record_;
  const HostSpeed& speed_;
  bool closed_ = false;
  double ops_ = 0.0;
  double seconds_ = 0.0;
  std::optional<ActiveTimer> timer_;
  std::optional<obs::TraceSpan> span_;
};

/// Outcome of one lap, in wall seconds (the harness scales them).
struct Lap {
  double seconds = 0.0;  ///< measured part of the lap, probe slices excluded
  /// Work units finished (simulated accesses, or resolved submissions).
  double ops = 0.0;
  /// Latency samples of an untraced lap: DES sweep points, Service::submit
  /// calls, or durable submit-to-outcome times.
  std::vector<double> latency_s;
  /// Durable only: submit-to-acknowledgement (flush returned) times.
  std::vector<double> ack_s;
};

/// Span-level breakdown of a traced window.
struct Layers {
  double wall_s = 0.0;  ///< perf.window duration on the driver thread
  /// Driver-thread self time (duration minus children) per span name.
  std::map<std::string, double> driver_self_s;
  /// Driver-thread span durations per span name.
  std::map<std::string, std::vector<double>> driver_durations_s;
  /// Total duration per span name on every other thread.
  std::map<std::string, double> worker_total_s;
  std::map<std::string, std::uint64_t> counts;
  /// job.run duration per executor job id (worker threads).
  std::map<std::uint64_t, double> job_run_s;
  /// Seconds from job.admit to job.start per executor job id.
  std::map<std::uint64_t, double> queue_wait_s;
  std::uint32_t threads = 0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  /// HostSpeed::lap_scale() of the traced lap: turns the wall seconds above
  /// into reference-host seconds.
  double scale = 1.0;

  /// Driver-thread self seconds of the named spans, summed.
  [[nodiscard]] double driver_self(
      std::initializer_list<const char*> names) const;
  /// driver_self() as a share of the window's wall time.
  [[nodiscard]] double driver_share(
      std::initializer_list<const char*> names) const;
  [[nodiscard]] double worker_sum(const char* name) const;
};

/// Decodes the recorder's resident events into a Layers breakdown.
[[nodiscard]] Layers analyze_trace();

/// Metrics, correctness gates and digests of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Median of `samples` as `name`, with its quartiles and count alongside.
  void median_metric(const std::string& name, std::vector<double> samples,
                     const std::string& unit);
  /// p50 / p99 / p99.9 of each lap's latency samples (seconds in, ms out),
  /// reported as `<prefix>_p50_ms` etc.: the median over laps with its
  /// quartiles, and the total sample count.
  void latency_metrics(const std::string& prefix,
                       std::vector<std::vector<double>> laps);
  void gate(const std::string& name, bool pass, const std::string& detail = "");
  void digest(const std::string& name, std::uint32_t crc);

  void count_attempted(std::uint64_t n = 1) noexcept { attempted_ += n; }
  void count_failed(std::uint64_t n = 1) noexcept { failed_ += n; }

  [[nodiscard]] bool has(const std::string& name) const {
    return metrics_.count(name) != 0;
  }
  [[nodiscard]] bool gates_pass() const;
  [[nodiscard]] std::string json(const Options& opt) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t n = 0;  ///< samples behind a median/percentile; 0 = single
    double q1 = 0.0, q3 = 0.0;
  };
  struct Gate {
    std::string name;
    bool pass = true;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<Gate> gates_;
  std::map<std::string, std::uint32_t> digests_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// One benchmark workload. setup() builds the seeded inputs (and is timed);
/// lap() runs one self-contained unit; finish() checks the gates and turns
/// what the laps collected into metrics.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup() = 0;
  virtual Lap lap(TraceWindow& window, HostSpeed& speed) = 0;
  /// Executor worker threads the workload runs beside the driver thread.
  [[nodiscard]] virtual unsigned workers() const { return 0; }
  /// `layers` is set for traced runs (the window's breakdown).
  virtual void finish(Report& report, const Layers* layers) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_des_chip(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_des_node(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_service_mix(const Options& opt);
[[nodiscard]] std::unique_ptr<Workload> make_durable_kernels(const Options& opt);

/// Reference-host seconds per call of `fn`: the median over enough calls to
/// fill ~`budget_s`, scaled by probe slices run every ~10 ms in between.
template <typename Fn>
[[nodiscard]] double side_time(Fn&& fn, double budget_s = 0.05) {
  HostSpeed speed;
  std::vector<double> per_call;
  speed.slice();
  const Clock::time_point start = Clock::now();
  Clock::time_point last_slice = start;
  do {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    per_call.push_back(seconds_between(t0, t1));
    if (seconds_between(last_slice, t1) > 0.01) {
      speed.slice();
      last_slice = Clock::now();
    }
  } while (seconds_between(start, Clock::now()) < budget_s ||
           per_call.size() < 5);
  speed.slice();
  const auto mid = per_call.begin() +
                   static_cast<std::ptrdiff_t>(per_call.size() / 2);
  std::nth_element(per_call.begin(), mid, per_call.end());
  return *mid * speed.lap_scale();
}

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Side-timed unit costs on a workload's own shapes: reference-host ns per
/// element of kernels::triad_local at length n; per PricingModel::price()
/// quote over `shapes`; per PricingModel::estimate() over their job kinds
/// (healthy fault state).
[[nodiscard]] double triad_ns_per_elem(std::size_t n);
[[nodiscard]] double price_ns(const std::vector<runtime::exec::JobSpec>& shapes);
[[nodiscard]] double estimate_ns(
    const std::vector<runtime::exec::JobSpec>& shapes);

}  // namespace mcopt::perf
