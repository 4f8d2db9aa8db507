#pragma once
// Shared plumbing for the figure-reproduction benches: canonical simulator
// runners for each kernel plus output helpers. Every bench prints a paper-
// style table on stdout and optionally mirrors it to CSV (--csv <path>).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "kernels/jacobi.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "kernels/lbm/trace_program.h"
#include "kernels/stream.h"
#include "kernels/triad.h"
#include "sim/analytic.h"
#include "sim/chip.h"
#include "sim/faults.h"
#include "trace/virtual_arena.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/expected.h"
#include "util/log.h"
#include "util/table.h"

namespace mcopt::bench {

/// Registers the shared observability knobs every bench understands:
///   --trace <path>          enable the recorder; Chrome trace JSON on exit
///   --trace-capacity <n>    ring slots per thread (rounded up to pow2)
///   --metrics-out <path>    metrics snapshot (.json suffix: JSON one-liner,
///                           anything else: Prometheus text)
///   --mc-timeline <path>    controller x time utilization CSV
///   --mc-cadence <cycles>   timeline sample cadence (SimConfig knob)
///   --flight-dump <path>    fatal-signal flight-recorder dump target
inline void add_obs_options(util::Cli& cli) {
  cli.option_str("trace", "", "write Chrome trace_event JSON here (enables recorder)")
      .option_int("trace-capacity", 1 << 16, "trace ring slots per thread")
      .option_str("metrics-out", "",
                  "write metrics snapshot (.json => JSON, else Prometheus text)")
      .option_str("mc-timeline", "", "write controller x time utilization CSV")
      .option_int("mc-cadence", 100000, "timeline sample cadence in cycles")
      .option_str("flight-dump", "",
                  "install fatal-signal flight recorder dumping here");
}

/// RAII companion to add_obs_options(): enables the recorder / signal
/// handlers per the parsed knobs at construction and writes every requested
/// artifact at scope exit (or on an explicit finish()). Benches that sample
/// timelines feed labelled series through add_timeline().
class ObsGuard {
 public:
  explicit ObsGuard(const util::Cli& cli)
      : trace_path_(cli.get_str("trace")),
        metrics_path_(cli.get_str("metrics-out")),
        timeline_path_(cli.get_str("mc-timeline")),
        cadence_(static_cast<arch::Cycles>(
            std::max<std::int64_t>(0, cli.get_int("mc-cadence")))) {
    if (timeline_requested() && cli.get_int("mc-cadence") <= 0)
      throw std::invalid_argument(
          "--mc-cadence must be a positive cycle count when --mc-timeline "
          "is given (got " + std::to_string(cli.get_int("mc-cadence")) + ")");
    const std::string flight = cli.get_str("flight-dump");
    if (!trace_path_.empty() || !flight.empty())
      obs::TraceRecorder::instance().enable(static_cast<std::size_t>(
          std::max<std::int64_t>(8, cli.get_int("trace-capacity"))));
    if (!flight.empty()) obs::install_flight_recorder(flight).throw_if_failed();
  }

  ObsGuard(const ObsGuard&) = delete;
  ObsGuard& operator=(const ObsGuard&) = delete;

  ~ObsGuard() {
    try {
      finish().throw_if_failed();
    } catch (const std::exception& e) {
      // Destructor path: report, never throw (the bench result already
      // printed; a failed artifact write must not abort the process).
      util::log_error(std::string("obs: ") + e.what());
    }
  }

  /// True when --trace asked for the recorder (overhead measurements key
  /// off this).
  [[nodiscard]] bool tracing() const noexcept { return !trace_path_.empty(); }
  /// True when --mc-timeline asked for a CSV.
  [[nodiscard]] bool timeline_requested() const noexcept {
    return !timeline_path_.empty();
  }
  [[nodiscard]] arch::Cycles cadence() const noexcept { return cadence_; }

  /// Applies the timeline cadence to a run's SimConfig (no-op unless
  /// --mc-timeline was given: sampling without a consumer is waste).
  void apply(sim::SimConfig& cfg) const {
    if (timeline_requested()) cfg.mc_sample_cadence = cadence_;
  }

  /// Queues one labelled timeline for the CSV (e.g. label "offset=64").
  void add_timeline(std::string label, obs::McTimeline samples) {
    series_.push_back({std::move(label), std::move(samples)});
  }

  /// Writes every requested artifact; idempotent (the destructor calls it).
  util::Status finish() {
    if (finished_) return util::Status{};
    finished_ = true;
    util::Status status;
    // Ring health lands in the registry at teardown so every --metrics-out
    // snapshot carries it: a nonzero drop count means the trace under-reports
    // and any causal chain read from it may be incomplete — warn loudly.
    const std::uint64_t ring_dropped = obs::TraceRecorder::instance().dropped();
    obs::MetricsRegistry::instance()
        .gauge("mcopt_trace_ring_dropped",
               "trace events lost to ring wrap-around (nonzero => the trace "
               "under-reports; raise --trace-capacity)")
        .set(static_cast<double>(ring_dropped));
    obs::MetricsRegistry::instance()
        .gauge("mcopt_trace_seqlock_retries",
               "torn trace slots skipped by the seqlock reader (writer raced "
               "the export; events were dropped, not corrupted)")
        .set(static_cast<double>(
            obs::TraceRecorder::instance().seqlock_retries()));
    if (ring_dropped > 0)
      util::log_warn("trace ring dropped events; causal chains may be "
                     "incomplete (raise --trace-capacity)",
                     {util::kv("dropped", ring_dropped)});
    if (!trace_path_.empty()) {
      status.merge(
          obs::TraceRecorder::instance().write_chrome_trace(trace_path_));
      if (status.ok())
        util::log_info("wrote trace to " + trace_path_,
                       {util::kv("events", obs::TraceRecorder::instance().recorded()),
                        util::kv("dropped", obs::TraceRecorder::instance().dropped())});
    }
    if (!metrics_path_.empty()) status.merge(write_metrics(metrics_path_));
    if (!timeline_path_.empty())
      status.merge(obs::write_mc_timeline_csv(timeline_path_, series_));
    return status;
  }

  /// Metrics snapshot to `path`; a .json suffix selects the JSON one-liner,
  /// anything else the Prometheus text exposition.
  static util::Status write_metrics(const std::string& path) {
    const bool json =
        path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
    const std::string body =
        json ? obs::MetricsRegistry::instance().json() + "\n"
             : obs::MetricsRegistry::instance().prometheus_text();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
      return util::Status::failure("obs: cannot write '" + path + "'");
    const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed)
      return util::Status::failure("obs: short write to '" + path + "'");
    return util::Status{};
  }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string timeline_path_;
  arch::Cycles cadence_ = 0;
  std::vector<obs::McTimelineSeries> series_;
  bool finished_ = false;
};

/// Parks the recorder's last trace window and a metrics snapshot next to a
/// failing-seed artifact (<fail_path>.flight.txt / <fail_path>.metrics.txt)
/// so CI uploads all three together. No-op without a fail path; best-effort
/// on an already-failing run, so write errors only log.
inline void attach_failure_artifacts(const std::string& fail_path) {
  if (fail_path.empty()) return;
  if (obs::TraceRecorder::instance().enabled()) {
    const auto flight =
        obs::TraceRecorder::instance().write_flight_dump(fail_path +
                                                         ".flight.txt");
    if (!flight.ok()) util::log_error("obs: " + flight.error().message);
  }
  const auto metrics = ObsGuard::write_metrics(fail_path + ".metrics.txt");
  if (!metrics.ok()) util::log_error("obs: " + metrics.error().message);
  // The attribution ledger says who was spending bytes when the seed failed —
  // CI uploads it next to the flight dump and metrics snapshot.
  const auto attr = obs::Attribution::instance().write_json(
      fail_path + ".attribution.json");
  if (!attr.ok()) util::log_error("obs: " + attr.error().message);
}

/// The --fail-log bookkeeping of every seeded soak: the file opens (append)
/// on the first failing run, each failing run writes its header line and
/// its failures indented by two spaces, and finish() closes the file and
/// attaches the failure artifacts when anything failed. Without a path it
/// only counts.
class FailLog {
 public:
  explicit FailLog(std::string path) : path_(std::move(path)) {}
  FailLog(const FailLog&) = delete;
  FailLog& operator=(const FailLog&) = delete;
  ~FailLog() { close(); }

  /// Records one run; a run with no failures passed and records nothing.
  void add(const std::string& header, const std::vector<std::string>& failures) {
    if (failures.empty()) return;
    ++failed_;
    if (file_ == nullptr && !path_.empty())
      file_ = std::fopen(path_.c_str(), "a");
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\n", header.c_str());
    for (const auto& f : failures) std::fprintf(file_, "  %s\n", f.c_str());
  }

  /// Closes the log and, when a run failed, parks the failure artifacts
  /// next to it. Returns the number of failing runs.
  unsigned finish() {
    close();
    if (failed_ != 0) attach_failure_artifacts(path_);
    return failed_;
  }

 private:
  void close() {
    if (file_ != nullptr) std::fclose(file_);
    file_ = nullptr;
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  unsigned failed_ = 0;
};

/// Range check for a count flag, made before any work or fork: a value
/// below `min` comes back as a diagnostic naming the flag.
[[nodiscard]] inline util::Status check_count(const char* flag,
                                              std::int64_t value,
                                              std::int64_t min) {
  if (value >= min) return {};
  return util::Status::failure("--" + std::string(flag) + " must be >= " +
                               std::to_string(min) + " (got " +
                               std::to_string(value) + ")");
}

/// A soak's seed list: exactly --seed when it is nonzero, else 1..--seeds.
/// A negative --seed or a --seeds below 1 is refused before anything is
/// allocated (a cast would turn -1 into 2^64-1 seeds).
[[nodiscard]] inline util::Expected<std::vector<std::uint64_t>> seed_list(
    std::int64_t seed, std::int64_t seeds) {
  util::Status status = check_count("seed", seed, 0);
  if (seed == 0) status.merge(check_count("seeds", seeds, 1));
  if (!status.ok())
    return util::Expected<std::vector<std::uint64_t>>::failure(
        status.error().message);
  if (seed != 0) return std::vector<std::uint64_t>{static_cast<std::uint64_t>(seed)};
  std::vector<std::uint64_t> out(static_cast<std::size_t>(seeds));
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = i + 1;
  return out;
}

/// Guards every number a bench reports: a NaN/inf/negative rate means the
/// simulator or the harness itself is broken, and a poisoned cell must fail
/// the run, not ship in a results table.
inline double checked_rate(double value, const char* what) {
  if (!std::isfinite(value) || value < 0.0)
    throw std::runtime_error(std::string("bench: non-finite ") + what +
                             " value " + std::to_string(value) +
                             " (simulator or harness bug)");
  return value;
}

/// Parses a --fault CLI string into a SimConfig fault set, validating it
/// against the config's interleave. Exits with a diagnostic on bad specs.
inline sim::FaultSpec parse_fault_knob(const std::string& text,
                                       const sim::SimConfig& cfg) {
  auto parsed = sim::FaultSpec::parse(text);
  if (!parsed) throw std::invalid_argument(parsed.error().message);
  parsed.value().check(cfg.interleave).throw_if_failed();
  if (parsed.value().any())
    util::log_info("fault injection: " + parsed.value().describe());
  return parsed.value();
}

/// Parses the --schedule CLI grammar (timed fault intervals, see
/// sim::FaultSchedule::parse) and resolves percent-relative bounds against
/// `horizon` (the estimated run length in cycles). Validates against the
/// config's interleave; throws with a diagnostic on bad schedules.
inline sim::FaultSchedule parse_schedule_knob(const std::string& text,
                                              const sim::SimConfig& cfg,
                                              arch::Cycles horizon) {
  auto parsed = sim::FaultSchedule::parse(text);
  if (!parsed) throw std::invalid_argument(parsed.error().message);
  const sim::FaultSchedule sched = parsed.value().resolved(horizon);
  sched.check(cfg.interleave).throw_if_failed();
  if (!sched.empty()) util::log_info("fault schedule: " + sched.describe());
  return sched;
}

/// Bench-layer metric families. Counted here (not in the simulator) so the
/// registry reflects what the harness asked for, and so every bench's
/// --metrics-out snapshot has content even without the executor in the loop.
inline obs::Counter& sim_runs_counter() {
  return obs::MetricsRegistry::instance().counter(
      "mcopt_bench_sim_runs_total", "simulated kernel runs issued by benches");
}

inline obs::Histogram& gbs_histogram() {
  return obs::MetricsRegistry::instance().histogram(
      "mcopt_bench_reported_gbs", {1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0},
      "reported bandwidth per bench data point (GB/s)");
}

/// Runs one simulated STREAM configuration and returns the full simulator
/// result (cycle counts, controller timeline when cfg.mc_sample_cadence is
/// set).
inline sim::SimResult stream_sim_result(kernels::StreamOp op, std::size_t n,
                                        std::size_t offset_dp, unsigned threads,
                                        const sim::SimConfig& cfg = {}) {
  sim_runs_counter().inc();
  trace::VirtualArena arena;
  const arch::Addr block = arena.allocate(3 * (n + offset_dp) * 8, 8192);
  const auto bases = kernels::common_block_bases(block, n, offset_dp);
  auto wl = kernels::make_stream_workload(op, bases, n, threads,
                                          sched::Schedule::static_block());
  sim::Chip chip(cfg, arch::equidistant_placement(threads, cfg.topology));
  return chip.run(wl);
}

/// Runs one simulated STREAM configuration; returns reported GB/s (STREAM
/// convention, RFO not counted).
inline double stream_reported_gbs(kernels::StreamOp op, std::size_t n,
                                  std::size_t offset_dp, unsigned threads,
                                  const sim::SimConfig& cfg = {}) {
  const sim::SimResult res = stream_sim_result(op, n, offset_dp, threads, cfg);
  const double gbs = checked_rate(
      static_cast<double>(kernels::stream_reported_bytes(op, n)) /
          res.seconds() / 1e9,
      "STREAM GB/s");
  gbs_histogram().observe(gbs);
  return gbs;
}

/// Analytic-model prediction for the same configuration (instant).
inline double stream_analytic_gbs(kernels::StreamOp op, std::size_t n,
                                  std::size_t offset_dp, unsigned threads,
                                  const sim::SimConfig& cfg = {}) {
  const auto bases =
      kernels::common_block_bases(arch::Addr{1} << 32, n, offset_dp);
  const auto descs = kernels::stream_descs(op, bases);
  std::vector<sim::AnalyticStream> streams;
  for (const auto& d : descs) streams.push_back({d.base, d.write});
  const arch::AddressMap map(cfg.interleave);
  const auto est = sim::estimate_bandwidth(sim::expand_rfo(streams), threads,
                                           cfg.calibration, map,
                                           cfg.topology.clock_ghz, cfg.faults);
  // Convert actual-traffic prediction back to the STREAM convention.
  const double convention =
      static_cast<double>(kernels::stream_reported_bytes(op, n)) /
      static_cast<double>(kernels::stream_actual_bytes(op, n));
  return checked_rate(est.bandwidth * convention / 1e9, "analytic GB/s");
}

/// Simulated vector triad in actual-traffic GB/s (Fig. 4 convention).
inline double triad_actual_gbs(const std::vector<arch::Addr>& bases,
                               std::size_t n, unsigned threads,
                               const sim::SimConfig& cfg = {}) {
  sim_runs_counter().inc();
  auto wl = kernels::make_triad_workload(bases, n, threads,
                                         sched::Schedule::static_block());
  sim::Chip chip(cfg, arch::equidistant_placement(threads, cfg.topology));
  const sim::SimResult res = chip.run(wl);
  return checked_rate(
      static_cast<double>(kernels::triad_actual_bytes(n)) / res.seconds() / 1e9,
      "triad GB/s");
}

/// Simulated Jacobi sweep in MLUPs/s.
inline double jacobi_mlups(std::size_t n, const seg::LayoutSpec& spec,
                           const sched::Schedule& schedule, unsigned threads,
                           const sim::SimConfig& cfg = {}) {
  sim_runs_counter().inc();
  trace::VirtualArena arena;
  const auto grids = kernels::make_virtual_jacobi(arena, n, spec);
  auto wl = trace::make_jacobi_workload(grids.grids(), threads, schedule, 1);
  sim::Chip chip(cfg, arch::equidistant_placement(threads, cfg.topology));
  const sim::SimResult res = chip.run(wl);
  return checked_rate(static_cast<double>(trace::jacobi_updates_per_sweep(n)) /
                          res.seconds() / 1e6,
                      "Jacobi MLUPs");
}

/// Simulated D3Q19 LBM step: the full simulator result (cycle counts for
/// schedule horizons, corrupted-read counters for the flip fault class).
inline sim::SimResult lbm_sim_result(std::size_t n,
                                     kernels::lbm::DataLayout layout,
                                     kernels::lbm::LoopOrder order,
                                     unsigned threads, std::size_t pad_x = 0,
                                     const sim::SimConfig& cfg = {}) {
  sim_runs_counter().inc();
  using namespace kernels::lbm;
  const Geometry g{n, n, n, pad_x, layout};
  trace::VirtualArena arena;
  LbmAddresses addr;
  addr.f_base = arena.allocate(g.f_elems() * 8, 8192);
  addr.mask_base = arena.allocate(g.cells(), 8192);
  auto wl = make_lbm_workload(g, addr, order, threads,
                              sched::Schedule::static_block(), 1);
  sim::Chip chip(cfg, arch::equidistant_placement(threads, cfg.topology));
  return chip.run(wl);
}

/// Simulated D3Q19 LBM step in MLUPs/s.
inline double lbm_mlups(std::size_t n, kernels::lbm::DataLayout layout,
                        kernels::lbm::LoopOrder order, unsigned threads,
                        std::size_t pad_x = 0, const sim::SimConfig& cfg = {}) {
  const sim::SimResult res = lbm_sim_result(n, layout, order, threads, pad_x, cfg);
  const kernels::lbm::Geometry g{n, n, n, pad_x, layout};
  return checked_rate(
      static_cast<double>(g.interior_cells()) / res.seconds() / 1e6,
      "LBM MLUPs");
}

/// Prints an aligned table to stdout and mirrors it to CSV when a path was
/// given (--csv).
inline void emit(const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows,
                 const std::string& csv_path) {
  util::Table table(header);
  for (const auto& row : rows) table.add_row(row);
  table.print(std::cout);
  if (!csv_path.empty()) {
    util::CsvWriter csv(csv_path, header);
    for (const auto& row : rows) csv.add_row(row);
    csv.close().throw_if_failed();
    util::log_info("wrote " + std::to_string(rows.size()) + " rows to " + csv_path);
  }
}

}  // namespace mcopt::bench
