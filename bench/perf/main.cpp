// mcopt_perf: the wall-clock benchmark harness.
//
//   mcopt_perf --workload <des-chip|des-node|service-mix|durable-kernels>
//              --seed <n> [--seconds <s>] [--traced] [--smoke] [--out-dir <d>]
//   mcopt_perf --probe-check
//
// Writes <out-dir>/<workload>-s<seed>[-traced].json (metrics, gates, digests,
// host) and, when traced, <workload>.trace.json (Chrome trace_event) and
// <workload>.layers.json (per-span self times of the traced window). Prints
// the results path. Exits 1 when a correctness gate fails, 2 on a usage or
// runtime error. --probe-check exits 1 when evicting the caches before a
// probe slice moves its duration by more than 5%. See README.md for what
// each workload measures and why.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "probe.h"
#include "util/cli.h"
#include "util/stats.h"

namespace {

using namespace mcopt;
using namespace mcopt::perf;

/// Set-ups per run; setup_s is their median. Set-up takes 1-50 ms, so one
/// rep is at the mercy of host noise; the median of many is not.
constexpr int kSetupReps = 21;

constexpr double kProbeFootprintTolerance = 0.05;

std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "des-chip") return make_des_chip(opt);
  if (opt.workload == "des-node") return make_des_node(opt);
  if (opt.workload == "service-mix") return make_service_mix(opt);
  if (opt.workload == "durable-kernels") return make_durable_kernels(opt);
  throw std::invalid_argument("unknown workload '" + opt.workload +
                              "' (des-chip, des-node, service-mix, "
                              "durable-kernels)");
}

/// Per-layer metrics computed from the traced window's span breakdown, the
/// same way for every workload. A layer the workload bypasses has no spans
/// and reads 0.
void layer_metrics(Report& r, const Layers& l, unsigned workers) {
  r.metric("sim.run_share", l.driver_share({"perf.sim", "sim.run"}), "fraction");
  r.metric("trace.build_share", l.driver_share({"perf.build"}), "fraction");
  r.metric("sim.analytic_share", l.driver_share({"perf.analytic"}), "fraction");
  r.metric("runtime.service.submit_share",
           l.driver_share({"perf.submit", "perf.cancel"}), "fraction");
  r.metric("runtime.durable.flush_share", l.driver_share({"perf.flush"}),
           "fraction");
  r.metric("runtime.durable.journal_commit_share",
           l.driver_share({"journal.commit"}), "fraction");
  r.metric("runtime.durable.pump_share", l.driver_share({"perf.pump"}),
           "fraction");
  r.metric("runtime.durable.poll_share", l.driver_share({"perf.poll"}),
           "fraction");
  r.metric("runtime.durable.checkpoint_share",
           l.driver_share({"perf.checkpoint", "durable.checkpoint", "state.save"}),
           "fraction");
  r.metric("bench.driver_idle_share", l.driver_share({"perf.wait"}), "fraction");
  r.metric("bench.probe_share", l.driver_share({"perf.probe"}), "fraction");
  // Driver-thread window time no layer span covers: the harness's own loop.
  r.metric("unexplained_share", l.driver_share({"perf.window"}), "fraction");

  const double worker_wall = l.wall_s * static_cast<double>(workers);
  const auto worker_share = [&](const char* name) {
    return worker_wall > 0.0 ? l.worker_sum(name) / worker_wall : 0.0;
  };
  r.metric("runtime.exec.worker_busy_share", worker_share("job.run"), "fraction");
  r.metric("runtime.supervisor.observe_share", worker_share("supervisor.observe"),
           "fraction");
  double waited = 0.0, ran = 0.0;
  for (const auto& [id, wait] : l.queue_wait_s) {
    const auto run = l.job_run_s.find(id);
    if (run == l.job_run_s.end()) continue;
    waited += wait;
    ran += run->second;
  }
  r.metric("runtime.exec.queue_wait_share",
           waited + ran > 0.0 ? waited / (waited + ran) : 0.0, "fraction");
  r.metric("obs.trace_dropped", static_cast<double>(l.dropped), "count");
  r.metric("obs.trace_events", static_cast<double>(l.events), "count");
}

void write_layers_json(const std::string& path, const Options& opt,
                       const Layers& l) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"window_s\": " << l.wall_s << ", \"scale\": " << l.scale
      << ", \"threads\": " << l.threads << ", \"events\": " << l.events
      << ", \"dropped\": " << l.dropped << ",\n \"driver_self_s\": {";
  bool first = true;
  for (const auto& [name, s] : l.driver_self_s) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << s;
    first = false;
  }
  out << "},\n \"worker_total_s\": {";
  first = true;
  for (const auto& [name, s] : l.worker_total_s) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << s;
    first = false;
  }
  out << "},\n \"span_counts\": {";
  first = true;
  for (const auto& [name, c] : l.counts) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << c;
    first = false;
  }
  out << "}}\n";
}

int run(const Options& opt) {
  std::filesystem::create_directories(opt.out_dir);
  const std::unique_ptr<Workload> w = make_workload(opt);
  Report report;
  HostSpeed speed(w->workers() + 1);

  // Each set-up is scaled by the probe slices right before and after it: it
  // is short enough that the host's speed of the moment is what matters.
  std::vector<double> setup_s, wall_setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    speed.begin_lap();
    speed.slice();
    const Clock::time_point t0 = Clock::now();
    w->setup();
    const double secs = seconds_between(t0, Clock::now());
    speed.slice();
    wall_setup_s.push_back(secs);
    setup_s.push_back(secs * speed.lap_scale());
  }
  report.metric("wall.setup_s", util::median(wall_setup_s), "s");
  report.median_metric("setup_s", setup_s, "s");

  // Untraced laps fill the run (half of it when traced), at least two so the
  // determinism gates compare something. A lap starts only while at least
  // half a mean lap of budget remains, so the measured phase ends within
  // half a lap of the requested length on average.
  const double budget = opt.traced ? opt.seconds / 2.0 : opt.seconds;
  std::vector<double> rates, wall_rates, window_rates, scales;
  std::vector<std::vector<double>> latency_s, wall_latency_s, ack_s;
  double lap_total_s = 0.0;
  // Footprint of set-up plus one lap. Later laps reuse freed memory in
  // allocator-dependent ways, so the process-lifetime peak would measure
  // fragmentation noise rather than the workload.
  double peak_rss = 0.0;
  const auto scaled = [](std::vector<double> seconds, double scale) {
    for (double& s : seconds) s *= scale;
    return seconds;
  };
  const Clock::time_point start = Clock::now();
  do {
    speed.begin_lap();
    TraceWindow window(false, speed);
    Lap lap = w->lap(window, speed);
    if (rates.empty()) peak_rss = peak_rss_mib();
    const double scale = speed.lap_scale();
    scales.push_back(scale);
    wall_rates.push_back(lap.ops / lap.seconds);
    rates.push_back(lap.ops / (lap.seconds * scale));
    window_rates.push_back(window.ops() / (window.seconds() * scale));
    latency_s.push_back(scaled(lap.latency_s, scale));
    wall_latency_s.push_back(std::move(lap.latency_s));
    ack_s.push_back(scaled(std::move(lap.ack_s), scale));
    lap_total_s += lap.seconds;
  } while (rates.size() < 2 ||
           seconds_between(start, Clock::now()) +
                   0.5 * lap_total_s / static_cast<double>(rates.size()) <
               budget);
  report.median_metric("ops_per_s", rates, "1/s");
  report.median_metric("wall.ops_per_s", wall_rates, "1/s");
  report.median_metric("host.scale", scales, "ratio");
  report.latency_metrics("latency", std::move(latency_s));
  report.latency_metrics("wall.latency", std::move(wall_latency_s));
  if (!ack_s.front().empty()) report.latency_metrics("ack", std::move(ack_s));
  report.metric("laps", static_cast<double>(rates.size()), "count");
  report.metric("measured_s", seconds_between(start, Clock::now()), "s");

  std::optional<Layers> layers;
  const std::string stem = opt.out_dir + "/" + opt.workload;
  if (opt.traced) {
    speed.begin_lap();
    TraceWindow window(true, speed);
    (void)w->lap(window, speed);
    layers = analyze_trace();
    layers->scale = speed.lap_scale();
    const util::Status wrote =
        obs::TraceRecorder::instance().write_chrome_trace(stem + ".trace.json");
    report.gate("obs.trace_written", wrote.ok(),
                wrote.ok() ? "" : wrote.error().message);
    obs::TraceRecorder::instance().reset();
    layer_metrics(report, *layers, w->workers());
    // Tracing overhead: the untraced windows' median rate over the traced
    // window's rate (the same prefix of the same lap, recorder on vs off).
    const double traced_rate = window.ops() / (window.seconds() * layers->scale);
    report.metric("obs.trace_overhead_pct",
                  (util::median(window_rates) / traced_rate - 1.0) * 100.0, "%");
    report.gate("obs.trace_complete", layers->dropped == 0,
                std::to_string(layers->dropped) + " events dropped");
    write_layers_json(stem + ".layers.json", opt, *layers);
  }
  w->finish(report, layers ? &*layers : nullptr);
  if (layers) {
    // Workload-specific layers that this workload bypasses did no work.
    static constexpr std::pair<const char*, const char*> kBypassable[] = {
        {"sim.accesses", "count"},
        {"sim.mem_bytes", "B"},
        {"sim.remote_bytes", "B"},
        {"sim.model_error_pct", "%"},
        {"runtime.service.door_shed_frac", "fraction"},
        {"runtime.exec.shed_frac", "fraction"},
        {"runtime.exec.body_overhead_share", "fraction"},
        {"runtime.durable.fsyncs_per_job", "count/job"},
        {"runtime.durable.journal_bytes_per_job", "B/job"}};
    for (const auto& [name, unit] : kBypassable)
      if (!report.has(name)) report.metric(name, 0.0, unit);
  }
  report.metric("peak_rss_mb", peak_rss, "MiB");

  const std::string path = stem + "-s" + std::to_string(opt.seed) +
                           (opt.traced ? "-traced" : "") + ".json";
  std::ofstream out(path);
  out << report.json(opt);
  out.close();
  if (!out) {
    std::fprintf(stderr, "mcopt_perf: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("%s\n", path.c_str());
  return report.gates_pass() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(
      "mcopt_perf: wall-clock benchmark of the simulator, the service and the "
      "durable service (see bench/perf/README.md)");
  cli.option_str("workload", "", "des-chip | des-node | service-mix | durable-kernels")
      .option_int("seed", 1, "input generator seed")
      .option_double("seconds", 20.0, "measured-phase length")
      .flag("traced", "second half of the run records one traced lap window")
      .flag("smoke", "tiny sizes (harness and gate check)")
      .flag("probe-check",
            "check that evicting the caches before a probe slice does not "
            "change its duration, then exit")
      .option_str("out-dir", ".", "directory for results and traces");
  try {
    if (!cli.parse(argc, argv)) return 0;
    if (cli.get_flag("probe-check")) {
      const double ratio = probe_footprint_ratio(64, 100);
      std::printf("probe footprint ratio %.4f (evicted over plain)\n", ratio);
      return std::abs(ratio - 1.0) <= kProbeFootprintTolerance ? 0 : 1;
    }
    Options opt;
    opt.workload = cli.get_str("workload");
    const std::int64_t seed = cli.get_int("seed");
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.seconds = cli.get_double("seconds");
    if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    opt.traced = cli.get_flag("traced");
    opt.smoke = cli.get_flag("smoke");
    opt.out_dir = cli.get_str("out-dir");
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mcopt_perf: %s\n", e.what());
    return 2;
  }
}
