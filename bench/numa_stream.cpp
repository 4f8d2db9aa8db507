// Cross-socket STREAM sweep — the fig-2 analogue at NUMA scale.
//
// Sweeps the four canonical placements of a per-socket vector triad over an
// N-socket node (local / interleaved / remote / first-touch, see
// numa_common.h) and reports DES vs analytic bandwidth plus remote-traffic
// share for each. The paper's ordering must reproduce:
//
//     local > interleaved > remote
//
// with first-touch (serial init: every page homed on socket 0) bottlenecked
// on domain 0's controllers. --schedule additionally runs the supervised
// node loop under a socket/link fault schedule (e.g. sock0:off@25%) and
// reports migration behavior and post-migration convergence against the
// surviving-socket analytic bandwidth; --json writes the whole snapshot
// (sweep rows + supervised run) to BENCH_numa.json.
//
// Per-socket controller timelines flow through --mc-timeline with
// "<placement>.sock<i>" labels.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "numa_common.h"
#include "runtime/numa_loop.h"

namespace {

using namespace mcopt;

struct SweepRow {
  std::string placement;
  double des_gbs = 0.0;
  double model_gbs = 0.0;
  double remote_fraction = 0.0;
};

struct SupervisedOutcome {
  bool ran = false;
  std::string schedule;
  double supervised_gbs = 0.0;
  double unsupervised_gbs = 0.0;
  double tail_gbs = 0.0;
  double survivor_model_gbs = 0.0;
  double convergence = 0.0;  ///< tail / survivor model
  unsigned replans = 0;
  unsigned declined = 0;
  unsigned suppressed = 0;
};

sim::NodeConfig node_config(const bench::NumaSweepParams& params,
                            const std::string& distance) {
  sim::NodeConfig cfg;
  cfg.node.num_sockets = params.sockets;
  bench::apply_distance_knob(distance, cfg.node);
  cfg.validate();
  return cfg;
}

std::vector<SweepRow> run_sweep(const bench::NumaSweepParams& params,
                                const sim::NodeConfig& cfg,
                                bench::ObsGuard& obs) {
  const bench::NumaPlacement placements[] = {
      bench::NumaPlacement::kLocal, bench::NumaPlacement::kInterleaved,
      bench::NumaPlacement::kRemote, bench::NumaPlacement::kFirstTouch};
  std::vector<SweepRow> rows;
  for (const bench::NumaPlacement p : placements) {
    sim::NodeConfig run_cfg = cfg;
    obs.apply(run_cfg.sim);
    bench::sim_runs_counter().inc();
    const sim::NodeResult res = bench::run_numa_placement(p, params, run_cfg);
    const sim::NodeEstimate est =
        bench::estimate_numa_placement(p, params, cfg);
    SweepRow row;
    row.placement = bench::numa_placement_name(p);
    row.des_gbs =
        bench::checked_rate(res.memory_bandwidth(), "node bandwidth") / 1e9;
    bench::gbs_histogram().observe(row.des_gbs);
    row.model_gbs =
        bench::checked_rate(est.bandwidth, "node model bandwidth") / 1e9;
    row.remote_fraction = res.remote_fraction();
    rows.push_back(row);
    for (unsigned s = 0; s < params.sockets; ++s)
      if (!res.sockets[s].mc_timeline.empty())
        obs.add_timeline(row.placement + ".sock" + std::to_string(s),
                         res.sockets[s].mc_timeline);
  }
  return rows;
}

SupervisedOutcome run_supervised(const bench::NumaSweepParams& params,
                                 const sim::NodeConfig& cfg,
                                 const std::string& schedule_text,
                                 unsigned slices, bench::ObsGuard& obs) {
  SupervisedOutcome out;
  out.ran = true;
  out.schedule = schedule_text;

  runtime::NodeLoopConfig loop;
  loop.node = cfg;
  obs.apply(loop.node.sim);
  loop.threads = params.threads;
  loop.slices = slices;

  // Probe the healthy horizon so percent stamps resolve.
  runtime::NodeLoopConfig probe = loop;
  probe.supervise = false;
  probe.node.sim.mc_sample_cadence = 0;
  const auto healthy = runtime::run_supervised_node_triad(params.n, probe);

  auto parsed = sim::FaultSchedule::parse(schedule_text);
  if (!parsed) throw std::invalid_argument(parsed.error().message);
  const sim::FaultSchedule resolved =
      parsed.value().resolved(healthy.total_cycles);
  loop.node.sim.fault_schedule = resolved;

  loop.supervise = true;
  bench::sim_runs_counter().inc();
  const auto sup = runtime::run_supervised_node_triad(params.n, loop);
  loop.supervise = false;
  bench::sim_runs_counter().inc();
  const auto unsup = runtime::run_supervised_node_triad(params.n, loop);

  out.supervised_gbs = sup.bandwidth / 1e9;
  out.unsupervised_gbs = unsup.bandwidth / 1e9;
  bench::gbs_histogram().observe(out.supervised_gbs);
  bench::gbs_histogram().observe(out.unsupervised_gbs);
  out.replans = sup.replans;
  out.declined = sup.declined;
  out.suppressed = sup.suppressed;

  for (unsigned s = 0; s < sup.socket_timelines.size(); ++s)
    if (!sup.socket_timelines[s].empty())
      obs.add_timeline("supervised.sock" + std::to_string(s),
                       sup.socket_timelines[s]);

  // Convergence: the post-migration tail against the analytic bandwidth of
  // the committed placement under the believed fault state.
  if (!sup.replan_log.empty()) {
    const auto& last = sup.replan_log.back();
    out.tail_gbs = sup.tail_bandwidth(last.at, cfg.sim.topology.clock_ghz) /
                   1e9;
    out.survivor_model_gbs =
        runtime::placement_bandwidth(last.jobs, params.threads, params.n,
                                     cfg, sup.final_diagnosis) /
        1e9;
    if (out.survivor_model_gbs > 0.0)
      out.convergence = out.tail_gbs / out.survivor_model_gbs;
  }
  return out;
}

void write_json(const std::string& path, const bench::NumaSweepParams& params,
                const std::vector<SweepRow>& rows,
                const SupervisedOutcome& sup) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("numa_stream: cannot write " + path);
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"numa_stream\",\n"
               "  \"sockets\": %u,\n"
               "  \"n\": %zu,\n"
               "  \"threads_per_socket\": %u,\n"
               "  \"sweeps\": %u,\n"
               "  \"placements\": {\n",
               params.sockets, params.n, params.threads, params.sweeps);
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::fprintf(f,
                 "    \"%s\": {\"des_gbs\": %.4f, \"model_gbs\": %.4f, "
                 "\"remote_fraction\": %.4f}%s\n",
                 rows[i].placement.c_str(), rows[i].des_gbs,
                 rows[i].model_gbs, rows[i].remote_fraction,
                 i + 1 < rows.size() ? "," : "");
  std::fprintf(f, "  }");
  if (sup.ran) {
    std::fprintf(
        f,
        ",\n  \"supervised_outage\": {\n"
        "    \"schedule\": \"%s\",\n"
        "    \"supervised_gbs\": %.4f,\n"
        "    \"unsupervised_gbs\": %.4f,\n"
        "    \"tail_gbs\": %.4f,\n"
        "    \"survivor_model_gbs\": %.4f,\n"
        "    \"convergence\": %.4f,\n"
        "    \"replans\": %u,\n"
        "    \"declined\": %u,\n"
        "    \"suppressed\": %u\n"
        "  }",
        sup.schedule.c_str(), sup.supervised_gbs, sup.unsupervised_gbs,
        sup.tail_gbs, sup.survivor_model_gbs, sup.convergence, sup.replans,
        sup.declined, sup.suppressed);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(
      "Cross-socket STREAM sweep: per-socket triad bandwidth under the four "
      "NUMA placements, plus a supervised socket-outage run (--schedule)");
  cli.option_int("sockets", 2, "number of sockets (memory domains)")
      .option_int("n", 4096, "triad elements per socket's job")
      .option_int("threads", 16, "strands per socket")
      .option_int("sweeps", 4, "triad sweeps per placement run")
      .option_int("slices", 12, "supervision slices for --schedule mode")
      .option_str("distance", "",
                  "link cost: one integer (uniform cycles/line) or "
                  "sockets^2 row-major matrix entries")
      .option_str("schedule", "",
                  "socket/link fault schedule for the supervised run, e.g. "
                  "sock0:off@25% (percent stamps resolve against a healthy "
                  "probe)")
      .option_str("json", "", "write the snapshot here (BENCH_numa.json)")
      .option_str("csv", "", "mirror the sweep table to this CSV file");
  bench::add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::ObsGuard obs(cli);

  bench::NumaSweepParams params;
  params.sockets = static_cast<unsigned>(cli.get_int("sockets"));
  params.n = static_cast<std::size_t>(cli.get_int("n"));
  params.threads = static_cast<unsigned>(cli.get_int("threads"));
  params.sweeps = static_cast<unsigned>(cli.get_int("sweeps"));

  const sim::NodeConfig cfg = node_config(params, cli.get_str("distance"));
  // The sweep compares DES vs analytic rows: flag period-aligned thread
  // counts so a model gap reads as convoy resonance, not a regression.
  bench::warn_if_convoy_resonant("numa_stream", params.n, params.threads,
                                 arch::AddressMap(cfg.sim.interleave));
  std::printf("# cross-socket STREAM sweep: %u sockets, triad n=%zu, "
              "%u strands/socket, %u sweeps\n",
              params.sockets, params.n, params.threads, params.sweeps);

  const std::vector<SweepRow> rows = run_sweep(params, cfg, obs);
  std::vector<std::vector<std::string>> cells;
  for (const SweepRow& r : rows)
    cells.push_back({r.placement, std::to_string(r.des_gbs),
                     std::to_string(r.model_gbs),
                     std::to_string(r.remote_fraction)});
  bench::emit({"placement", "des_gbs", "model_gbs", "remote_fraction"}, cells,
              cli.get_str("csv"));

  bool ordering_ok = true;
  const auto gbs = [&](const char* name) {
    for (const SweepRow& r : rows)
      if (r.placement == name) return r.des_gbs;
    return 0.0;
  };
  if (!(gbs("local") > gbs("interleaved") && gbs("interleaved") > gbs("remote"))) {
    ordering_ok = false;
    std::printf("FAIL: local > interleaved > remote ordering violated\n");
  }

  SupervisedOutcome sup;
  const std::string schedule = cli.get_str("schedule");
  if (!schedule.empty()) {
    sup = run_supervised(params, cfg, schedule,
                         static_cast<unsigned>(cli.get_int("slices")), obs);
    std::printf(
        "\n# supervised outage (%s)\n"
        "supervised   %.3f GB/s (replans=%u declined=%u suppressed=%u)\n"
        "unsupervised %.3f GB/s\n"
        "post-migration tail %.3f GB/s vs survivor model %.3f GB/s "
        "(convergence %.3f)\n",
        sup.schedule.c_str(), sup.supervised_gbs, sup.replans, sup.declined,
        sup.suppressed, sup.unsupervised_gbs, sup.tail_gbs,
        sup.survivor_model_gbs, sup.convergence);
  }

  if (!cli.get_str("json").empty())
    write_json(cli.get_str("json"), params, rows, sup);

  // Exit contract for CI: the placement ordering must reproduce, and a
  // supervised run that committed a migration must converge to >= 90% of
  // its survivor-placement model.
  if (!ordering_ok) return 1;
  if (sup.ran && sup.replans > 0 && sup.convergence < 0.9) {
    std::printf("FAIL: post-migration convergence %.3f < 0.9\n",
                sup.convergence);
    return 1;
  }
  return 0;
}
