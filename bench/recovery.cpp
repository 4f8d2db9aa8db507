// Fail-back bench: outage-and-return and flapping-socket recovery against
// the supervised node loop (DESIGN.md §4k).
//
// Scenario 1 (outage-and-return): a socket's memory dies mid-run and comes
// back. Four contenders under the identical schedule:
//
//   recovery-on   the full prober/readmit/rebalance loop;
//   plateau       recovery disabled — the pre-prober supervisor whose belief
//                 carries forward for good (survivor model forever);
//   unsupervised  no supervision at all (remap serves the dead domain);
//   full model    analytic node bandwidth of the restored placement on a
//                 healthy node — the ceiling the recovered tail must reach.
//
// Scenario 2 (flap sweep): sock1:flap=<period> over a sweep of periods; the
// breaker's geometric escalation must keep committed replans inside the
// schedule-event + readmission budget at every period.
//
// --json writes the whole snapshot to BENCH_recovery.json; --csv mirrors the
// flap table. Exit contract (CI): the recovered tail reaches >= 0.95x the
// full-healthy model, beats the plateau tail, and no flap period thrashes.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "numa_common.h"
#include "runtime/numa_loop.h"
#include "sim/fault_schedule.h"

namespace {

using namespace mcopt;

struct OutageOutcome {
  std::string schedule;
  double recovery_gbs = 0.0;
  double plateau_gbs = 0.0;
  double unsupervised_gbs = 0.0;
  double tail_gbs = 0.0;
  double plateau_tail_gbs = 0.0;
  double full_model_gbs = 0.0;
  double convergence = 0.0;  ///< tail / full model
  unsigned probes = 0;
  unsigned probe_failures = 0;
  unsigned recoveries = 0;
  unsigned readmissions = 0;
  unsigned replans = 0;
  unsigned belief_stale_windows = 0;
  unsigned crc_ranges_verified = 0;
  double probe_cycle_share = 0.0;
  double migration_cycle_share = 0.0;
};

struct FlapRow {
  std::uint64_t period = 0;
  unsigned events = 0;
  unsigned replans = 0;
  unsigned probes = 0;
  unsigned recoveries = 0;
  unsigned readmissions = 0;
  unsigned budget = 0;
  double supervised_gbs = 0.0;
  bool bounded = true;
};

OutageOutcome run_outage(const runtime::NodeLoopConfig& base, std::size_t n,
                         const std::string& schedule_text,
                         arch::Cycles horizon, bench::ObsGuard& obs) {
  OutageOutcome out;
  out.schedule = schedule_text;

  auto parsed = sim::FaultSchedule::parse(schedule_text);
  if (!parsed) throw std::invalid_argument(parsed.error().message);
  // Check before resolving: resolved() clamps an unbounded flap to the
  // horizon, which would silently turn "flap forever" into "flap to the end
  // of the run" instead of surfacing the grammar rejection.
  const auto raw_status =
      parsed.value().check(base.node.sim.interleave, base.node.node.num_sockets);
  if (!raw_status.ok()) throw std::invalid_argument(raw_status.error().message);
  const sim::FaultSchedule resolved = parsed.value().resolved(horizon);
  const auto status =
      resolved.check(base.node.sim.interleave, base.node.node.num_sockets);
  if (!status.ok()) throw std::invalid_argument(status.error().message);

  runtime::NodeLoopConfig cfg = base;
  cfg.node.sim.fault_schedule = resolved;
  cfg.supervise = true;
  bench::sim_runs_counter().inc();
  const auto sup = runtime::run_supervised_node_triad(n, cfg);
  for (unsigned s = 0; s < sup.socket_timelines.size(); ++s)
    if (!sup.socket_timelines[s].empty())
      obs.add_timeline("recovery.sock" + std::to_string(s),
                       sup.socket_timelines[s]);

  runtime::NodeLoopConfig plateau_cfg = cfg;
  plateau_cfg.detector.recovery.enabled = false;
  bench::sim_runs_counter().inc();
  const auto plateau = runtime::run_supervised_node_triad(n, plateau_cfg);

  runtime::NodeLoopConfig unsup_cfg = cfg;
  unsup_cfg.supervise = false;
  bench::sim_runs_counter().inc();
  const auto unsup = runtime::run_supervised_node_triad(n, unsup_cfg);

  const double ghz = cfg.node.sim.topology.clock_ghz;
  out.recovery_gbs = bench::checked_rate(sup.bandwidth, "recovery") / 1e9;
  out.plateau_gbs = bench::checked_rate(plateau.bandwidth, "plateau") / 1e9;
  out.unsupervised_gbs =
      bench::checked_rate(unsup.bandwidth, "unsupervised") / 1e9;
  out.probes = sup.probes;
  out.probe_failures = sup.probe_failures;
  out.recoveries = sup.recoveries;
  out.readmissions = sup.readmissions;
  out.replans = sup.replans;
  out.belief_stale_windows = sup.belief_stale_windows;
  out.crc_ranges_verified = sup.crc_ranges_verified;
  if (sup.total_cycles > 0) {
    out.probe_cycle_share = static_cast<double>(sup.probe_cycles) /
                            static_cast<double>(sup.total_cycles);
    out.migration_cycle_share = static_cast<double>(sup.migration_cycles) /
                                static_cast<double>(sup.total_cycles);
  }
  if (!sup.replan_log.empty())
    out.tail_gbs = sup.tail_bandwidth(sup.replan_log.back().at, ghz) / 1e9;
  if (!plateau.replan_log.empty())
    out.plateau_tail_gbs =
        plateau.tail_bandwidth(plateau.replan_log.back().at, ghz) / 1e9;
  out.full_model_gbs = runtime::placement_bandwidth(sup.final_jobs, cfg.threads,
                                                    n, cfg.node, {}) /
                       1e9;
  if (out.full_model_gbs > 0.0)
    out.convergence = out.tail_gbs / out.full_model_gbs;
  return out;
}

std::vector<FlapRow> run_flap_sweep(const runtime::NodeLoopConfig& base,
                                    std::size_t n, arch::Cycles horizon,
                                    const std::vector<unsigned>& dividers) {
  std::vector<FlapRow> rows;
  for (const unsigned d : dividers) {
    FlapRow row;
    row.period = horizon / d;
    const std::string spec =
        "sock1:flap=" + std::to_string(row.period) + "@10%..70%";
    const auto resolved =
        sim::FaultSchedule::parse(spec).value().resolved(horizon);
    const auto status =
        resolved.check(base.node.sim.interleave, base.node.node.num_sockets);
    if (!status.ok()) throw std::invalid_argument(status.error().message);
    row.events = static_cast<unsigned>(resolved.event_count());

    runtime::NodeLoopConfig cfg = base;
    cfg.node.sim.fault_schedule = resolved;
    cfg.supervise = true;
    bench::sim_runs_counter().inc();
    const auto sup = runtime::run_supervised_node_triad(n, cfg);
    row.replans = sup.replans;
    row.probes = sup.probes;
    row.recoveries = sup.recoveries;
    row.readmissions = sup.readmissions;
    row.budget = row.events + sup.readmissions + 1;
    row.bounded = sup.replans <= row.budget;
    row.supervised_gbs =
        bench::checked_rate(sup.bandwidth, "flap supervised") / 1e9;
    rows.push_back(row);
  }
  return rows;
}

void write_json(const std::string& path, unsigned sockets, std::size_t n,
                unsigned threads, unsigned slices, double healthy_gbs,
                const OutageOutcome& outage, const std::vector<FlapRow>& flap) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr)
    throw std::runtime_error("recovery: cannot write " + path);
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"recovery\",\n"
               "  \"sockets\": %u,\n"
               "  \"n\": %zu,\n"
               "  \"threads_per_socket\": %u,\n"
               "  \"slices\": %u,\n"
               "  \"healthy_gbs\": %.4f,\n"
               "  \"outage_and_return\": {\n"
               "    \"schedule\": \"%s\",\n"
               "    \"recovery_gbs\": %.4f,\n"
               "    \"plateau_gbs\": %.4f,\n"
               "    \"unsupervised_gbs\": %.4f,\n"
               "    \"tail_gbs\": %.4f,\n"
               "    \"plateau_tail_gbs\": %.4f,\n"
               "    \"full_model_gbs\": %.4f,\n"
               "    \"convergence\": %.4f,\n"
               "    \"probes\": %u,\n"
               "    \"probe_failures\": %u,\n"
               "    \"recoveries\": %u,\n"
               "    \"readmissions\": %u,\n"
               "    \"replans\": %u,\n"
               "    \"belief_stale_windows\": %u,\n"
               "    \"crc_ranges_verified\": %u,\n"
               "    \"probe_cycle_share\": %.6f,\n"
               "    \"migration_cycle_share\": %.6f\n"
               "  },\n"
               "  \"flap_sweep\": [\n",
               sockets, n, threads, slices, healthy_gbs,
               outage.schedule.c_str(), outage.recovery_gbs,
               outage.plateau_gbs, outage.unsupervised_gbs, outage.tail_gbs,
               outage.plateau_tail_gbs, outage.full_model_gbs,
               outage.convergence, outage.probes, outage.probe_failures,
               outage.recoveries, outage.readmissions, outage.replans,
               outage.belief_stale_windows, outage.crc_ranges_verified,
               outage.probe_cycle_share, outage.migration_cycle_share);
  for (std::size_t i = 0; i < flap.size(); ++i)
    std::fprintf(f,
                 "    {\"period\": %" PRIu64
                 ", \"events\": %u, \"replans\": %u, \"probes\": %u, "
                 "\"recoveries\": %u, \"readmissions\": %u, \"budget\": %u, "
                 "\"supervised_gbs\": %.4f, \"bounded\": %s}%s\n",
                 flap[i].period, flap[i].events, flap[i].replans,
                 flap[i].probes, flap[i].recoveries, flap[i].readmissions,
                 flap[i].budget, flap[i].supervised_gbs,
                 flap[i].bounded ? "true" : "false",
                 i + 1 < flap.size() ? "," : "");
  std::fprintf(f,
               "  ],\n"
               "  \"metrics\": %s\n"
               "}\n",
               obs::MetricsRegistry::instance().json().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(
      "Fail-back bench: outage-and-return recovery vs the survivor-model "
      "plateau, plus a flapping-socket replan-budget sweep");
  cli.option_int("sockets", 2, "number of sockets (memory domains)")
      .option_int("n", 65536, "triad elements per socket's job")
      .option_int("threads", 31,
                  "strands per socket (31 saturates without period-aligning)")
      .option_int("slices", 40, "supervision slices")
      .option_str("schedule", "sock1:off@20%..55%",
                  "outage-and-return schedule (must clear mid-run)")
      .option_str("json", "", "write the snapshot here (BENCH_recovery.json)")
      .option_str("csv", "", "mirror the flap table to this CSV file");
  bench::add_recovery_options(cli);
  bench::add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::ObsGuard obs(cli);

  const auto sockets = static_cast<unsigned>(cli.get_int("sockets"));
  const auto n = static_cast<std::size_t>(cli.get_int("n"));

  runtime::NodeLoopConfig base;
  base.node.node.num_sockets = sockets;
  if (const auto st = bench::apply_recovery_options(cli, base.detector.recovery);
      !st.ok()) {
    std::fprintf(stderr, "recovery: %s\n", st.error().message.c_str());
    return 2;
  }
  base.node.validate();
  obs.apply(base.node.sim);
  base.threads = std::min(
      static_cast<unsigned>(cli.get_int("threads")),
      base.node.sim.topology.max_threads() / sockets);
  base.slices = static_cast<unsigned>(cli.get_int("slices"));
  bench::warn_if_convoy_resonant("recovery", n, base.threads,
                                 arch::AddressMap(base.node.sim.interleave));

  // Healthy horizon resolves the percent stamps and anchors the ceiling.
  runtime::NodeLoopConfig probe = base;
  probe.supervise = false;
  probe.node.sim.mc_sample_cadence = 0;
  bench::sim_runs_counter().inc();
  const auto healthy = runtime::run_supervised_node_triad(n, probe);
  const double healthy_gbs =
      bench::checked_rate(healthy.bandwidth, "healthy") / 1e9;

  std::printf("# fail-back bench: %u sockets, triad n=%zu, %u strands/job, "
              "%u slices, healthy %.3f GB/s (horizon %" PRIu64 ")\n\n",
              sockets, n, base.threads, base.slices, healthy_gbs,
              static_cast<std::uint64_t>(healthy.total_cycles));

  const OutageOutcome outage = run_outage(base, n, cli.get_str("schedule"),
                                          healthy.total_cycles, obs);
  std::printf(
      "# outage and return (%s)\n"
      "recovery-on   %.3f GB/s (replans=%u probes=%u failures=%u "
      "recoveries=%u readmissions=%u stale=%u crc=%u)\n"
      "plateau       %.3f GB/s (recovery disabled; survivor model forever)\n"
      "unsupervised  %.3f GB/s\n"
      "recovered tail %.3f GB/s vs full-healthy model %.3f GB/s "
      "(convergence %.3f); plateau tail %.3f GB/s\n"
      "probe cycle share %.4f%%, migration cycle share %.4f%%\n\n",
      outage.schedule.c_str(), outage.recovery_gbs, outage.replans,
      outage.probes, outage.probe_failures, outage.recoveries,
      outage.readmissions, outage.belief_stale_windows,
      outage.crc_ranges_verified, outage.plateau_gbs, outage.unsupervised_gbs,
      outage.tail_gbs, outage.full_model_gbs, outage.convergence,
      outage.plateau_tail_gbs, 100.0 * outage.probe_cycle_share,
      100.0 * outage.migration_cycle_share);

  const std::vector<FlapRow> flap =
      run_flap_sweep(base, n, healthy.total_cycles, {3, 4, 6});
  std::printf("# flap sweep (sock1:flap=<period>@10%%..70%%)\n");
  std::vector<std::vector<std::string>> cells;
  for (const FlapRow& r : flap) {
    std::printf("period %-10" PRIu64
                " events=%u replans=%u (budget %u) probes=%u recoveries=%u "
                "readmissions=%u %.3f GB/s -> %s\n",
                r.period, r.events, r.replans, r.budget, r.probes,
                r.recoveries, r.readmissions, r.supervised_gbs,
                r.bounded ? "bounded" : "THRASH");
    cells.push_back({std::to_string(r.period), std::to_string(r.events),
                     std::to_string(r.replans), std::to_string(r.budget),
                     std::to_string(r.probes), std::to_string(r.recoveries),
                     std::to_string(r.readmissions),
                     std::to_string(r.supervised_gbs),
                     r.bounded ? "true" : "false"});
  }
  bench::emit({"period", "events", "replans", "budget", "probes", "recoveries",
               "readmissions", "supervised_gbs", "bounded"},
              cells, cli.get_str("csv"));

  if (!cli.get_str("json").empty())
    write_json(cli.get_str("json"), sockets, n, base.threads, base.slices,
               healthy_gbs, outage, flap);

  // Exit contract for CI: the probe channel must have confirmed the return,
  // the recovered tail must reach the full-healthy model and beat the
  // plateau, and no flap period may thrash.
  bool ok = true;
  if (outage.recoveries == 0 || outage.readmissions == 0) {
    std::printf("FAIL: outage cleared but no confirmed recovery/readmission\n");
    ok = false;
  }
  if (outage.convergence < 0.95) {
    std::printf("FAIL: recovered tail convergence %.3f < 0.95\n",
                outage.convergence);
    ok = false;
  }
  if (outage.tail_gbs <= outage.plateau_tail_gbs) {
    std::printf("FAIL: recovered tail %.3f GB/s does not beat plateau tail "
                "%.3f GB/s\n",
                outage.tail_gbs, outage.plateau_tail_gbs);
    ok = false;
  }
  for (const FlapRow& r : flap)
    if (!r.bounded) {
      std::printf("FAIL: flap period %" PRIu64 " thrashed (%u replans > %u)\n",
                  r.period, r.replans, r.budget);
      ok = false;
    }
  return ok ? 0 : 1;
}
