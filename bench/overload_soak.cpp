// Overload soak: seeded open-loop load against the executor's admission
// control, sweeping offered load from well below to 4x the analytic
// capacity of the generated job mix, healthy and under fault schedules.
//
// Every sweep point asserts the overload invariants (see overload_common.h):
// the shed-lag bound on accepted jobs, byte-exact conservation across typed
// shed reasons, goodput monotone-capped at the mix's analytic roofline, and
// nothing lost silently across drain-on-shutdown. Failures print the seed
// and are replayable with --seed N.
//
// --reference runs the canonical sweep and writes BENCH_overload.json
// (goodput, shed breakdown and sojourn percentiles per offered ratio); the
// exit code enforces the acceptance gate: goodput >= 0.9x of the smaller of
// offered load and capacity at every healthy point, and a <1% deadline-miss
// rate among accepted jobs even under overload (one miss is always allowed).
//
// --schedule injects a ground-truth fault timeline (percent stamps resolve
// against the generated mix's horizon): goodput degrades, the invariants
// must hold anyway. EXPERIMENTS.md tabulates healthy vs degraded.
//
// --service switches to the multi-tenant service soak (service_common.h):
// thousands of tenants with weights, quotas and SLO classes, a seeded share
// of them adversarial, run twice (full mix + attacker-muted solo baseline)
// and checked against the isolation invariants S1-S4. --service-chaos N
// instead runs N seeded chaos pairs, each with a random controller-fault
// schedule on top of the adversarial mix. Reference mode writes
// BENCH_service.json with per-behavior aggregates and Jain's index.

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "overload_common.h"
#include "service_common.h"

namespace {

using namespace mcopt;

struct SweepRow {
  double ratio = 0.0;
  bench::OverloadResult res;
  std::vector<std::string> failures;
};

SweepRow run_point(double ratio, const bench::OverloadParams& base,
                   const std::string& schedule_text) {
  SweepRow row;
  row.ratio = ratio;
  bench::OverloadParams params = base;
  params.offered_ratio = ratio;
  const bool healthy = schedule_text.empty();
  if (!healthy) {
    const sim::SimConfig sim_cfg{};
    params.truth = bench::parse_schedule_knob(schedule_text, sim_cfg,
                                              bench::overload_horizon(params));
  }
  row.res = bench::run_overload(params);
  row.failures = bench::check_overload_invariants(params, row.res, healthy);
  return row;
}

std::string shed_breakdown(const runtime::exec::ExecutorStats& stats) {
  using runtime::exec::ShedReason;
  std::string out;
  for (unsigned r = 1; r < stats.shed.size(); ++r) {
    if (stats.shed[r] == 0) continue;
    if (!out.empty()) out += " ";
    out += std::string(to_string(static_cast<ShedReason>(r))) + "=" +
           std::to_string(stats.shed[r]);
  }
  return out.empty() ? "-" : out;
}

int run_sweep(const std::vector<double>& ratios,
              const bench::OverloadParams& base,
              const std::string& schedule_text, const std::string& csv_path,
              const std::string& json_path, bool reference,
              const std::string& fail_log_path) {
  std::vector<SweepRow> rows;
  for (const double ratio : ratios)
    rows.push_back(run_point(ratio, base, schedule_text));

  std::vector<std::vector<std::string>> table_rows;
  char buf[64];
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    auto cell = [&](const char* fmt, auto value) {
      std::snprintf(buf, sizeof buf, fmt, value);
      cells.emplace_back(buf);
    };
    cell("%.2f", row.ratio);
    cell("%.3f", bench::checked_rate(row.res.offered_gbs, "offered GB/s"));
    cell("%.3f", bench::checked_rate(row.res.capacity_gbs, "capacity GB/s"));
    cell("%.3f", bench::checked_rate(row.res.goodput_gbs, "goodput GB/s"));
    cell("%" PRIu64, row.res.stats.completed);
    cells.push_back(shed_breakdown(row.res.stats));
    cell("%.2f", row.res.miss_rate * 100.0);
    cell("%.3f", row.res.p50_ms);
    cell("%.3f", row.res.p99_ms);
    cells.push_back(row.failures.empty() ? "PASS" : "FAIL");
    table_rows.push_back(std::move(cells));
  }
  bench::emit({"offered_x", "offered_gbs", "capacity_gbs", "goodput_gbs",
               "completed", "shed", "miss_pct", "p50_ms", "p99_ms", "check"},
              table_rows, csv_path);

  bench::FailLog log(fail_log_path);
  for (const auto& row : rows) {
    if (row.failures.empty()) continue;
    std::printf("offered %.2fx seed %" PRIu64 " FAILED:\n", row.ratio,
                base.seed);
    for (const auto& f : row.failures) std::printf("  %s\n", f.c_str());
    char header[64];
    std::snprintf(header, sizeof header, "seed %" PRIu64 " offered %.2fx",
                  base.seed, row.ratio);
    log.add(header, row.failures);
  }
  const unsigned failures = log.finish();

  if (reference && !json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("overload_soak: cannot write " + json_path);
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"executor_overload_soak\",\n"
                 "  \"schedule\": \"%s\",\n"
                 "  \"jobs\": %u,\n"
                 "  \"seed\": %" PRIu64 ",\n"
                 "  \"workers\": %u,\n"
                 "  \"points\": [\n",
                 schedule_text.empty() ? "healthy" : schedule_text.c_str(),
                 base.jobs, base.seed, base.num_workers);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      std::fprintf(
          f,
          "    {\"offered_x\": %.2f, \"offered_gbs\": %.4f, "
          "\"capacity_gbs\": %.4f, \"goodput_gbs\": %.4f, "
          "\"completed\": %" PRIu64 ", \"miss_rate\": %.6f, "
          "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f, "
          "\"shed\": \"%s\", \"pass\": %s}%s\n",
          row.ratio, row.res.offered_gbs, row.res.capacity_gbs,
          row.res.goodput_gbs, row.res.stats.completed, row.res.miss_rate,
          row.res.p50_ms, row.res.p95_ms, row.res.p99_ms,
          shed_breakdown(row.res.stats).c_str(),
          row.failures.empty() ? "true" : "false",
          i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
                 obs::MetricsRegistry::instance().json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}

/// Per-behavior aggregate of one service run, for the table and the JSON.
struct BehaviorAgg {
  unsigned tenants = 0;
  std::uint64_t submitted = 0;
  std::uint64_t door_shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t offered_bytes = 0;
  std::uint64_t goodput_bytes = 0;
  double worst_goodput_ratio = 1.0;  ///< min goodput/offered across tenants
};

std::array<BehaviorAgg, bench::kNumTenantBehaviors> aggregate_behaviors(
    const bench::ServiceSoakResult& res) {
  std::array<BehaviorAgg, bench::kNumTenantBehaviors> agg{};
  for (std::size_t i = 0; i < res.tenants.size(); ++i) {
    const auto& t = res.tenants[i];
    BehaviorAgg& a = agg[static_cast<unsigned>(res.behaviors[i])];
    ++a.tenants;
    a.submitted += t.counters.submitted;
    a.door_shed += t.counters.throttled + t.counters.breaker_rejected;
    a.completed += t.completed;
    a.offered_bytes += t.counters.offered_bytes;
    a.goodput_bytes += t.goodput_bytes;
    if (t.counters.offered_bytes > 0)
      a.worst_goodput_ratio =
          std::min(a.worst_goodput_ratio,
                   static_cast<double>(t.goodput_bytes) /
                       static_cast<double>(t.counters.offered_bytes));
  }
  return agg;
}

/// Largest mixed/solo p99 ratio among well-behaved tenants with enough
/// completions for a stable quantile — the same >= 1000-sample floor the
/// S3 gate uses (below it a per-tenant p99 is a single sparse order
/// statistic). When no tenant qualifies (small smoke runs), falls back to
/// the pooled victim-population ratio.
double worst_p99_ratio(const bench::ServiceSoakResult& mixed,
                       const bench::ServiceSoakResult& baseline) {
  double worst = 0.0;
  for (std::size_t i = 0; i < mixed.tenants.size(); ++i) {
    if (mixed.behaviors[i] != bench::TenantBehavior::kWellBehaved) continue;
    const auto& t = mixed.tenants[i];
    const auto& b = baseline.tenants[i];
    if (t.completed < 1000 || b.completed < 1000 || b.p99_ms <= 0.0) continue;
    worst = std::max(worst, t.p99_ms / b.p99_ms);
  }
  if (worst == 0.0 && baseline.victim_pool_p99_ms > 0.0)
    worst = mixed.victim_pool_p99_ms / baseline.victim_pool_p99_ms;
  return worst;
}

/// One mixed + solo-baseline service pair; prints the per-behavior table
/// and returns the invariant failures.
std::vector<std::string> run_service_pair(
    const bench::ServiceSoakParams& params, bench::ServiceSoakResult& mixed,
    bench::ServiceSoakResult& baseline) {
  mixed = bench::run_service_soak(params);
  bench::ServiceSoakParams solo = params;
  solo.mute_attackers = true;
  baseline = bench::run_service_soak(solo);
  const bool degraded = !params.truth.intervals.empty();
  const auto failures =
      bench::check_service_invariants(params, mixed, baseline, degraded);

  const auto agg = aggregate_behaviors(mixed);
  std::printf(
      "service seed %" PRIu64 ": %u tenants, %" PRIu64
      " jobs at the door, horizon %.2f vs, capacity %.2f GB/s%s\n",
      params.seed, params.tenants, mixed.submissions,
      static_cast<double>(mixed.horizon) / mixed.clock_hz, mixed.capacity_gbs,
      degraded ? " (degraded: fault schedule injected)" : "");
  std::printf("  %-16s %7s %10s %10s %10s %9s %9s\n", "behavior", "tenants",
              "submitted", "door-shed", "completed", "goodput%", "worst%");
  for (unsigned b = 0; b < bench::kNumTenantBehaviors; ++b) {
    const BehaviorAgg& a = agg[b];
    if (a.tenants == 0) continue;
    const double pct =
        a.offered_bytes == 0 ? 0.0
                             : 100.0 * static_cast<double>(a.goodput_bytes) /
                                   static_cast<double>(a.offered_bytes);
    std::printf("  %-16s %7u %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                " %8.2f%% %8.2f%%\n",
                to_string(static_cast<bench::TenantBehavior>(b)), a.tenants,
                a.submitted, a.door_shed, a.completed, pct,
                a.worst_goodput_ratio * 100.0);
  }
  std::printf("  goodput %.2f GB/s, jain(goodput/weight) %.4f, breaker "
              "opens %" PRIu64 ", cancelled %" PRIu64
              ", worst victim p99 ratio %.3f\n",
              mixed.goodput_gbs, mixed.jain_weighted, mixed.breaker_opens,
              mixed.cancelled_requests, worst_p99_ratio(mixed, baseline));
  std::printf("  offered %.2f GB/s over the window, drained at %.2f vs, "
              "executor sheds: %s\n",
              static_cast<double>(mixed.offered_bytes) /
                  (static_cast<double>(mixed.horizon) / mixed.clock_hz) / 1e9,
              static_cast<double>(mixed.drained_at) / mixed.clock_hz,
              shed_breakdown(mixed.exec_stats).c_str());
  std::printf("  victim pool p50/p99: %.3f/%.3f ms mixed vs %.3f/%.3f ms "
              "solo\n",
              mixed.victim_pool_p50_ms, mixed.victim_pool_p99_ms,
              baseline.victim_pool_p50_ms, baseline.victim_pool_p99_ms);
  return failures;
}

int run_service(const bench::ServiceSoakParams& base, unsigned chaos_runs,
                bool reference, const std::string& json_path,
                const std::string& fail_log_path) {
  bench::FailLog log(fail_log_path);
  bench::ServiceSoakResult mixed, baseline;

  const auto report = [&](std::uint64_t seed,
                          const std::vector<std::string>& failures) {
    if (failures.empty()) return;
    std::printf("service seed %" PRIu64 " FAILED:\n", seed);
    for (const auto& f : failures) std::printf("  %s\n", f.c_str());
    log.add("service seed " + std::to_string(seed), failures);
  };

  if (chaos_runs > 0) {
    for (unsigned i = 0; i < chaos_runs; ++i) {
      const std::uint64_t seed = base.seed + i;
      const auto params = bench::service_chaos_params(
          seed, base.tenants, base.target_jobs, base.num_workers);
      report(seed, run_service_pair(params, mixed, baseline));
    }
  } else {
    report(base.seed, run_service_pair(base, mixed, baseline));
  }
  const unsigned failed_runs = log.finish();

  if (reference && !json_path.empty() && chaos_runs == 0) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("overload_soak: cannot write " + json_path);
    const auto agg = aggregate_behaviors(mixed);
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"service_soak\",\n"
                 "  \"tenants\": %u,\n"
                 "  \"target_jobs\": %u,\n"
                 "  \"seed\": %" PRIu64 ",\n"
                 "  \"workers\": %u,\n"
                 "  \"attacker_fraction\": %.4f,\n"
                 "  \"attacker_overdrive\": %.2f,\n"
                 "  \"quota_headroom\": %.2f,\n"
                 "  \"submissions\": %" PRIu64 ",\n"
                 "  \"horizon_vs\": %.4f,\n"
                 "  \"capacity_gbs\": %.4f,\n"
                 "  \"goodput_gbs\": %.4f,\n"
                 "  \"door_shed\": %" PRIu64 ",\n"
                 "  \"breaker_opens\": %" PRIu64 ",\n"
                 "  \"cancelled\": %" PRIu64 ",\n"
                 "  \"jain_weighted\": %.6f,\n"
                 "  \"worst_victim_p99_ratio\": %.4f,\n"
                 "  \"behaviors\": [\n",
                 base.tenants, base.target_jobs, base.seed, base.num_workers,
                 base.attacker_fraction, base.attacker_overdrive,
                 bench::kQuotaHeadroom, mixed.submissions,
                 static_cast<double>(mixed.horizon) / mixed.clock_hz,
                 mixed.capacity_gbs, mixed.goodput_gbs, mixed.door_shed,
                 mixed.breaker_opens, mixed.cancelled_requests,
                 mixed.jain_weighted, worst_p99_ratio(mixed, baseline));
    bool first = true;
    for (unsigned b = 0; b < bench::kNumTenantBehaviors; ++b) {
      const BehaviorAgg& a = agg[b];
      if (a.tenants == 0) continue;
      std::fprintf(
          f,
          "%s    {\"behavior\": \"%s\", \"tenants\": %u, "
          "\"submitted\": %" PRIu64 ", \"door_shed\": %" PRIu64
          ", \"completed\": %" PRIu64 ", \"offered_bytes\": %" PRIu64
          ", \"goodput_bytes\": %" PRIu64 ", \"worst_goodput_ratio\": %.4f}",
          first ? "" : ",\n", to_string(static_cast<bench::TenantBehavior>(b)),
          a.tenants, a.submitted, a.door_shed, a.completed, a.offered_bytes,
          a.goodput_bytes, a.worst_goodput_ratio);
      first = false;
    }
    std::fprintf(f, "\n  ],\n  \"pass\": %s,\n  \"metrics\": %s\n}\n",
                 failed_runs == 0 ? "true" : "false",
                 obs::MetricsRegistry::instance().json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return failed_runs == 0 ? 0 : 1;
}

std::vector<double> parse_ratios(const std::string& text) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t next = text.find(',', pos);
    if (next == std::string::npos) next = text.size();
    out.push_back(std::stod(text.substr(pos, next - pos)));
    pos = next + 1;
  }
  if (out.empty()) throw std::invalid_argument("overload_soak: empty --ratios");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(
      "Overload soak: open-loop load vs the executor's bandwidth-priced "
      "admission control, 0.5x-4x analytic capacity (replay with --seed)");
  cli.option_str("ratios", "0.5,0.75,1.0,1.5,2.0,3.0,4.0",
                 "comma-separated offered-load multiples of capacity")
      .option_int("jobs", 240, "jobs per sweep point")
      .option_int("seed", 1, "load-generator seed")
      .option_int("workers", 4, "executor worker threads")
      .option_double("slack", 12.0, "mean deadline slack (x own service)")
      .option_str("schedule", "",
                  "ground-truth fault timeline (e.g. mc1:off@25%..75%); "
                  "degraded mode: goodput floor and miss-rate gate waived")
      .flag("reference", "canonical sweep; write JSON and gate acceptance")
      .flag("service",
            "multi-tenant service soak: adversarial mix + solo baseline, "
            "isolation invariants S1-S4 (see service_common.h)")
      .option_int("tenants", 1000, "service mode: tenant count")
      .option_int("service-jobs", 1000000,
                  "service mode: target submissions of the full mix")
      .option_double("attackers", 0.02,
                     "service mode: adversarial tenant fraction")
      .option_double("overdrive", 4.0,
                     "service mode: attacker offered load (x own quota)")
      .option_int("service-chaos", 0,
                  "service mode: run N seeded chaos pairs (random fault "
                  "schedules, seeds seed..seed+N-1) instead of one reference "
                  "pair")
      .option_str("csv", "", "mirror the table to this CSV path")
      .option_str("json", "", "reference-mode output path (default "
                              "BENCH_overload.json / BENCH_service.json)")
      .option_str("fail-log", "", "append failing seeds + invariants here");
  mcopt::bench::add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  mcopt::bench::ObsGuard obs(cli);

  mcopt::bench::OverloadParams base;
  base.jobs = static_cast<unsigned>(cli.get_int("jobs"));
  base.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  base.num_workers = static_cast<unsigned>(cli.get_int("workers"));
  base.deadline_slack = cli.get_double("slack");

  if (cli.get_flag("service")) {
    if (const auto st = mcopt::bench::check_count(
            "service-chaos", cli.get_int("service-chaos"), 0);
        !st.ok()) {
      std::fprintf(stderr, "overload_soak: %s\n", st.error().message.c_str());
      return 2;
    }
    mcopt::bench::ServiceSoakParams sp;
    sp.tenants = static_cast<unsigned>(cli.get_int("tenants"));
    sp.target_jobs = static_cast<unsigned>(cli.get_int("service-jobs"));
    sp.seed = base.seed;
    sp.num_workers = base.num_workers;
    sp.attacker_fraction = cli.get_double("attackers");
    sp.attacker_overdrive = cli.get_double("overdrive");
    if (!cli.get_str("schedule").empty()) {
      const sim::SimConfig sim_cfg{};
      const arch::Cycles horizon = mcopt::bench::service_soak_horizon(sp);
      sp.truth = mcopt::bench::parse_schedule_knob(
          cli.get_str("schedule"), sim_cfg, horizon + horizon / 4);
    }
    const std::string json = cli.get_str("json").empty()
                                 ? std::string("BENCH_service.json")
                                 : cli.get_str("json");
    return run_service(sp,
                       static_cast<unsigned>(cli.get_int("service-chaos")),
                       cli.get_flag("reference"), json,
                       cli.get_str("fail-log"));
  }

  const auto ratios = parse_ratios(cli.get_str("ratios"));
  const std::string json = cli.get_str("json").empty()
                               ? std::string("BENCH_overload.json")
                               : cli.get_str("json");
  return run_sweep(ratios, base, cli.get_str("schedule"), cli.get_str("csv"),
                   json, cli.get_flag("reference"), cli.get_str("fail-log"));
}
