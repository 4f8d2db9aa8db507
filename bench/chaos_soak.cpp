// Chaos soak: seeded fuzzing of transient-fault schedules against the
// self-healing supervisor's invariants.
//
// Every seed deterministically generates a random FaultSchedule (1-3 timed
// intervals drawn from all four fault classes), runs the supervised vector
// triad against it, and checks four invariants:
//
//   I1  supervision never loses: supervised bandwidth >= unsupervised
//       bandwidth * (1 - eps) under the same schedule and starting layout;
//   I2  replans are sound: after every committed migration the stream bases
//       land on planned-set controllers, spread as evenly as the pigeonhole
//       principle allows (pairwise distinct when streams <= survivors);
//   I3  the DES and the analytic model agree per epoch (fixed planned
//       layout, no supervision) within a bounded ratio;
//   I4  runs end un-degraded: schedules clear by 85% of the horizon, so the
//       final diagnosis must be healthy and the replan count bounded by the
//       schedule's transition count (+2 for the initial layout heal and one
//       backoff retry).
//
// The seed of every run is printed; any failure is replayable with --seed N
// (and appended to --fail-log for CI artifact upload). --reference runs the
// fixed reference schedule (mc1:off@25%..75%) and writes the supervised vs
// unsupervised triad comparison to BENCH_supervisor.json. --sockets N (>= 2)
// and --flap run one node-chaos driver: seeded socket/link schedules against
// the supervised node loop's failover (N1-N3) or fail-back (R1-R4)
// invariants. --kill-service runs the durable kill-restart harness of
// durable_common.h (K1-K4), the same code as bench/durability and the tier-1
// DurabilityRegression. Every seeded mode reports failing seeds through
// bench::FailLog.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#ifndef _WIN32
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include <omp.h>

#include "common.h"
#include "durable_common.h"
#include "numa_common.h"
#include "overload_common.h"
#include "runtime/checkpoint.h"
#include "runtime/numa_loop.h"
#include "runtime/supervised_loop.h"
#include "seg/integrity.h"
#include "seg/planner.h"
#include "util/backoff.h"
#include "util/crc.h"
#include "util/prng.h"
#include "util/timer.h"

namespace {

using namespace mcopt;

struct SoakParams {
  std::size_t n = 8192;
  unsigned threads = 32;
  unsigned slices = 10;
  /// Fail-back tuning for the supervised modes (--flap, --sockets N),
  /// parsed and check()-validated from the shared recovery flags.
  runtime::RecoveryConfig recovery{};
};

/// Draws a 1-3 interval schedule over percent-relative bounds. Intervals
/// begin in [10%, 50%] of the run and always clear by 85%, so every run has
/// a healthy tail (invariant I4's precondition).
sim::FaultSchedule random_schedule(util::Xoshiro256& rng,
                                   const SoakParams& params,
                                   const arch::InterleaveSpec& spec) {
  sim::FaultSchedule sched;
  const unsigned intervals = 1 + static_cast<unsigned>(rng.below(3));
  for (unsigned i = 0; i < intervals; ++i) {
    sim::FaultSchedule::Interval iv;
    iv.relative = true;
    iv.begin_frac = rng.uniform(0.10, 0.50);
    iv.end_frac = iv.begin_frac + rng.uniform(0.10, 0.85 - iv.begin_frac);
    switch (rng.below(4)) {
      case 0:
        iv.fault.offline_controllers.push_back(
            static_cast<unsigned>(rng.below(spec.num_controllers())));
        break;
      case 1:
        iv.fault.derates.push_back(
            {static_cast<unsigned>(rng.below(spec.num_controllers())),
             rng.uniform(0.25, 0.75)});
        break;
      case 2:
        iv.fault.slow_banks.push_back(
            {static_cast<unsigned>(rng.below(spec.num_banks())),
             8 + rng.below(33)});
        break;
      default:
        iv.fault.stragglers.push_back(
            {static_cast<unsigned>(rng.below(params.threads)),
             4 + rng.below(29)});
        break;
    }
    sched.intervals.push_back(std::move(iv));
  }
  return sched;
}

/// Horizon estimate for resolving percent bounds: one unsupervised planned
/// sweep, scaled to the slice count.
arch::Cycles estimate_horizon(const SoakParams& params,
                              const runtime::LoopConfig& base) {
  trace::VirtualArena arena;
  const arch::AddressMap map(base.sim.interleave);
  const auto planned = kernels::triad_layout_bases(
      arena, kernels::TriadLayout::kPlannedOffsets, params.n, map);
  runtime::LoopConfig probe = base;
  probe.slices = 1;
  probe.supervise = false;
  probe.sim.fault_schedule = {};
  const auto one = runtime::run_supervised_triad(arena, planned, params.n, probe);
  return one.total_cycles * base.slices;
}

struct SeedOutcome {
  bool pass = true;
  std::vector<std::string> failures;

  void fail(const std::string& what) {
    pass = false;
    failures.push_back(what);
  }
};

/// Closes a soak's fail log, then prints its summary line and, when a seed
/// failed, how to replay it.
int finish_soak(bench::FailLog& log, const char* what, std::size_t seeds,
                const std::string& replay_flags) {
  const unsigned failed = log.finish();
  std::printf("\n%s: %zu seeds, %u failing\n", what, seeds, failed);
  if (failed != 0)
    std::printf("replay any failure with: chaos_soak %s--seed <N>\n",
                replay_flags.c_str());
  return failed == 0 ? 0 : 1;
}

/// I2: committed migrations place the four stream bases on planned-set
/// controllers, as spread out as the pigeonhole principle allows.
void check_replan_soundness(const runtime::LoopResult& sup,
                            const arch::AddressMap& map, SeedOutcome& out) {
  for (const auto& replan : sup.replan_log) {
    std::vector<unsigned> count(map.spec().num_controllers(), 0);
    for (const arch::Addr base : replan.bases) {
      const unsigned c = map.controller_of(base);
      bool in_set = false;
      for (const unsigned s : replan.plan_set) in_set |= (s == c);
      if (!in_set)
        out.fail("I2: stream base on controller " + std::to_string(c) +
                 " outside planned set");
      ++count[c];
    }
    const auto streams = static_cast<unsigned>(replan.bases.size());
    const auto survivors = static_cast<unsigned>(replan.plan_set.size());
    const unsigned limit =
        survivors == 0 ? 0 : (streams + survivors - 1) / survivors;
    for (unsigned c = 0; c < count.size(); ++c)
      if (count[c] > limit)
        out.fail("I2: controller " + std::to_string(c) + " carries " +
                 std::to_string(count[c]) + " streams (pigeonhole limit " +
                 std::to_string(limit) + ")");
  }
}

/// I3: per-epoch DES bandwidth vs the analytic model, fixed planned layout.
void check_epoch_model(const SoakParams& params,
                       const runtime::LoopConfig& base,
                       const sim::FaultSchedule& resolved, SeedOutcome& out) {
  trace::VirtualArena arena;
  const arch::AddressMap map(base.sim.interleave);
  const auto bases = kernels::triad_layout_bases(
      arena, kernels::TriadLayout::kPlannedOffsets, params.n, map);
  sim::SimConfig cfg = base.sim;
  cfg.fault_schedule = resolved;
  auto wl = kernels::make_triad_workload(bases, params.n, params.threads,
                                         sched::Schedule::static_block(),
                                         base.slices);
  sim::Chip chip(cfg, arch::equidistant_placement(params.threads, cfg.topology));
  const sim::SimResult res = chip.run(wl);

  const std::vector<sim::AnalyticStream> logical = {
      {bases[0], true}, {bases[1], false}, {bases[2], false}, {bases[3], false}};
  const auto physical = sim::expand_rfo(logical);
  const auto est = sim::estimate_bandwidth_scheduled(
      physical, params.threads, cfg.calibration, map, cfg.topology.clock_ghz,
      cfg.faults, resolved, res.total_cycles);

  for (std::size_t k = 0; k < res.epochs.size() && k < est.epochs.size(); ++k) {
    const auto& epoch = res.epochs[k];
    if (epoch.length() < res.total_cycles / 20) continue;  // too short to judge
    const double model = est.epochs[k].estimate.bandwidth;
    if (model <= 0.0 || epoch.bandwidth <= 0.0) continue;
    const double ratio = epoch.bandwidth / model;
    if (ratio < 1.0 / 3.0 || ratio > 3.0)
      out.fail("I3: epoch " + std::to_string(k) + " (" + epoch.faults +
               ") DES/analytic ratio " + std::to_string(ratio) +
               " outside [1/3, 3]");
  }
}

SeedOutcome run_seed(std::uint64_t seed, const SoakParams& params,
                     bench::ObsGuard& obs) {
  SeedOutcome out;
  util::Xoshiro256 rng(seed);
  runtime::LoopConfig base;
  base.threads = params.threads;
  base.slices = params.slices;
  base.seed = seed;
  obs.apply(base.sim);

  const sim::FaultSchedule raw =
      random_schedule(rng, params, base.sim.interleave);
  const arch::Cycles horizon = estimate_horizon(params, base);
  const sim::FaultSchedule resolved = raw.resolved(horizon);
  const auto status = resolved.check(base.sim.interleave);
  if (!status.ok()) {
    // The generator never offlines every controller (<=3 intervals, 4
    // controllers), so a reject here is a generator bug, not a skip.
    out.fail("generator produced invalid schedule: " + status.error().message);
    return out;
  }
  std::printf("seed %" PRIu64 ": schedule %s\n", seed,
              resolved.describe().c_str());

  const arch::AddressMap map(base.sim.interleave);
  base.sim.fault_schedule = resolved;

  // Both contenders start from the pathological aliased layout; the
  // supervised one must detect and heal it, faults or not.
  trace::VirtualArena sup_arena;
  const auto sup_bases = kernels::triad_layout_bases(
      sup_arena, kernels::TriadLayout::kAligned8k, params.n, map);
  runtime::LoopConfig sup_cfg = base;
  sup_cfg.supervise = true;
  const auto sup =
      runtime::run_supervised_triad(sup_arena, sup_bases, params.n, sup_cfg);
  obs.add_timeline("seed=" + std::to_string(seed), sup.mc_timeline);

  trace::VirtualArena unsup_arena;
  const auto unsup_bases = kernels::triad_layout_bases(
      unsup_arena, kernels::TriadLayout::kAligned8k, params.n, map);
  runtime::LoopConfig unsup_cfg = base;
  unsup_cfg.supervise = false;
  const auto unsup = runtime::run_supervised_triad(unsup_arena, unsup_bases,
                                                   params.n, unsup_cfg);

  // I1: supervision never loses.
  if (sup.bandwidth < unsup.bandwidth * 0.98)
    out.fail("I1: supervised " + std::to_string(sup.bandwidth / 1e9) +
             " GB/s < unsupervised " + std::to_string(unsup.bandwidth / 1e9) +
             " GB/s");

  check_replan_soundness(sup, map, out);
  check_epoch_model(params, base, resolved, out);

  // I4: the schedule cleared by 85% of the horizon, so the run must end
  // believed-healthy with a bounded replan count (no thrash).
  if (sup.final_diagnosis.any())
    out.fail("I4: final diagnosis not healthy: " +
             sup.final_diagnosis.describe());
  const unsigned replan_budget =
      static_cast<unsigned>(resolved.event_count()) + 2;
  if (sup.replans > replan_budget)
    out.fail("I4: " + std::to_string(sup.replans) + " replans exceed budget " +
             std::to_string(replan_budget) + " (thrash)");

  std::printf("  supervised %.2f GB/s (replans=%u suppressed=%u declined=%u) "
              "unsupervised %.2f GB/s -> %s\n",
              sup.bandwidth / 1e9, sup.replans, sup.suppressed, sup.declined,
              unsup.bandwidth / 1e9, out.pass ? "PASS" : "FAIL");
  for (const auto& f : out.failures) std::printf("    %s\n", f.c_str());
  return out;
}

int run_reference(const SoakParams& params, const std::string& json_path,
                  bench::ObsGuard& obs) {
  runtime::LoopConfig base;
  base.threads = params.threads;
  base.slices = params.slices;
  obs.apply(base.sim);

  const arch::Cycles horizon = estimate_horizon(params, base);
  base.sim.fault_schedule = bench::parse_schedule_knob(
      "mc1:off@25%..75%", base.sim, horizon);
  const arch::AddressMap map(base.sim.interleave);

  trace::VirtualArena sup_arena;
  const auto sup_bases = kernels::triad_layout_bases(
      sup_arena, kernels::TriadLayout::kAligned8k, params.n, map);
  runtime::LoopConfig sup_cfg = base;
  sup_cfg.supervise = true;
  const auto sup =
      runtime::run_supervised_triad(sup_arena, sup_bases, params.n, sup_cfg);
  obs.add_timeline("reference", sup.mc_timeline);

  trace::VirtualArena aliased_arena;
  const auto aliased_bases = kernels::triad_layout_bases(
      aliased_arena, kernels::TriadLayout::kAligned8k, params.n, map);
  runtime::LoopConfig unsup_cfg = base;
  unsup_cfg.supervise = false;
  const auto aliased = runtime::run_supervised_triad(
      aliased_arena, aliased_bases, params.n, unsup_cfg);

  trace::VirtualArena planned_arena;
  const auto planned_bases = kernels::triad_layout_bases(
      planned_arena, kernels::TriadLayout::kPlannedOffsets, params.n, map);
  const auto planned = runtime::run_supervised_triad(
      planned_arena, planned_bases, params.n, unsup_cfg);

  const double recovery = bench::checked_rate(
      sup.bandwidth / aliased.bandwidth, "recovery ratio");
  std::printf(
      "# reference schedule mc1:off@25%%..75%%, triad n=%zu, %u threads, "
      "%u sweeps\n"
      "supervised (aliased start)    %.3f GB/s (replans=%u suppressed=%u "
      "declined=%u)\n"
      "unsupervised aliased          %.3f GB/s\n"
      "unsupervised planned          %.3f GB/s\n"
      "recovery ratio                %.3fx (acceptance: >= 1.3x)\n",
      params.n, params.threads, params.slices, sup.bandwidth / 1e9,
      sup.replans, sup.suppressed, sup.declined, aliased.bandwidth / 1e9,
      planned.bandwidth / 1e9, recovery);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr)
      throw std::runtime_error("chaos_soak: cannot write " + json_path);
    std::fprintf(
        f,
        "{\n"
        "  \"bench\": \"supervised_triad_reference\",\n"
        "  \"schedule\": \"mc1:off@25%%..75%%\",\n"
        "  \"n\": %zu,\n"
        "  \"threads\": %u,\n"
        "  \"sweeps\": %u,\n"
        "  \"supervised_gbs\": %.4f,\n"
        "  \"unsupervised_aliased_gbs\": %.4f,\n"
        "  \"unsupervised_planned_gbs\": %.4f,\n"
        "  \"recovery_ratio\": %.4f,\n"
        "  \"replans\": %u,\n"
        "  \"suppressed\": %u,\n"
        "  \"declined\": %u,\n"
        "  \"migration_cycle_share\": %.6f,\n"
        "  \"metrics\": %s\n"
        "}\n",
        params.n, params.threads, params.slices, sup.bandwidth / 1e9,
        aliased.bandwidth / 1e9, planned.bandwidth / 1e9, recovery,
        sup.replans, sup.suppressed, sup.declined,
        static_cast<double>(sup.migration_cycles) /
            static_cast<double>(sup.total_cycles),
        obs::MetricsRegistry::instance().json().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return recovery >= 1.3 ? 0 : 1;
}

// --- data-integrity chaos: --flips and --kill-resume ----------------------

std::uint32_t field_crc(const seg::seg_array<double>& g) {
  util::Crc32c crc;
  for (std::size_t i = 0; i < g.num_segments(); ++i)
    crc.update(g.segment(i).begin(), g.segment(i).size() * sizeof(double));
  return crc.value();
}

/// --flips mode: native Jacobi with CRC-guarded segments under seeded
/// bit-flip injection at a sweep of per-word rates. For every rate the run
/// must detect EVERY injected corruption (CRC32C catches any single-bit
/// error by construction), rebuild the damaged rows from the previous
/// field, and finish bitwise-identical to an uninjected shadow run. The
/// healthy-path (rate 0) pass reports the CRC seal+verify overhead; only
/// soundness — zero undetected corruptions, bitwise recovery — affects the
/// exit code.
int run_flip_sweep(std::size_t n, unsigned sweeps, std::uint64_t seed) {
  const auto schedule = sched::Schedule::static_block();
  const double rates[] = {0.0, 1e-6, 1e-5, 1e-4, 1e-3};
  bool pass = true;

  std::printf("# flip-rate sweep: native Jacobi %zux%zu, %u sweeps, "
              "CRC32C-guarded rows, seed %" PRIu64 "\n\n",
              n, n, sweeps, seed);
  std::printf("%-10s %-10s %-10s %-12s %-10s %s\n", "rate", "injected",
              "detected", "undetected", "rebuilt", "recovered");

  double plain_seconds = 0.0;
  double guarded_seconds = 0.0;
  for (const double rate : rates) {
    util::Xoshiro256 rng(seed);
    auto a = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
    auto b = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
    auto sa = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
    auto sb = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
    kernels::init_jacobi(a);
    kernels::init_jacobi(b);
    kernels::init_jacobi(sa);
    kernels::init_jacobi(sb);
    seg::SegmentGuard<double> ga(a), gb(b);
    struct Half {
      seg::seg_array<double>* grid;
      seg::SegmentGuard<double>* guard;
    };
    Half cur{&a, &ga}, next{&b, &gb};
    seg::seg_array<double>* shadow_cur = &sa;
    seg::seg_array<double>* shadow_next = &sb;

    std::uint64_t injected = 0, detected = 0, undetected = 0, rebuilt = 0;
    util::Timer timer;
    for (unsigned sweep = 0; sweep < sweeps; ++sweep) {
      kernels::jacobi_sweep_seconds(*cur.grid, *next.grid, schedule);
      next.guard->seal();
      std::swap(cur, next);
      kernels::jacobi_sweep_seconds(*shadow_cur, *shadow_next, schedule);
      std::swap(shadow_cur, shadow_next);

      // Inject: each word of the current field flips one random bit with
      // probability `rate` (counter-mode draws; seeded, replayable).
      std::vector<bool> hit(n, false);
      for (std::size_t s = 0; s < n; ++s)
        for (std::size_t j = 0; j < n; ++j)
          if (rng.uniform() < rate) {
            auto& word = cur.grid->segment(s)[j];
            std::uint64_t bits;
            __builtin_memcpy(&bits, &word, 8);
            bits ^= std::uint64_t{1} << rng.below(64);
            __builtin_memcpy(&word, &bits, 8);
            hit[s] = true;
            ++injected;
          }

      const auto flagged = cur.guard->corrupted();
      std::vector<bool> caught(n, false);
      for (const std::size_t s : flagged) caught[s] = true;
      for (std::size_t s = 0; s < n; ++s)
        if (hit[s] && !caught[s]) ++undetected;
      detected += flagged.size();

      if (!flagged.empty()) {
        const auto report = cur.guard->scrub([&](std::size_t s) {
          kernels::jacobi_rebuild_row(*cur.grid, *next.grid, s);
          return true;
        });
        rebuilt += report.rebuilt.size();
      }
    }
    const double seconds = timer.seconds();
    if (rate == 0.0) guarded_seconds = seconds;

    const bool recovered = field_crc(*cur.grid) == field_crc(*shadow_cur);
    if (undetected != 0 || !recovered) pass = false;
    std::printf("%-10.0e %-10" PRIu64 " %-10" PRIu64 " %-12" PRIu64
                " %-10" PRIu64 " %s\n",
                rate, injected, detected, undetected, rebuilt,
                recovered ? "bitwise" : "MISMATCH");
  }

  // Healthy-path overhead: the same run without any guard.
  {
    auto a = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
    auto b = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
    kernels::init_jacobi(a);
    kernels::init_jacobi(b);
    util::Timer timer;
    for (unsigned sweep = 0; sweep < sweeps; ++sweep) {
      kernels::jacobi_sweep_seconds(a, b, schedule);
      std::swap(a, b);
    }
    plain_seconds = timer.seconds();
  }
  if (plain_seconds > 0.0)
    std::printf("\nhealthy-path CRC overhead: %.2f%% (guarded %.4fs vs plain "
                "%.4fs; informational, not asserted)\n",
                100.0 * (guarded_seconds - plain_seconds) / plain_seconds,
                guarded_seconds, plain_seconds);
  std::printf("flip sweep: %s\n", pass ? "PASS (zero undetected corruptions)"
                                       : "FAIL");
  return pass ? 0 : 1;
}

#ifndef _WIN32
/// The native Jacobi solve of --kill-resume: from the initial field, or
/// from `resume` when given, up to `sweeps`; with a checkpoint path it saves
/// every `every` sweeps and at the end. Returns the final field CRC, or why
/// the resume state or a checkpoint save was refused.
util::Expected<std::uint32_t> kill_resume_solve(
    std::size_t n, unsigned sweeps, const runtime::JacobiState* resume,
    const std::string& ckpt, unsigned every) {
  auto a = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
  auto b = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
  kernels::init_jacobi(a);
  kernels::init_jacobi(b);
  seg::seg_array<double>* cur = &a;
  seg::seg_array<double>* next = &b;
  unsigned done = 0;
  if (resume != nullptr) {
    if (const auto st = runtime::apply_jacobi_state(*resume, *cur); !st.ok())
      return util::Expected<std::uint32_t>::failure(st.error().message);
    done = static_cast<unsigned>(resume->sweeps);
  }
  while (done < sweeps) {
    kernels::jacobi_sweep_seconds(*cur, *next, sched::Schedule::static_block());
    std::swap(cur, next);
    ++done;
    if (!ckpt.empty() && (done % every == 0 || done == sweeps))
      if (const auto st = runtime::save_jacobi_checkpoint(ckpt, *cur, done);
          !st.ok())
        return util::Expected<std::uint32_t>::failure(st.error().message);
  }
  return field_crc(*cur);
}

/// --kill-resume mode: fork the checkpointing solve, SIGKILL it at a seeded
/// random moment (possibly mid-checkpoint-write — the atomic-rename
/// protocol must leave a loadable file or none), resume from whatever
/// survives, and require the final field to be bitwise identical to an
/// uninterrupted run. A child that dies on its own is a failure.
int run_kill_resume(std::size_t n, unsigned sweeps, unsigned every,
                    const std::vector<std::uint64_t>& seeds) {
  // One OpenMP thread for the whole mode. libgomp's thread pool does not
  // survive fork(): a child that reuses a pool the parent started hangs in
  // its first parallel sweep. And the reference below calibrates the kill
  // window, so it must time the solve the child runs. A Jacobi sweep has no
  // reductions, so the field is bitwise the same at any thread count (the
  // CRC comparison confirms it).
  omp_set_num_threads(1);
  // Uninterrupted reference (also calibrates the kill window).
  util::Timer timer;
  const std::uint32_t ref_crc =
      kill_resume_solve(n, sweeps, nullptr, "", every).value();
  const double ref_seconds = timer.seconds();
  std::printf("# kill-and-resume: Jacobi %zux%zu, %u sweeps, checkpoint "
              "every %u; reference FIELD_CRC=0x%08x (%.3fs)\n\n",
              n, n, sweeps, every, ref_crc, ref_seconds);

  unsigned failures = 0;
  unsigned resumed_mid_run = 0;
  for (const std::uint64_t seed : seeds) {
    util::Xoshiro256 rng(seed);
    const std::string ck = bench::scratch_path("chaos_kill", seed).string() +
                           ".ckpt";
    std::remove(ck.c_str());
    std::remove((ck + ".tmp").c_str());

    const pid_t pid = fork();
    if (pid < 0) {
      std::fprintf(stderr, "chaos_soak: fork failed\n");
      return 2;
    }
    if (pid == 0)
      _exit(kill_resume_solve(n, sweeps, nullptr, ck, every) ? 0 : 3);

    // The child also pays fork/init and one fsync per checkpoint, so its
    // wall time exceeds the reference's; a window of several multiples
    // lands kills before the first checkpoint, mid-run, and near the end.
    const double kill_after =
        rng.uniform(0.0, ref_seconds * 4.0 + 0.02 * static_cast<double>(
                                                        sweeps / every));
    usleep(static_cast<useconds_t>(kill_after * 1e6));
    kill(pid, SIGKILL);
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);

    // Resume from whatever the dead child left behind. A missing file means
    // it died before the first checkpoint: start over. A present file MUST
    // load — a refusal here would mean the atomic-rename protocol tore.
    std::string failure;
    std::string note = "no checkpoint yet";
    std::uint32_t crc = 0;
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
      failure = "checkpointing child exited with status " +
                std::to_string(WEXITSTATUS(wstatus)) +
                (WEXITSTATUS(wstatus) == 3 ? " (a checkpoint save failed)" : "");
    } else if (WIFSIGNALED(wstatus) && WTERMSIG(wstatus) != SIGKILL) {
      failure = "checkpointing child died of signal " +
                std::to_string(WTERMSIG(wstatus));
    } else {
      const auto state = runtime::load_jacobi_checkpoint(ck);
      if (!state && state.error().message.find("cannot open") ==
                        std::string::npos) {
        failure = state.error().message;  // a torn write escaped the protocol
      } else {
        const auto solved = kill_resume_solve(
            n, sweeps, state ? &state.value() : nullptr, "", every);
        if (!solved) {
          failure = "checkpoint state rejected: " + solved.error().message;
        } else {
          crc = solved.value();
          if (state) {
            note = "resumed at sweep " + std::to_string(state.value().sweeps);
            if (state.value().sweeps < sweeps) ++resumed_mid_run;
          }
        }
      }
    }
    std::remove(ck.c_str());
    std::remove((ck + ".tmp").c_str());
    if (!failure.empty()) {
      std::printf("seed %" PRIu64 ": FAIL (%s)\n", seed, failure.c_str());
      ++failures;
      continue;
    }
    const bool ok = crc == ref_crc;
    std::printf("seed %" PRIu64 ": killed at %.3fs, %s -> FIELD_CRC=0x%08x "
                "%s\n",
                seed, kill_after, note.c_str(), crc, ok ? "PASS" : "FAIL");
    if (!ok) ++failures;
  }
  std::printf("\nkill-and-resume: %zu seeds, %u failing, %u resumed "
              "mid-run from a checkpoint\n",
              seeds.size(), failures, resumed_mid_run);
  return failures == 0 ? 0 : 1;
}

/// --kill-service mode: the durable kill-restart harness (durable_common.h,
/// invariants K1-K4) at a seeded random kill instant per seed, possibly
/// mid-journal-write, on a seed-perturbed job stream.
int run_kill_service(const std::vector<std::uint64_t>& seeds,
                     const std::string& fail_path) {
  bench::FailLog log(fail_path);
  for (const std::uint64_t seed : seeds) {
    util::Xoshiro256 rng(seed);
    const unsigned kill_after_us = 500 + static_cast<unsigned>(rng() % 30000);
    bench::DurableWorkload workload;
    workload.seed = seed;
    workload.jobs = 48;
    workload.batch = 8;
    const std::filesystem::path root = bench::scratch_path("chaos_killsvc", seed);
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
    const auto out = bench::run_kill_restart(root, workload, kill_after_us);
    std::filesystem::remove_all(root, ec);

    std::printf("seed %" PRIu64 ": kill@%uus -> %s\n", seed, kill_after_us,
                out.failures.empty() ? "PASS" : "FAIL");
    for (const auto& f : out.failures) std::printf("  %s\n", f.c_str());
    log.add("kill-service seed " + std::to_string(seed), out.failures);
  }
  return finish_soak(log, "kill-service", seeds.size(), "--kill-service ");
}
#endif  // !_WIN32

// --- overload chaos: --overload -------------------------------------------

/// --overload mode: the open-loop overload generator composed with random
/// mid-run fault schedules (bench::overload_chaos_params — the schedule
/// draw lives in overload_common.h so the regression tier replays seeds
/// bit-for-bit). Degraded-mode invariants (conservation, typed sheds,
/// per-job shed-lag, goodput capped at the completed jobs' analytic rate)
/// must hold for every seed; goodput may sag, jobs may shed, but nothing
/// deadlocks or goes missing.
int run_overload_chaos(const std::vector<std::uint64_t>& seeds, unsigned jobs,
                       unsigned workers, double ratio,
                       const std::string& fail_path) {
  bench::FailLog log(fail_path);
  for (const std::uint64_t seed : seeds) {
    const bench::OverloadParams params =
        bench::overload_chaos_params(seed, jobs, workers, ratio);
    const auto res = bench::run_overload(params);
    const auto fails = bench::check_overload_invariants(params, res, false);
    std::printf("seed %" PRIu64 ": goodput %.3f GB/s, %" PRIu64
                " completed, %" PRIu64 " replans, %s\n",
                seed, res.goodput_gbs, res.stats.completed,
                res.stats.replans, fails.empty() ? "PASS" : "FAIL");
    for (const auto& f : fails) std::printf("  %s\n", f.c_str());
    log.add("overload seed " + std::to_string(seed), fails);
  }
  return finish_soak(log, "overload chaos", seeds.size(), "--overload ");
}

// --- node chaos: --sockets N and --flap -----------------------------------

/// N2 / R1 placement soundness of one committed migration: every job's
/// compute and home socket lie inside the replan's healthy set.
void check_placements(const runtime::NodeReplanRecord& replan,
                      const std::string& what, const char* set,
                      SeedOutcome& out) {
  for (const runtime::NodeJob& job : replan.jobs) {
    bool compute_ok = false;
    bool home_ok = false;
    for (const unsigned h : replan.healthy_sockets) {
      compute_ok |= (job.compute_socket == h);
      home_ok |= (job.home_socket == h);
    }
    if (!compute_ok || !home_ok)
      out.fail(what + " on socket " + std::to_string(job.compute_socket) +
               " homed " + std::to_string(job.home_socket) +
               " outside the replan's " + set);
  }
}

/// --sockets N (N >= 2) invariants, against a failover schedule where a
/// dead socket stays dead:
///
///   N1  cross-socket supervision never loses: supervised node bandwidth
///       >= unsupervised * (1 - eps) under the same schedule and the same
///       local starting placement;
///   N2  failover is sound: after every committed migration each job's
///       compute and home socket lie inside that replan's healthy set;
///   N3  no thrash: committed replans <= schedule transitions + 1.
void judge_failover(const runtime::NodeLoopResult& sup,
                    const runtime::NodeLoopResult& unsup,
                    const sim::FaultSchedule& resolved, SeedOutcome& out) {
  if (sup.bandwidth < unsup.bandwidth * 0.98)
    out.fail("N1: supervised " + std::to_string(sup.bandwidth / 1e9) +
             " GB/s < unsupervised " + std::to_string(unsup.bandwidth / 1e9) +
             " GB/s");
  for (const runtime::NodeReplanRecord& replan : sup.replan_log)
    check_placements(replan, "N2: job", "healthy set", out);
  const unsigned replan_budget =
      static_cast<unsigned>(resolved.event_count()) + 1;
  if (sup.replans > replan_budget)
    out.fail("N3: " + std::to_string(sup.replans) + " replans exceed budget " +
             std::to_string(replan_budget) + " (thrash)");

  std::printf("  supervised %.2f GB/s (replans=%u suppressed=%u "
              "declined=%u) unsupervised %.2f GB/s -> %s\n",
              sup.bandwidth / 1e9, sup.replans, sup.suppressed, sup.declined,
              unsup.bandwidth / 1e9, out.pass ? "PASS" : "FAIL");
}

/// --flap invariants, against an outage-and-return or flapping-socket
/// schedule where every fault clears mid-run:
///
///   R1  placements are sound: after every committed migration each shard's
///       compute and home socket lie inside that replan's believed-healthy
///       set, and every moved range came through CRC-verified (the loop
///       aborts on mismatch; the per-replan counts must reconcile);
///   R2  no thrash: committed replans <= schedule events + completed
///       readmission ramps + 1 — the breaker's geometric escalation is what
///       holds this under a flapping socket;
///   R3  the prober is live: any run that quarantined a socket must have
///       issued at least one canary probe, and every confirmed recovery
///       implies a probe;
///   R4  recovery roughly pays: supervised bandwidth >= unsupervised *0.90
///       under the same schedule (the break-even gate prices migrations
///       against a fault that may clear early, so a thin loss is tolerated;
///       a deep one means the gate or the ramp broke).
void judge_recovery(const runtime::NodeLoopResult& sup,
                    const runtime::NodeLoopResult& unsup,
                    const sim::FaultSchedule& resolved, unsigned sockets,
                    SeedOutcome& out) {
  unsigned crc_total = 0;
  bool quarantined = false;
  for (const runtime::NodeReplanRecord& replan : sup.replan_log) {
    quarantined |= replan.healthy_sockets.size() < sockets;
    crc_total += replan.crc_ranges_verified;
    if (replan.moved_bytes > 0 && replan.crc_ranges_verified == 0)
      out.fail("R1: migration moved " + std::to_string(replan.moved_bytes) +
               " bytes with zero CRC-verified ranges");
    check_placements(replan, "R1: shard", "believed-healthy set", out);
  }
  if (crc_total != sup.crc_ranges_verified)
    out.fail("R1: per-replan CRC counts (" + std::to_string(crc_total) +
             ") do not reconcile with the run total (" +
             std::to_string(sup.crc_ranges_verified) + ")");

  const unsigned replan_budget =
      static_cast<unsigned>(resolved.event_count()) + sup.readmissions + 1;
  if (sup.replans > replan_budget)
    out.fail("R2: " + std::to_string(sup.replans) + " replans exceed budget " +
             std::to_string(replan_budget) +
             " (thrash under a clearing fault)");

  if (quarantined && sup.probes == 0)
    out.fail("R3: socket quarantined but no canary probe issued");
  if (sup.recoveries > 0 && sup.probes == 0)
    out.fail("R3: recovery confirmed without a probe");

  if (sup.bandwidth < unsup.bandwidth * 0.90)
    out.fail("R4: supervised " + std::to_string(sup.bandwidth / 1e9) +
             " GB/s < 0.90x unsupervised " +
             std::to_string(unsup.bandwidth / 1e9) + " GB/s");

  std::printf("  supervised %.2f GB/s (replans=%u probes=%u recoveries=%u "
              "readmissions=%u) unsupervised %.2f GB/s -> %s\n",
              sup.bandwidth / 1e9, sup.replans, sup.probes, sup.recoveries,
              sup.readmissions, unsup.bandwidth / 1e9,
              out.pass ? "PASS" : "FAIL");
}

/// --sockets N and --flap: seeded socket-granular fault schedules against
/// the supervised node loop. `recovery` (--flap) draws
/// bench::numa_recovery_schedule and judges R1-R4; otherwise the draw is
/// bench::numa_chaos_schedule (sock:off, sock:derate, link derate/off) and
/// the judge N1-N3. Both draws live in numa_common.h so the regression
/// tier replays seeds bit-for-bit.
int run_node_chaos(bool recovery, const std::vector<std::uint64_t>& seeds,
                   unsigned sockets, const SoakParams& params,
                   const std::string& fail_path, bench::ObsGuard& obs) {
  runtime::NodeLoopConfig base;
  base.node.node.num_sockets = sockets;
  base.detector.recovery = params.recovery;
  base.node.validate();
  obs.apply(base.node.sim);
  // Worst-case failover packs every job onto one chip.
  base.threads = std::min(
      params.threads, base.node.sim.topology.max_threads() / sockets);
  // De-resonate the static-block partition: a chunk that is a whole number
  // of interleave periods marches every strand through the same controller
  // sequence in lockstep (convoy), which the analytic model deliberately
  // does not capture — and an over-predicted packed placement would make
  // the migration gate commit losing moves.
  const arch::AddressMap map(base.node.sim.interleave);
  while (base.threads > 2 &&
         bench::convoy_resonant(params.n, base.threads, map))
    --base.threads;
  if (recovery)
    bench::warn_if_convoy_resonant("chaos_soak --flap", params.n, base.threads,
                                   map);
  base.slices = params.slices;

  // One healthy probe resolves every seed's percent-relative stamps.
  runtime::NodeLoopConfig probe = base;
  probe.supervise = false;
  probe.node.sim.mc_sample_cadence = 0;
  const arch::Cycles horizon =
      runtime::run_supervised_node_triad(params.n, probe).total_cycles;

  const char* title = recovery ? "recovery chaos" : "NUMA chaos";
  std::printf("# %s: %u sockets, triad n=%zu, %u strands/job, %u slices, "
              "horizon %" PRIu64 "%s\n",
              title, sockets, params.n, base.threads, base.slices,
              static_cast<std::uint64_t>(horizon),
              recovery ? " (every fault clears mid-run)" : "");

  bench::FailLog log(fail_path);
  for (const std::uint64_t seed : seeds) {
    SeedOutcome out;
    util::Xoshiro256 rng(seed);
    const sim::FaultSchedule resolved =
        recovery ? bench::numa_recovery_schedule(rng, sockets, horizon)
                 : bench::numa_chaos_schedule(rng, sockets).resolved(horizon);
    const auto status = resolved.check(base.node.sim.interleave, sockets);
    if (!status.ok()) {
      out.fail("generator produced invalid schedule: " +
               status.error().message);
    } else {
      std::printf("seed %" PRIu64 ": schedule %s\n", seed,
                  resolved.describe().c_str());
      runtime::NodeLoopConfig cfg = base;
      cfg.seed = seed;
      cfg.node.sim.fault_schedule = resolved;
      cfg.supervise = true;
      const auto sup = runtime::run_supervised_node_triad(params.n, cfg);
      for (unsigned s = 0; s < sup.socket_timelines.size(); ++s)
        if (!sup.socket_timelines[s].empty())
          obs.add_timeline("seed=" + std::to_string(seed) + ".sock" +
                               std::to_string(s),
                           sup.socket_timelines[s]);
      cfg.supervise = false;
      const auto unsup = runtime::run_supervised_node_triad(params.n, cfg);
      if (recovery)
        judge_recovery(sup, unsup, resolved, sockets, out);
      else
        judge_failover(sup, unsup, resolved, out);
    }
    for (const auto& f : out.failures) std::printf("    %s\n", f.c_str());
    log.add((recovery ? "flap seed " : "numa seed ") + std::to_string(seed),
            out.failures);
  }
  return finish_soak(log, title, seeds.size(),
                     recovery ? std::string("--flap ")
                              : "--sockets " + std::to_string(sockets) + " ");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("Chaos soak: fuzz transient-fault schedules against the "
                "supervisor's invariants (replay any failure with --seed)");
  cli.option_int("seeds", 32, "number of seeds to soak (1..seeds)")
      .option_int("seed", 0, "run exactly this seed (0 = soak 1..seeds)")
      .option_int("n", 8192, "triad array elements")
      .option_int("threads", 32, "software threads")
      .option_int("sweeps", 10, "triad sweeps (= supervision slices)")
      .option_str("fail-log", "", "append failing seeds + schedules here")
      .flag("reference", "run the fixed reference schedule and write JSON")
      .flag("flips", "flip-rate sweep: CRC-guarded native Jacobi must "
                     "detect and repair every injected bit flip")
      .flag("kill-resume", "SIGKILL a checkpointing native Jacobi solve at "
                           "random points; resumes must finish bitwise-"
                           "identical to an uninterrupted run")
      .flag("kill-service", "SIGKILL the durable service runtime at seeded "
                            "random instants; restarts must lose no acked "
                            "submission, run nothing twice, and reconcile "
                            "the per-tenant ledger byte-exactly")
      .flag("overload", "compose the executor overload generator with "
                        "random fault schedules; degraded invariants must "
                        "hold for every seed")
      .option_int("sockets", 1,
                  "fuzz socket/link faults on an N-socket node instead of "
                  "single-chip faults (>= 2 enables NUMA chaos)")
      .flag("flap", "recovery chaos: seeded outage-and-return / flapping-"
                    "socket schedules against the fail-back invariants "
                    "(probe liveness, CRC-verified rebalancing, bounded "
                    "replans); --sockets picks the node width (default 2)")
      .option_int("jobs", 240, "jobs per seed for --overload")
      .option_int("workers", 4, "executor worker threads for --overload")
      .option_double("ratio", 2.0,
                     "offered load (x capacity) for --overload")
      .option_int("grid", 384, "Jacobi grid size for --flips/--kill-resume")
      .option_int("grid-sweeps", 64,
                  "Jacobi sweeps for --flips/--kill-resume")
      .option_int("every", 4, "checkpoint interval for --kill-resume")
      .option_str("json", "BENCH_supervisor.json",
                  "reference-mode output path");
  bench::add_recovery_options(cli);
  bench::add_obs_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::ObsGuard obs(cli);

  SoakParams params;
  params.n = static_cast<std::size_t>(cli.get_int("n"));
  params.threads = static_cast<unsigned>(cli.get_int("threads"));
  params.slices = static_cast<unsigned>(cli.get_int("sweeps"));
  if (const auto st = bench::apply_recovery_options(cli, params.recovery);
      !st.ok()) {
    std::fprintf(stderr, "chaos_soak: %s\n", st.error().message.c_str());
    return 2;
  }

  if (cli.get_flag("reference")) {
    params.threads = 64;
    return run_reference(params, cli.get_str("json"), obs);
  }

  const auto seed_arg = bench::seed_list(cli.get_int("seed"),
                                         cli.get_int("seeds"));
  const auto every_arg = bench::check_count("every", cli.get_int("every"), 1);
  if (!seed_arg || !every_arg.ok()) {
    std::fprintf(stderr, "chaos_soak: %s\n",
                 !seed_arg ? seed_arg.error().message.c_str()
                           : every_arg.error().message.c_str());
    return 2;
  }
  const std::vector<std::uint64_t>& seeds = seed_arg.value();

  if (cli.get_flag("flap"))
    return run_node_chaos(
        true, seeds,
        std::max(2u, static_cast<unsigned>(cli.get_int("sockets"))), params,
        cli.get_str("fail-log"), obs);
  if (cli.get_int("sockets") > 1)
    return run_node_chaos(false, seeds,
                          static_cast<unsigned>(cli.get_int("sockets")),
                          params, cli.get_str("fail-log"), obs);
  if (cli.get_flag("overload"))
    return run_overload_chaos(seeds, static_cast<unsigned>(cli.get_int("jobs")),
                              static_cast<unsigned>(cli.get_int("workers")),
                              cli.get_double("ratio"),
                              cli.get_str("fail-log"));
  if (cli.get_flag("flips"))
    return run_flip_sweep(static_cast<std::size_t>(cli.get_int("grid")),
                          static_cast<unsigned>(cli.get_int("grid-sweeps")),
                          seeds.front());
  if (cli.get_flag("kill-resume")) {
#ifndef _WIN32
    return run_kill_resume(static_cast<std::size_t>(cli.get_int("grid")),
                           static_cast<unsigned>(cli.get_int("grid-sweeps")),
                           static_cast<unsigned>(cli.get_int("every")), seeds);
#else
    std::fprintf(stderr, "chaos_soak: --kill-resume needs fork(); POSIX only\n");
    return 2;
#endif
  }
  if (cli.get_flag("kill-service")) {
#ifndef _WIN32
    return run_kill_service(seeds, cli.get_str("fail-log"));
#else
    std::fprintf(stderr,
                 "chaos_soak: --kill-service needs fork(); POSIX only\n");
    return 2;
#endif
  }

  bench::FailLog log(cli.get_str("fail-log"));
  for (const std::uint64_t seed : seeds)
    log.add("seed " + std::to_string(seed), run_seed(seed, params, obs).failures);
  return finish_soak(log, "chaos soak", seeds.size(), "");
}
