#include "runtime/supervised_loop.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "arch/topology.h"
#include "kernels/jacobi.h"
#include "kernels/triad.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "seg/planner.h"
#include "sim/analytic.h"
#include "trace/jacobi_program.h"
#include "util/log.h"

namespace mcopt::runtime {

namespace {

/// Picks the freshest *meaningful* utilization window out of a slice result:
/// the latest schedule epoch that is long enough to carry signal, falling
/// back to the whole slice. `global_begin` rebases onto the loop timeline.
Sample make_sample(const sim::SimResult& res, arch::Cycles global_begin);

/// Stitches one slice's controller timeline (slice-local cycles) onto the
/// global loop timeline.
void append_timeline(LoopResult& out, const sim::SimResult& res,
                     arch::Cycles slice_begin) {
  for (const obs::McSample& row : res.mc_timeline) {
    obs::McSample shifted = row;
    shifted.begin += slice_begin;
    shifted.end += slice_begin;
    out.mc_timeline.push_back(std::move(shifted));
  }
  out.mc_timeline_truncated =
      out.mc_timeline_truncated || res.mc_timeline_truncated;
}

Sample make_sample(const sim::SimResult& res, arch::Cycles global_begin) {
  Sample s;
  // Corruption is a whole-slice property: a flip anywhere in the slice must
  // reach the supervisor even if the utilization window is a later epoch.
  s.corrupted_reads = res.corrupted_reads;
  const arch::Cycles min_len =
      std::max<arch::Cycles>(1000, res.total_cycles / 20);
  for (auto it = res.epochs.rbegin(); it != res.epochs.rend(); ++it) {
    if (it->length() >= min_len) {
      s.begin = global_begin + it->begin;
      s.end = global_begin + it->end;
      s.mc_utilization = it->mc_utilization;
      return s;
    }
  }
  s.begin = global_begin;
  s.end = global_begin + res.total_cycles;
  s.mc_utilization = res.mc_utilization;
  return s;
}

/// Charges one checksum-verify pass (read every live byte once) at `bw` to
/// the loop's cycle count — the simulated cost of SegmentGuard::verify plus
/// rebuild after the supervisor orders a scrub.
void charge_scrub(LoopResult& out, arch::Cycles& global, double live_bytes,
                  double bw, double ghz, const char* who) {
  ++out.scrubs;
  const arch::Cycles cost =
      bw > 0.0 ? arch::seconds_to_cycles(live_bytes / bw, ghz) : 0;
  // Integrity scrubs read every live byte once: system work, charged to
  // tenant 0 with no placement (the verify walks all controllers).
  obs::Attribution::instance().charge(0, -1, obs::Charge::kScrub, 0,
                                      static_cast<std::uint64_t>(live_bytes));
  obs::trace_instant("loop.scrub", "loop", global, cost);
  global += cost;
  out.total_cycles += cost;
  out.scrub_cycles += cost;
  util::log_info(std::string(who) + ": scrub at=" + std::to_string(global) +
                 " cost=" + std::to_string(cost) + " cycles");
}

/// Analytic triad bandwidth for the given array bases under a fault belief.
double triad_analytic_bw(const std::vector<arch::Addr>& bases, unsigned threads,
                         const sim::SimConfig& sc, const arch::AddressMap& map,
                         const sim::FaultSpec& belief) {
  const std::vector<sim::AnalyticStream> logical = {
      {bases[0], true}, {bases[1], false}, {bases[2], false}, {bases[3], false}};
  const auto physical = sim::expand_rfo(logical);
  return sim::estimate_bandwidth(physical, threads, sc.calibration, map,
                                 sc.topology.clock_ghz, belief)
      .bandwidth;
}

/// Hypothetical triad bases under a stream plan (analytic probes only; the
/// probe base is period-aligned so only the planned offsets matter).
std::vector<arch::Addr> plan_probe_bases(const seg::StreamPlan& plan) {
  std::vector<arch::Addr> bases;
  bases.reserve(plan.offsets.size());
  for (const std::size_t off : plan.offsets)
    bases.push_back((arch::Addr{1} << 40) + off);
  return bases;
}

/// First interior source-row bases, one per concurrently running thread
/// (static,1: thread t's first row is 1 + t).
std::vector<arch::Addr> jacobi_front_bases(const trace::VirtualSegArray& src,
                                           std::size_t n, unsigned threads) {
  std::vector<arch::Addr> bases;
  const std::size_t rows = std::min<std::size_t>(threads, n - 2);
  for (std::size_t t = 0; t < rows; ++t)
    bases.push_back(src.segment_base(1 + t));
  return bases;
}

/// Analytic Jacobi bandwidth proxy: each concurrent thread contributes its
/// first source row as a read stream and the matching dest row as a write
/// stream — enough to expose row-shift aliasing to the lockstep model.
double jacobi_analytic_bw(const trace::VirtualSegArray& src,
                          const trace::VirtualSegArray& dst, std::size_t n,
                          unsigned threads, const sim::SimConfig& sc,
                          const arch::AddressMap& map,
                          const sim::FaultSpec& belief) {
  std::vector<sim::AnalyticStream> logical;
  const std::size_t rows = std::min<std::size_t>(threads, n - 2);
  for (std::size_t t = 0; t < rows; ++t) {
    logical.push_back({src.segment_base(1 + t), false});
    logical.push_back({dst.segment_base(1 + t), true});
  }
  const auto physical = sim::expand_rfo(logical);
  return sim::estimate_bandwidth(physical, static_cast<unsigned>(rows),
                                 sc.calibration, map, sc.topology.clock_ghz,
                                 belief)
      .bandwidth;
}

}  // namespace

util::Status LoopConfig::check() const {
  util::Status status;
  status.merge(sim.check());
  status.merge(detector.check());
  if (threads == 0) status.note("LoopConfig: threads must be >= 1");
  if (slices == 0) status.note("LoopConfig: slices must be >= 1");
  if (!(migration_safety >= 0.0) || !std::isfinite(migration_safety))
    status.note("LoopConfig: migration_safety must be finite and >= 0");
  if (sim.fault_schedule.has_relative())
    status.note("LoopConfig: fault schedule has unresolved percent bounds");
  return status;
}

LoopResult run_supervised_triad(trace::VirtualArena& arena,
                                std::vector<arch::Addr> bases, std::size_t n,
                                const LoopConfig& cfg) {
  cfg.check().throw_if_failed();
  if (bases.size() != 4)
    throw std::invalid_argument("run_supervised_triad: need 4 bases (A,B,C,D)");

  const arch::AddressMap map(cfg.sim.interleave);
  const double ghz = cfg.sim.topology.clock_ghz;
  Supervisor sup(cfg.detector, cfg.sim.interleave, cfg.seed);

  LoopResult out;
  arch::Cycles global = 0;
  Sample last_sample;

  for (unsigned slice = 0; slice < cfg.slices; ++slice) {
    const obs::TraceSpan slice_span("loop.slice", "loop", slice, global);
    sim::SimConfig sc = cfg.sim;
    sc.fault_schedule = cfg.sim.fault_schedule.shifted(global);
    auto wl = kernels::make_triad_workload(bases, n, cfg.threads,
                                           sched::Schedule::static_block(), 1);
    sim::Chip chip(sc, arch::equidistant_placement(cfg.threads, sc.topology));
    const sim::SimResult res = chip.run(wl);

    const arch::Cycles slice_begin = global;
    global += res.total_cycles;
    out.total_cycles += res.total_cycles;
    out.bytes += res.mem_read_bytes + res.mem_write_bytes;
    append_timeline(out, res, slice_begin);
    last_sample = make_sample(res, slice_begin);
    if (!cfg.supervise) continue;

    // Layout deficit under the current belief: candidate planner layout over
    // the believed-healthy set vs what we are running now.
    const sim::FaultSpec& belief = sup.planned_against();
    const auto believed_set = belief.surviving_controllers(cfg.sim.interleave);
    const double cur_bw =
        triad_analytic_bw(bases, cfg.threads, cfg.sim, map, belief);
    const double cand_bw = triad_analytic_bw(
        plan_probe_bases(seg::plan_stream_offsets(4, map, believed_set)),
        cfg.threads, cfg.sim, map, belief);
    const double gain = cur_bw > 0.0 ? cand_bw / cur_bw : 1.0;

    const Decision dec = sup.observe(last_sample, gain);
    if (dec.action == Action::kScrub) {
      charge_scrub(out, global, 4.0 * static_cast<double>(n) * 8.0, cur_bw,
                   ghz, "supervised_triad");
      continue;
    }
    if (dec.action != Action::kReplan) continue;

    // Break-even gate: price the copy at the post-migration bandwidth and
    // require the projected savings over the remaining sweeps to clear it
    // by the safety margin.
    const seg::StreamPlan plan = seg::plan_stream_offsets(4, map, dec.plan_set);
    const double bw_now =
        triad_analytic_bw(bases, cfg.threads, cfg.sim, map, dec.diagnosis);
    const double bw_new = triad_analytic_bw(
        plan_probe_bases(plan), cfg.threads, cfg.sim, map, dec.diagnosis);
    const unsigned remaining = cfg.slices - slice - 1;
    bool migrate = false;
    double mig_seconds = 0.0;
    if (remaining > 0 && bw_now > 0.0 && bw_new > bw_now) {
      const double rem_bytes = static_cast<double>(remaining) *
                               static_cast<double>(kernels::triad_actual_bytes(n));
      const double saved = rem_bytes / bw_now - rem_bytes / bw_new;
      // B, C, D copied out and back in; A is overwritten every sweep.
      const double mig_bytes = 3.0 * static_cast<double>(n) * 8.0 * 2.0;
      mig_seconds = mig_bytes / bw_new;
      migrate = saved * cfg.migration_safety >= mig_seconds;
    }
    if (!migrate) {
      ++out.declined;
      obs::trace_instant("loop.decline", "loop", global, 0);
      sup.abort(global);
      util::log_info("supervised_triad: migration declined at=" +
                     std::to_string(global) + " (gain does not cover copy)" +
                     " bw_now=" + std::to_string(bw_now) +
                     " bw_new=" + std::to_string(bw_new) +
                     " remaining=" + std::to_string(remaining) +
                     " mig_s=" + std::to_string(mig_seconds));
      continue;
    }

    for (std::size_t k = 0; k < bases.size(); ++k) {
      const std::size_t off = plan.offsets[k];
      bases[k] = arena.allocate(n * sizeof(double) + off, plan.base_align) + off;
    }
    const arch::Cycles mig_cycles = arch::seconds_to_cycles(mig_seconds, ghz);
    obs::trace_instant("loop.migrate", "loop", global, mig_cycles);
    global += mig_cycles;
    out.total_cycles += mig_cycles;
    out.migration_cycles += mig_cycles;
    sup.commit(global);
    ++out.replans;
    out.replan_log.push_back({global, dec.plan_set, bases, mig_cycles});
    util::log_info("supervised_triad: migrated at=" + std::to_string(global) +
                   " cost=" + std::to_string(mig_cycles) + " cycles");
  }

  out.suppressed = sup.suppressed();
  out.final_diagnosis = cfg.supervise && !last_sample.mc_utilization.empty()
                            ? sup.diagnose(last_sample.mc_utilization)
                            : sim::FaultSpec{};
  out.final_mc_utilization = last_sample.mc_utilization;
  out.final_bases = bases;
  out.seconds = arch::cycles_to_seconds(out.total_cycles, ghz);
  out.bandwidth =
      out.seconds > 0.0 ? static_cast<double>(out.bytes) / out.seconds : 0.0;
  return out;
}

LoopResult run_supervised_jacobi(trace::VirtualArena& arena, std::size_t n,
                                 const seg::LayoutSpec& initial_spec,
                                 const LoopConfig& cfg) {
  cfg.check().throw_if_failed();
  if (n < 3)
    throw std::invalid_argument("run_supervised_jacobi: grid too small");

  const arch::AddressMap map(cfg.sim.interleave);
  const double ghz = cfg.sim.topology.clock_ghz;
  const sched::Schedule row_schedule = sched::Schedule::static_chunk(1);
  Supervisor sup(cfg.detector, cfg.sim.interleave, cfg.seed);

  kernels::VirtualJacobi grids = kernels::make_virtual_jacobi(arena, n, initial_spec);
  bool flipped = false;  // which toggle grid currently holds the state

  LoopResult out;
  arch::Cycles global = 0;
  Sample last_sample;

  for (unsigned slice = 0; slice < cfg.slices; ++slice) {
    const obs::TraceSpan slice_span("loop.slice", "loop", slice, global);
    const trace::VirtualSegArray& src = flipped ? grids.dest : grids.source;
    const trace::VirtualSegArray& dst = flipped ? grids.source : grids.dest;
    sim::SimConfig sc = cfg.sim;
    sc.fault_schedule = cfg.sim.fault_schedule.shifted(global);
    auto wl = trace::make_jacobi_workload(trace::JacobiGrids{&src, &dst, n},
                                          cfg.threads, row_schedule, 1);
    sim::Chip chip(sc, arch::equidistant_placement(cfg.threads, sc.topology));
    const sim::SimResult res = chip.run(wl);

    const arch::Cycles slice_begin = global;
    global += res.total_cycles;
    out.total_cycles += res.total_cycles;
    out.bytes += res.mem_read_bytes + res.mem_write_bytes;
    append_timeline(out, res, slice_begin);
    last_sample = make_sample(res, slice_begin);
    flipped = !flipped;
    if (!cfg.supervise) continue;

    const sim::FaultSpec& belief = sup.planned_against();
    const auto believed_set = belief.surviving_controllers(cfg.sim.interleave);
    const seg::RowPlan believed_plan =
        believed_set.size() == cfg.sim.interleave.num_controllers()
            ? seg::plan_row_layout(map)
            : seg::plan_row_layout(map, believed_set);
    // Candidate grids live in a scratch address range: analytic probes only.
    trace::VirtualArena probe(arch::Addr{1} << 44);
    const kernels::VirtualJacobi cand =
        kernels::make_virtual_jacobi(probe, n, believed_plan.spec());
    const double cur_bw = jacobi_analytic_bw(src, dst, n, cfg.threads, cfg.sim,
                                             map, belief);
    const double cand_bw = jacobi_analytic_bw(cand.source, cand.dest, n,
                                              cfg.threads, cfg.sim, map, belief);
    const double gain = cur_bw > 0.0 ? cand_bw / cur_bw : 1.0;

    const Decision dec = sup.observe(last_sample, gain);
    if (dec.action == Action::kScrub) {
      charge_scrub(out, global,
                   2.0 * static_cast<double>(n) * static_cast<double>(n) * 8.0,
                   cur_bw, ghz, "supervised_jacobi");
      continue;
    }
    if (dec.action != Action::kReplan) continue;

    const seg::RowPlan plan =
        dec.plan_set.size() == cfg.sim.interleave.num_controllers()
            ? seg::plan_row_layout(map)
            : seg::plan_row_layout(map, dec.plan_set);
    trace::VirtualArena gate_probe(arch::Addr{1} << 45);
    const kernels::VirtualJacobi gate_cand =
        kernels::make_virtual_jacobi(gate_probe, n, plan.spec());
    const double bw_now = jacobi_analytic_bw(src, dst, n, cfg.threads, cfg.sim,
                                             map, dec.diagnosis);
    const double bw_new =
        jacobi_analytic_bw(gate_cand.source, gate_cand.dest, n, cfg.threads,
                           cfg.sim, map, dec.diagnosis);
    const unsigned remaining = cfg.slices - slice - 1;
    bool migrate = false;
    double mig_seconds = 0.0;
    if (remaining > 0 && bw_now > 0.0 && bw_new > bw_now && slice + 1 > 0) {
      const double bytes_per_sweep =
          static_cast<double>(out.bytes) / static_cast<double>(slice + 1);
      const double rem_bytes = static_cast<double>(remaining) * bytes_per_sweep;
      const double saved = rem_bytes / bw_now - rem_bytes / bw_new;
      // Both toggle grids move: read out + write back.
      const double mig_bytes =
          2.0 * static_cast<double>(n) * static_cast<double>(n) * 8.0 * 2.0;
      mig_seconds = mig_bytes / bw_new;
      migrate = saved * cfg.migration_safety >= mig_seconds;
    }
    if (!migrate) {
      ++out.declined;
      obs::trace_instant("loop.decline", "loop", global, 0);
      sup.abort(global);
      util::log_info("supervised_jacobi: migration declined at=" +
                     std::to_string(global) + " (gain does not cover copy)");
      continue;
    }

    grids = kernels::make_virtual_jacobi(arena, n, plan.spec());
    flipped = false;  // fresh grids: state lives in `source` again
    const arch::Cycles mig_cycles = arch::seconds_to_cycles(mig_seconds, ghz);
    obs::trace_instant("loop.migrate", "loop", global, mig_cycles);
    global += mig_cycles;
    out.total_cycles += mig_cycles;
    out.migration_cycles += mig_cycles;
    sup.commit(global);
    ++out.replans;
    out.replan_log.push_back({global, dec.plan_set,
                              jacobi_front_bases(grids.source, n, cfg.threads),
                              mig_cycles});
    util::log_info("supervised_jacobi: migrated at=" + std::to_string(global) +
                   " cost=" + std::to_string(mig_cycles) + " cycles");
  }

  out.suppressed = sup.suppressed();
  out.final_diagnosis = cfg.supervise && !last_sample.mc_utilization.empty()
                            ? sup.diagnose(last_sample.mc_utilization)
                            : sim::FaultSpec{};
  out.final_mc_utilization = last_sample.mc_utilization;
  out.final_bases = jacobi_front_bases(flipped ? grids.dest : grids.source, n,
                                       cfg.threads);
  out.seconds = arch::cycles_to_seconds(out.total_cycles, ghz);
  out.bandwidth =
      out.seconds > 0.0 ? static_cast<double>(out.bytes) / out.seconds : 0.0;
  return out;
}

}  // namespace mcopt::runtime
