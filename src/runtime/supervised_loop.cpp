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

/// Triad A = B + C*D over four arrays at `bases` (order A,B,C,D): the
/// kernel-specific half of run_slices().
struct TriadKernel {
  trace::VirtualArena& arena;
  std::vector<arch::Addr> bases;
  std::size_t n;
  const LoopConfig& cfg;
  arch::AddressMap map;

  [[nodiscard]] sim::Workload workload() const {
    return kernels::make_triad_workload(bases, n, cfg.threads,
                                        sched::Schedule::static_block(), 1);
  }
  /// Analytic triad bandwidth for the given array bases under `faults`.
  [[nodiscard]] double bandwidth_at(const std::vector<arch::Addr>& at,
                                    const sim::FaultSpec& faults) const {
    const std::vector<sim::AnalyticStream> logical = {
        {at[0], true}, {at[1], false}, {at[2], false}, {at[3], false}};
    const auto physical = sim::expand_rfo(logical);
    return sim::estimate_bandwidth(physical, cfg.threads, cfg.sim.calibration,
                                   map, cfg.sim.topology.clock_ghz, faults)
        .bandwidth;
  }
  [[nodiscard]] double bandwidth(const sim::FaultSpec& faults) const {
    return bandwidth_at(bases, faults);
  }
  [[nodiscard]] seg::StreamPlan plan(const std::vector<unsigned>& set) const {
    return seg::plan_stream_offsets(4, map, set);
  }
  /// Hypothetical bases under a stream plan (analytic probes only; the probe
  /// base is period-aligned so only the planned offsets matter).
  [[nodiscard]] double bandwidth(const seg::StreamPlan& p,
                                 const sim::FaultSpec& faults) const {
    std::vector<arch::Addr> at;
    at.reserve(p.offsets.size());
    for (const std::size_t off : p.offsets)
      at.push_back((arch::Addr{1} << 40) + off);
    return bandwidth_at(at, faults);
  }
  [[nodiscard]] double live_bytes() const {
    return 4.0 * static_cast<double>(n) * 8.0;
  }
  /// B, C, D copied out and back in; A is overwritten every sweep.
  [[nodiscard]] double copy_bytes() const {
    return 3.0 * static_cast<double>(n) * 8.0 * 2.0;
  }
  [[nodiscard]] double slice_bytes(const LoopResult& /*out*/,
                                   unsigned /*slice*/) const {
    return static_cast<double>(kernels::triad_actual_bytes(n));
  }
  std::vector<arch::Addr> relayout(const seg::StreamPlan& p) {
    for (std::size_t k = 0; k < bases.size(); ++k) {
      const std::size_t off = p.offsets[k];
      bases[k] = arena.allocate(n * sizeof(double) + off, p.base_align) + off;
    }
    return bases;
  }
  [[nodiscard]] std::vector<arch::Addr> final_bases() const { return bases; }
};

/// Jacobi relaxation on two toggle grids under the "static,1" schedule of
/// the paper's optimal configuration: the kernel-specific half of
/// run_slices().
struct JacobiKernel {
  trace::VirtualArena& arena;
  std::size_t n;
  const LoopConfig& cfg;
  arch::AddressMap map;
  kernels::VirtualJacobi grids;
  bool flipped = false;  // which toggle grid holds the state
  /// The grids the last sweep read and wrote.
  const trace::VirtualSegArray* src = nullptr;
  const trace::VirtualSegArray* dst = nullptr;

  sim::Workload workload() {
    src = flipped ? &grids.dest : &grids.source;
    dst = flipped ? &grids.source : &grids.dest;
    flipped = !flipped;
    return trace::make_jacobi_workload(trace::JacobiGrids{src, dst, n},
                                       cfg.threads,
                                       sched::Schedule::static_chunk(1), 1);
  }
  /// First interior source-row bases, one per concurrently running thread
  /// (static,1: thread t's first row is 1 + t).
  [[nodiscard]] std::vector<arch::Addr> front_bases(
      const trace::VirtualSegArray& from) const {
    std::vector<arch::Addr> bases;
    const std::size_t rows = std::min<std::size_t>(cfg.threads, n - 2);
    for (std::size_t t = 0; t < rows; ++t)
      bases.push_back(from.segment_base(1 + t));
    return bases;
  }
  /// Analytic Jacobi bandwidth proxy: each concurrent thread contributes its
  /// first source row as a read stream and the matching dest row as a write
  /// stream — enough to expose row-shift aliasing to the lockstep model.
  [[nodiscard]] double bandwidth_of(const trace::VirtualSegArray& from,
                                    const trace::VirtualSegArray& to,
                                    const sim::FaultSpec& faults) const {
    std::vector<sim::AnalyticStream> logical;
    const std::size_t rows = std::min<std::size_t>(cfg.threads, n - 2);
    for (std::size_t t = 0; t < rows; ++t) {
      logical.push_back({from.segment_base(1 + t), false});
      logical.push_back({to.segment_base(1 + t), true});
    }
    const auto physical = sim::expand_rfo(logical);
    return sim::estimate_bandwidth(physical, static_cast<unsigned>(rows),
                                   cfg.sim.calibration, map,
                                   cfg.sim.topology.clock_ghz, faults)
        .bandwidth;
  }
  [[nodiscard]] double bandwidth(const sim::FaultSpec& faults) const {
    return bandwidth_of(*src, *dst, faults);
  }
  [[nodiscard]] seg::RowPlan plan(const std::vector<unsigned>& set) const {
    return set.size() == cfg.sim.interleave.num_controllers()
               ? seg::plan_row_layout(map)
               : seg::plan_row_layout(map, set);
  }
  [[nodiscard]] double bandwidth(const seg::RowPlan& p,
                                 const sim::FaultSpec& faults) const {
    // Candidate grids live in a scratch address range: analytic probes only.
    trace::VirtualArena probe(arch::Addr{1} << 44);
    const kernels::VirtualJacobi cand =
        kernels::make_virtual_jacobi(probe, n, p.spec());
    return bandwidth_of(cand.source, cand.dest, faults);
  }
  [[nodiscard]] double live_bytes() const {
    return 2.0 * static_cast<double>(n) * static_cast<double>(n) * 8.0;
  }
  /// Both toggle grids move: read out + write back.
  [[nodiscard]] double copy_bytes() const {
    return 2.0 * static_cast<double>(n) * static_cast<double>(n) * 8.0 * 2.0;
  }
  /// The measured traffic per sweep so far.
  [[nodiscard]] double slice_bytes(const LoopResult& out,
                                   unsigned slice) const {
    return static_cast<double>(out.bytes) / static_cast<double>(slice + 1);
  }
  std::vector<arch::Addr> relayout(const seg::RowPlan& p) {
    grids = kernels::make_virtual_jacobi(arena, n, p.spec());
    flipped = false;  // fresh grids: state lives in `source` again
    return front_bases(grids.source);
  }
  [[nodiscard]] std::vector<arch::Addr> final_bases() const {
    return front_bases(flipped ? grids.dest : grids.source);
  }
};

/// The supervised slice loop of every chip kernel: run a sweep on the DES,
/// account it, stitch its timeline, sample it, let the supervisor observe
/// it, then scrub, or gate a proposed replan and decline it or migrate and
/// commit. `Kernel` supplies everything that differs between kernels.
template <class Kernel>
LoopResult run_slices(Kernel& k, const LoopConfig& cfg, const char* who) {
  const double ghz = cfg.sim.topology.clock_ghz;
  Supervisor sup(cfg.detector, cfg.sim.interleave, cfg.seed);

  LoopResult out;
  arch::Cycles global = 0;
  Sample last_sample;

  for (unsigned slice = 0; slice < cfg.slices; ++slice) {
    const obs::TraceSpan slice_span("loop.slice", "loop", slice, global);
    sim::SimConfig sc = cfg.sim;
    sc.fault_schedule = cfg.sim.fault_schedule.shifted(global);
    auto wl = k.workload();
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
    const double cur_bw = k.bandwidth(belief);
    const double cand_bw = k.bandwidth(
        k.plan(belief.surviving_controllers(cfg.sim.interleave)), belief);
    const double gain = cur_bw > 0.0 ? cand_bw / cur_bw : 1.0;

    const Decision dec = sup.observe(last_sample, gain);
    if (dec.action == Action::kScrub) {
      charge_scrub(out, global, k.live_bytes(), cur_bw, ghz, who);
      continue;
    }
    if (dec.action != Action::kReplan) continue;

    // Break-even gate: price the copy at the post-migration bandwidth.
    const auto plan = k.plan(dec.plan_set);
    const double bw_now = k.bandwidth(dec.diagnosis);
    const double bw_new = k.bandwidth(plan, dec.diagnosis);
    const unsigned remaining = cfg.slices - slice - 1;
    const double mig_seconds = k.copy_bytes() / bw_new;
    if (!migration_pays(remaining, k.slice_bytes(out, slice), bw_now, bw_new,
                        mig_seconds, cfg.migration_safety)) {
      ++out.declined;
      obs::trace_instant("loop.decline", "loop", global, 0);
      sup.abort(global);
      util::log_info(std::string(who) + ": migration declined at=" +
                     std::to_string(global) + " (gain does not cover copy)" +
                     " bw_now=" + std::to_string(bw_now) +
                     " bw_new=" + std::to_string(bw_new) +
                     " remaining=" + std::to_string(remaining) +
                     " mig_s=" + std::to_string(mig_seconds));
      continue;
    }

    std::vector<arch::Addr> bases = k.relayout(plan);
    const arch::Cycles mig_cycles = arch::seconds_to_cycles(mig_seconds, ghz);
    obs::trace_instant("loop.migrate", "loop", global, mig_cycles);
    global += mig_cycles;
    out.total_cycles += mig_cycles;
    out.migration_cycles += mig_cycles;
    sup.commit(global);
    ++out.replans;
    out.replan_log.push_back({global, dec.plan_set, std::move(bases),
                              mig_cycles});
    util::log_info(std::string(who) + ": migrated at=" +
                   std::to_string(global) + " cost=" +
                   std::to_string(mig_cycles) + " cycles");
  }

  out.final_diagnosis = cfg.supervise && !last_sample.mc_utilization.empty()
                            ? sup.diagnose(last_sample.mc_utilization)
                            : sim::FaultSpec{};
  out.final_mc_utilization = last_sample.mc_utilization;
  out.final_bases = k.final_bases();
  out.finish(sup.suppressed(), ghz);
  return out;
}

}  // namespace

bool migration_pays(unsigned remaining, double slice_bytes, double bw_now,
                    double bw_new, double migration_seconds,
                    double safety) noexcept {
  if (remaining == 0 || !(bw_now > 0.0) || !(bw_new > bw_now)) return false;
  const double rem_bytes = static_cast<double>(remaining) * slice_bytes;
  const double saved = rem_bytes / bw_now - rem_bytes / bw_new;
  return saved * safety >= migration_seconds;
}

void LoopTotals::finish(unsigned suppressed_proposals, double clock_ghz) {
  suppressed = suppressed_proposals;
  seconds = arch::cycles_to_seconds(total_cycles, clock_ghz);
  bandwidth = seconds > 0.0 ? static_cast<double>(bytes) / seconds : 0.0;
}

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
  TriadKernel k{arena, std::move(bases), n, cfg,
                arch::AddressMap(cfg.sim.interleave)};
  return run_slices(k, cfg, "supervised_triad");
}

LoopResult run_supervised_jacobi(trace::VirtualArena& arena, std::size_t n,
                                 const seg::LayoutSpec& initial_spec,
                                 const LoopConfig& cfg) {
  cfg.check().throw_if_failed();
  if (n < 3)
    throw std::invalid_argument("run_supervised_jacobi: grid too small");
  JacobiKernel k{arena, n, cfg, arch::AddressMap(cfg.sim.interleave),
                 kernels::make_virtual_jacobi(arena, n, initial_spec)};
  return run_slices(k, cfg, "supervised_jacobi");
}

}  // namespace mcopt::runtime
