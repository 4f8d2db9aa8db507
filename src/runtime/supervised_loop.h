#pragma once
// Supervised kernel loops: iterate -> sample -> (maybe) migrate -> continue.
//
// A supervised loop splits a multi-sweep kernel run into slices of one sweep
// each, runs every slice on the DES with the remaining portion of the
// transient-fault schedule (FaultSchedule::shifted by the cycles already
// consumed), and feeds the slice's per-controller utilization to a
// runtime::Supervisor. When the supervisor proposes a replan, the loop
// computes the candidate layout with the paper's analytic planner
// (seg::plan_stream_offsets / plan_row_layout over the diagnosed healthy
// set), prices the migration (copying the live arrays at the post-migration
// bandwidth), and migrates only when the projected savings over the
// remaining sweeps clear the cost by a safety margin. Migration cost is
// charged to the loop's cycle count, so supervised results are directly
// comparable to unsupervised ones.
//
// When the slice reports corrupted reads (the fault schedule carries a
// mc<i>:flip=<r> entry), the supervisor orders a scrub instead: the loop
// charges one full checksum-verify pass over the live arrays at the current
// analytic bandwidth — the simulated counterpart of SegmentGuard::verify +
// rebuild on the native kernels — and counts it in LoopResult::scrubs.
//
// With `supervise = false` the same slicing runs with the supervisor
// bypassed — the fair baseline for "does self-healing pay for itself".
//
// Note one asymmetry with the node-level loop (numa_loop.h): this chip
// supervisor recovers from transient faults *passively*. A derated or
// offline controller keeps receiving its interleave share after the replan
// (lines remap but the interleave still addresses it), so when the fault
// clears, fresh per-controller telemetry shows it and the supervisor can
// replan back without any probing machinery. A quarantined *socket* gets
// zero traffic once its jobs migrate away — no telemetry, no passive
// rediscovery — which is why active probing, staged re-admission, and the
// circuit-breaker hysteresis (DESIGN.md §4k) live only at node scope.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/supervisor.h"
#include "sched/schedule.h"
#include "seg/layout.h"
#include "sim/chip.h"
#include "trace/virtual_arena.h"
#include "util/expected.h"

namespace mcopt::runtime {

struct LoopConfig {
  /// Simulator configuration; `fault_schedule` must be resolved (no percent
  /// bounds) and is interpreted on the loop's global cycle timeline.
  sim::SimConfig sim{};
  unsigned threads = 64;
  /// Number of kernel sweeps == number of slices (one sweep per slice).
  unsigned slices = 16;
  /// false = unsupervised baseline: identical slicing, never migrates.
  bool supervise = true;
  DetectorConfig detector{};
  /// Migrate only when projected_savings * migration_safety >= migration
  /// cost. Lower is more conservative; 0 disables migration entirely.
  double migration_safety = 0.5;
  /// Seeds the supervisor's backoff jitter.
  std::uint64_t seed = 0;

  [[nodiscard]] util::Status check() const;
};

/// One committed migration.
struct ReplanRecord {
  arch::Cycles at = 0;  ///< global cycle the migration completed
  std::vector<unsigned> plan_set;
  /// Stream bases after the migration (triad: A,B,C,D; Jacobi: the first
  /// interior source-row bases, one per concurrent thread).
  std::vector<arch::Addr> bases;
  arch::Cycles migration_cycles = 0;
};

/// What every supervised loop reports, chip or node.
struct LoopTotals {
  arch::Cycles total_cycles = 0;      ///< kernel + migration cycles
  arch::Cycles migration_cycles = 0;  ///< migration share of total_cycles
  std::uint64_t bytes = 0;            ///< kernel memory traffic (both dirs)
  double seconds = 0.0;
  double bandwidth = 0.0;  ///< bytes / seconds, migration time included
  unsigned replans = 0;    ///< committed migrations
  unsigned suppressed = 0; ///< proposals swallowed by backoff
  unsigned declined = 0;   ///< proposals failing the break-even gate
  /// Fault state the supervisor believes at the end of the run (healthy for
  /// unsupervised loops).
  sim::FaultSpec final_diagnosis;

  /// Closes the run: records the supervisor's suppressed proposals and
  /// derives seconds and bandwidth from the cycles at `clock_ghz`.
  void finish(unsigned suppressed_proposals, double clock_ghz);
};

/// The break-even rule of every supervised loop: migrate when the time the
/// candidate layout saves over `remaining` slices of `slice_bytes` each,
/// scaled by `safety`, covers `migration_seconds` of copying. `bw_now` and
/// `bw_new` are the analytic bandwidths of the current and the candidate
/// layout; a candidate that is not faster never migrates.
[[nodiscard]] bool migration_pays(unsigned remaining, double slice_bytes,
                                  double bw_now, double bw_new,
                                  double migration_seconds,
                                  double safety) noexcept;

struct LoopResult : LoopTotals {
  unsigned scrubs = 0;     ///< integrity scrubs ordered by the supervisor
  arch::Cycles scrub_cycles = 0;  ///< verify-pass share of total_cycles
  std::vector<double> final_mc_utilization;
  std::vector<ReplanRecord> replan_log;
  /// Final stream bases (triad) / first interior row bases (Jacobi).
  std::vector<arch::Addr> final_bases;
  /// Controller-utilization timeline stitched across slices onto the global
  /// loop timeline (rows only when LoopConfig::sim.mc_sample_cadence != 0).
  /// Migration and scrub charges appear as gaps between slice rows.
  obs::McTimeline mc_timeline;
  bool mc_timeline_truncated = false;
};

/// Supervised Schönauer triad A = B + C*D over `cfg.slices` sweeps starting
/// from the given array bases (order A,B,C,D). Migrations re-allocate the
/// arrays in `arena` at planner offsets over the diagnosed healthy set and
/// charge the copy (B,C,D read+write at the post-migration bandwidth; A is
/// overwritten every sweep and needs no copy).
[[nodiscard]] LoopResult run_supervised_triad(trace::VirtualArena& arena,
                                              std::vector<arch::Addr> bases,
                                              std::size_t n,
                                              const LoopConfig& cfg);

/// Supervised Jacobi relaxation on an n x n grid (fig6 path), starting from
/// `initial_spec` row layout. Migrations rebuild both toggle grids under
/// seg::plan_row_layout over the diagnosed healthy set and charge the copy
/// of both grids. The "static,1" schedule of the paper's optimal Jacobi
/// configuration is applied per slice.
[[nodiscard]] LoopResult run_supervised_jacobi(trace::VirtualArena& arena,
                                               std::size_t n,
                                               const seg::LayoutSpec& initial_spec,
                                               const LoopConfig& cfg);

}  // namespace mcopt::runtime
