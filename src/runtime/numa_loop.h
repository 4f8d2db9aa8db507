#pragma once
// Supervised multi-socket job loop: run -> sample -> (maybe) migrate jobs
// across sockets -> continue.
//
// The node loop runs one triad job per socket, each job's four arrays homed
// in its socket's own memory domain (the planner's local placement). Every
// slice runs all jobs on the sim::Node DES with the remaining portion of the
// fault schedule, then feeds per-socket utilization and per-link occupancy/
// per-line-cost observations to a runtime::NodeSupervisor. On a kReplan
// verdict the loop builds a failover placement — jobs whose home domain died
// move, compute and data together, onto the least-loaded surviving sockets —
// and commits it only when the analytic projection clears the migration cost
// by the break-even margin (LoopConfig::migration_safety semantics).
//
// Migration pricing follows the physical story: each moved job's live
// arrays (B, C, D; A is overwritten every sweep) are read once from wherever
// their old home is served *now* — at link bandwidth when that is across the
// interconnect — and first-touch written once into the new home domain at
// the post-migration node bandwidth. A dead old home prices reads at the
// remap survivor's route, exactly what the DES would charge.
//
// Fail-back (DESIGN.md §4k): jobs are *sharded* — each NodeJob is one
// element range [begin, begin+count) of a logical job — so an orphaned job
// can split across several survivors instead of piling whole onto one, and
// rebalance back onto its natural socket once the supervisor's prober
// readmits it. On a kProbe verdict the loop runs the supervisor's canary
// (a tiny triad homed on the quarantined domain) on the DES and feeds the
// measured per-socket utilization back through report_probe(); probe cycles
// are charged to the global timeline like scrubs, with no goodput bytes.
// Every committed shard move re-verifies the moved payload range against
// its CRC32C sidecar (the PR-3 integrity discipline at shard granularity).
//
// With `supervise = false` the same slicing runs with the supervisor
// bypassed — the surviving-socket convergence baseline for the NUMA
// regression tests.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/timeline.h"
#include "runtime/supervised_loop.h"
#include "runtime/supervisor.h"
#include "sim/node.h"
#include "util/expected.h"

namespace mcopt::runtime {

struct NodeLoopConfig {
  /// Node topology plus the per-socket chip template. The fault schedule
  /// must be resolved and is interpreted on the loop's global timeline.
  sim::NodeConfig node{};
  /// Strands per job (every socket that hosts j jobs runs j*threads strands;
  /// the worst failover case num_sockets*threads must fit one chip).
  unsigned threads = 16;
  /// Number of sweeps == slices (one sweep of every live job per slice).
  unsigned slices = 12;
  /// false = unsupervised baseline: identical slicing, never migrates.
  bool supervise = true;
  NodeDetectorConfig detector{};
  /// Migrate only when projected_savings * migration_safety >= cost.
  double migration_safety = 0.5;
  /// Seeds the node supervisor's backoff jitter.
  std::uint64_t seed = 0;

  [[nodiscard]] util::Status check() const;
};

/// One triad job shard: the element range of a logical job it covers, where
/// it computes and where its arrays live. A healthy placement is one
/// whole-range shard per logical job; failover may split a logical job into
/// several shards across survivors (seg::split_shard_counts).
struct NodeJob {
  /// Logical job this shard belongs to (== its natural socket).
  unsigned job_id = 0;
  /// Element range [begin, begin + count) of the logical job's arrays.
  std::size_t begin = 0;
  std::size_t count = 0;
  unsigned compute_socket = 0;
  unsigned home_socket = 0;
  /// Array bases, order A,B,C,D.
  std::vector<arch::Addr> bases;
};

/// One committed cross-socket migration.
struct NodeReplanRecord {
  arch::Cycles at = 0;  ///< global cycle the migration completed
  std::vector<unsigned> healthy_sockets;
  std::vector<NodeJob> jobs;  ///< post-migration placement (all shards)
  arch::Cycles migration_cycles = 0;
  /// Payload bytes copied by this migration (B, C, D of every moved range).
  std::uint64_t moved_bytes = 0;
  /// Moved ranges whose post-copy CRC32C matched the sidecar. A mismatch
  /// aborts the run (std::runtime_error) — silent shard corruption must not
  /// be committed — so on a completed run this equals the moved-range count.
  unsigned crc_ranges_verified = 0;
};

/// Per-slice accounting on the loop's global timeline (migration gaps fall
/// between slices). Lets callers measure phase bandwidths — e.g. the
/// converged tail after the last committed migration.
struct NodeSliceRecord {
  arch::Cycles begin = 0;
  arch::Cycles end = 0;
  std::uint64_t bytes = 0;
  std::uint64_t remote_bytes = 0;
};

struct NodeLoopResult : LoopTotals {
  std::uint64_t remote_bytes = 0;  ///< cross-socket share of `bytes`
  double remote_fraction = 0.0;
  /// Fail-back channel: canaries launched / canaries that found the domain
  /// still dead / probe-confirmed recoveries / ramps completed to full
  /// weight (NodeSupervisor counters at loop end).
  unsigned probes = 0;
  unsigned probe_failures = 0;
  unsigned recoveries = 0;
  unsigned readmissions = 0;
  /// Cycles spent running canary probes (charged to total_cycles, no bytes).
  arch::Cycles probe_cycles = 0;
  /// Slices whose end saw the DES fault schedule clear of a socket the
  /// supervisor still believed dead (the belief/ground-truth divergence the
  /// prober exists to close; reporting only, never fed to decisions).
  unsigned belief_stale_windows = 0;
  /// Moved shard ranges CRC-verified across all committed migrations.
  unsigned crc_ranges_verified = 0;
  std::vector<double> final_socket_utilization;
  std::vector<NodeReplanRecord> replan_log;
  std::vector<NodeSliceRecord> slice_log;
  std::vector<NodeJob> final_jobs;
  /// Per-socket controller timelines stitched onto the global loop timeline
  /// (rows only when node.sim.mc_sample_cadence != 0).
  std::vector<obs::McTimeline> socket_timelines;

  /// Bandwidth over the slices beginning at or after `from` — pass the last
  /// replan's stamp to measure the converged post-migration tail. Migration
  /// gaps are excluded (they are not slice time).
  [[nodiscard]] double tail_bandwidth(arch::Cycles from,
                                      double clock_ghz) const noexcept {
    std::uint64_t tail_bytes = 0;
    arch::Cycles tail_cycles = 0;
    for (const NodeSliceRecord& s : slice_log) {
      if (s.begin < from) continue;
      tail_bytes += s.bytes;
      tail_cycles += s.end - s.begin;
    }
    return tail_cycles == 0 ? 0.0
                            : static_cast<double>(tail_bytes) /
                                  arch::cycles_to_seconds(tail_cycles,
                                                          clock_ghz);
  }
};

/// Analytic node bandwidth (bytes/s) of a shard placement under `faults`,
/// priced the way the loop runs it: each shard's triad streams on its
/// compute socket with its proportional share (never zero) of `threads`
/// strands per `n`-element logical job.
[[nodiscard]] double placement_bandwidth(const std::vector<NodeJob>& jobs,
                                         unsigned threads, std::size_t n,
                                         const sim::NodeConfig& node,
                                         const sim::FaultSpec& faults);

/// Supervised node-wide triad: one n-element job per socket over
/// cfg.slices sweeps. Requires contiguous home domains large enough for the
/// worst failover packing (throws std::invalid_argument otherwise).
[[nodiscard]] NodeLoopResult run_supervised_node_triad(
    std::size_t n, const NodeLoopConfig& cfg);

}  // namespace mcopt::runtime
