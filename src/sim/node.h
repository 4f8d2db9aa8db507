#pragma once
// Multi-socket node simulator: one Chip DES per socket composed under a
// shared NUMA topology and fault timeline.
//
// Each socket runs its own threads against its own caches and controllers;
// accesses homed on another socket are served over the modeled interconnect
// (sim/numa.h routes, Chip::NumaView). The sockets' event loops are
// independent — a remote fill pays the serving path's per-line link cost and
// latency, which is where the peer's memory occupancy is folded in — so the
// node's makespan is the slowest socket's makespan. Everything stays integer
// cycles and exactly reproducible.
//
// Because the sockets share nothing while they run, run() simulates them
// concurrently: one Chip per busy socket, on the calling thread plus the
// helpers of one process-wide fork-join pool. Sockets are claimed from a
// shared counter and each writes only its own result slot; the results are
// then folded in socket order, so a NodeResult never depends on which thread
// ran which socket. Every busy socket's run finishes even when another
// fails, and the failure reported is the lowest failing socket's
// ("socket <s>: <chip diagnostic>", or its exception, rethrown).
//
// The pool is created on the first run with two or more busy sockets
// (processes that never run such a Node start no thread) and lives until
// the process exits; its helpers are never joined. It has min(CPUs in the
// process affinity mask, kMaxSockets) - 1 helpers. A caller that finds the
// pool busy (another thread's run holds it) runs its sockets one after
// another on its own thread, and so does a forked child, which inherits no
// helpers; either way it is the same per-socket function.

#include <vector>

#include "arch/numa.h"
#include "sim/chip.h"
#include "util/expected.h"

namespace mcopt::sim {

/// Configuration of an N-socket run: the node topology plus one per-socket
/// chip configuration template (faults, schedule, lockstep, sampling knobs
/// are shared; the per-socket NumaView is filled in by Node).
struct NodeConfig {
  arch::NodeTopology node{};
  /// Template chip config; `sim.numa` is overwritten per socket, and
  /// `sim.topology`/`sim.interleave` must describe one socket's chip.
  SimConfig sim{};

  /// Non-throwing validation; reports every violation at once.
  [[nodiscard]] util::Status check() const;
  /// Throwing wrapper around check().
  void validate() const;
};

/// Aggregated results of one node run.
struct NodeResult {
  /// Per-socket chip results (default-constructed for idle sockets).
  std::vector<SimResult> sockets;
  arch::Cycles total_cycles = 0;  ///< slowest socket (drain included)
  double clock_ghz = 0.0;
  std::uint64_t mem_read_bytes = 0;
  std::uint64_t mem_write_bytes = 0;
  /// Remotely served subset of the totals above.
  std::uint64_t remote_read_bytes = 0;
  std::uint64_t remote_write_bytes = 0;
  /// Mean controller busy fraction of each socket over the node's makespan
  /// (a dead or idle socket reads 0).
  std::vector<double> socket_utilization;
  bool degraded = false;

  [[nodiscard]] double seconds() const noexcept {
    return clock_ghz <= 0.0 ? 0.0
                            : arch::cycles_to_seconds(total_cycles, clock_ghz);
  }
  /// Actual memory traffic (both directions, all sockets) per second.
  [[nodiscard]] double memory_bandwidth() const noexcept {
    return seconds() == 0.0
               ? 0.0
               : static_cast<double>(mem_read_bytes + mem_write_bytes) /
                     seconds();
  }
  /// Fraction of all traffic served by a remote socket.
  [[nodiscard]] double remote_fraction() const noexcept {
    const double total =
        static_cast<double>(mem_read_bytes + mem_write_bytes);
    return total == 0.0 ? 0.0
                        : static_cast<double>(remote_read_bytes +
                                              remote_write_bytes) /
                              total;
  }
};

/// The node simulator. Construct once per config; run() takes one Workload
/// per socket (empty = idle socket) and may be called repeatedly.
class Node {
 public:
  explicit Node(NodeConfig config);

  [[nodiscard]] const NodeConfig& config() const noexcept { return cfg_; }

  /// Runs one workload per socket to completion, busy sockets concurrently
  /// (see the header comment). workloads.size() must equal the socket count;
  /// each socket's threads are placed equidistantly on its own chip. Throws
  /// std::runtime_error on a watchdog abort. Several threads may run nodes
  /// at once, each on its own workloads.
  NodeResult run(std::vector<Workload>& workloads);

  /// Like run(), but reports watchdog/guardrail aborts as a diagnostic.
  util::Expected<NodeResult> try_run(std::vector<Workload>& workloads);

 private:
  NodeConfig cfg_;
};

}  // namespace mcopt::sim
