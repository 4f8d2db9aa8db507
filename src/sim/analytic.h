#pragma once
// Closed-form controller-balance bandwidth model.
//
// For streaming kernels the DES in chip.h reduces, in steady state, to a
// small queueing computation: all concurrently active line streams advance
// in lock-step, the address map assigns every step's lines to controllers,
// lines on the same controller serialize while controllers work in parallel,
// and the whole pattern repeats with the 512-byte interleave period. This
// model evaluates that computation directly — an offset sweep that takes the
// DES minutes takes microseconds here. Tests cross-validate the two (the
// model tracks DES bandwidth shapes; absolute agreement is bounded but not
// exact since the DES also models latency jitter, L1 effects and banking).
//
// There is one closed form, per socket. The NUMA node runs it once per
// socket with that socket's routing table and composes the sockets by
// makespan; the chip is the one-socket case S=1, where every line is local.
// Which entry returns what:
//   * estimate_bandwidth: the per-socket closed form with every line local,
//     bit for bit estimate_node_bandwidth(S=1).sockets[0].chip. Not the
//     one-socket node's .bandwidth: its makespan composition
//     (bytes / (bytes / bw * hz) * hz) can differ in the last bit.
//   * estimate_node_bandwidth: every socket's closed form plus the makespan.
//   * estimate_bandwidth_scheduled: the chip's closed form once per epoch of
//     a fault schedule, weighted by epoch length.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/address_map.h"
#include "arch/calibration.h"
#include "arch/numa.h"
#include "sim/fault_schedule.h"
#include "sim/faults.h"

namespace mcopt::sim {

/// One concurrently advancing line stream (e.g. one array operand of one
/// thread's current chunk).
struct AnalyticStream {
  arch::Addr base = 0;
  bool write = false;
};

/// Expands logical store streams into their physical traffic: a write-
/// allocate cache turns every stored line into an RFO read plus an eventual
/// write-back, both on the store stream's addresses.
[[nodiscard]] std::vector<AnalyticStream> expand_rfo(
    std::span<const AnalyticStream> logical);

struct AnalyticEstimate {
  /// Bytes/s permitted by controller service under this stream placement.
  double service_bandwidth = 0.0;
  /// Bytes/s permitted by (threads x 1 outstanding read miss) concurrency.
  double latency_bandwidth = 0.0;
  /// min(service, latency): the model's prediction of actual traffic.
  double bandwidth = 0.0;
  /// Controller balance in (0,1]; 1/num_controllers is full aliasing.
  double balance = 0.0;
  /// Predicted busy fraction of each controller relative to the service
  /// critical path (the same convention as SimResult::mc_utilization): an
  /// offline controller reads 0, the bottleneck controller reads ~1, and a
  /// derated controller saturates above its healthy peers. This is what the
  /// executor's workers feed the supervisor as measurement stand-ins.
  std::vector<double> mc_utilization;
};

/// Estimates sustainable memory traffic for `streams` advancing in
/// lock-step, with `num_threads` strands providing read concurrency.
/// `streams` should be pre-expanded with expand_rfo().
///
/// `faults` mirrors the chip model's controller faults: lines owned by an
/// offline controller are charged to its remap survivor, and a derated
/// controller's service cost is scaled by 1/factor. (Bank and straggler
/// faults are below this model's resolution and are ignored.) The balance
/// ideal is taken over the surviving controllers only. Throws
/// std::invalid_argument on no streams, no threads or no surviving
/// controller.
[[nodiscard]] AnalyticEstimate estimate_bandwidth(
    std::span<const AnalyticStream> streams, unsigned num_threads,
    const arch::Calibration& cal, const arch::AddressMap& map,
    double clock_ghz, const FaultSpec& faults = {});

/// Epoch-resolved composition of the analytic model over a transient-fault
/// schedule: the per-FaultSpec model is evaluated once per epoch (epoch
/// boundaries = fault transitions over [0, horizon)) and composed with
/// epoch-length weights — whole-run bytes are sum(bandwidth_e * length_e),
/// so `whole.bandwidth` is the time-weighted mean the DES should approach.
/// Every field of the estimate is weighted alike.
struct ScheduledEstimate {
  struct EpochEstimate {
    arch::Cycles begin = 0;
    arch::Cycles end = 0;
    std::string faults;  ///< merged active spec, FaultSpec::describe()
    AnalyticEstimate estimate;
  };
  std::vector<EpochEstimate> epochs;
  AnalyticEstimate whole;  ///< epoch-length-weighted composition
};

/// `schedule` must be resolved (no percent bounds); `horizon` is the run
/// length in cycles the weights are taken over. `baseline` faults apply to
/// every epoch (FaultSpec::merged semantics, mirroring the chip).
[[nodiscard]] ScheduledEstimate estimate_bandwidth_scheduled(
    std::span<const AnalyticStream> streams, unsigned num_threads,
    const arch::Calibration& cal, const arch::AddressMap& map,
    double clock_ghz, const FaultSpec& baseline, const FaultSchedule& schedule,
    arch::Cycles horizon);

// ---------------------------------------------------------------------------
// Multi-socket (NUMA) analytic model — the closed form of sim::Node exactly
// as estimate_bandwidth is the closed form of sim::Chip, and the same
// per-socket routine. Per compute socket, each step's lines split into
// locally served ones (controller costing as above, socket derate applied)
// and remotely served ones (serialized on the per-peer link port at the
// surviving path's effective per-line cost); the step advances at the
// slowest of the two. Reads served remotely also pay the path latency in the
// concurrency bound. The node's bandwidth composes per-socket times by
// makespan: total bytes over the slowest socket's time.

/// Per-socket slice of a node estimate.
struct NodeSocketEstimate {
  /// The socket's own service/latency/bandwidth breakdown (local view:
  /// mc_utilization covers its controllers; remote lines are excluded from
  /// controller costs and live in link_utilization instead).
  AnalyticEstimate chip;
  /// Predicted busy fraction of the link port toward each peer socket,
  /// relative to the socket's service critical path (entry self = 0).
  std::vector<double> link_utilization;
  /// Fraction of this socket's traffic served by a remote socket.
  double remote_fraction = 0.0;
  /// Bytes per interleave period this socket moves (0 = idle socket).
  double bytes_per_period = 0.0;
};

struct NodeEstimate {
  /// Total bytes/s of the node: all sockets' bytes over the slowest
  /// socket's per-period time (the DES makespan composition).
  double bandwidth = 0.0;
  std::vector<NodeSocketEstimate> sockets;
  /// Fraction of all traffic served remotely.
  double remote_fraction = 0.0;
};

/// Estimates node bandwidth for per-socket stream sets advancing in
/// lock-step. `socket_streams[s]` are socket s's streams (pre-expanded with
/// expand_rfo; empty = idle socket) and `socket_threads[s]` its strand
/// count. `faults` may carry sock/link classes; routing mirrors
/// resolve_numa_routes exactly, so the estimate tracks what sim::Node
/// actually does under the same spec.
[[nodiscard]] NodeEstimate estimate_node_bandwidth(
    std::span<const std::vector<AnalyticStream>> socket_streams,
    std::span<const unsigned> socket_threads, const arch::Calibration& cal,
    const arch::AddressMap& map, const arch::NodeTopology& node,
    double clock_ghz, const FaultSpec& faults = {});

}  // namespace mcopt::sim
