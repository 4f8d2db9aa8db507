#pragma once
// Whole-chip timing simulator of the UltraSPARC T2 memory subsystem.
//
// Execution model (Sect. 1 of the paper):
//  * 8 in-order cores x 8 hardware strands; strands are grouped in two
//    thread groups of four per core, each group issuing at most one
//    instruction per cycle;
//  * each core has two load/store pipes and a single FPU (one MUL or ADD
//    per cycle) shared by all eight strands;
//  * a strand supports a single outstanding cache miss: an L1-missing load
//    blocks the strand until the fill returns ("put in an inactive state
//    until the resources become available");
//  * stores are write-through past the L1 into a coalescing 8-entry store
//    buffer per strand; a full buffer blocks the strand;
//  * the shared L2 is banked; bit 6 selects the bank within the controller
//    pair and bits 8:7 select the memory controller (arch::AddressMap);
//  * the core-to-L2 crossbar is non-blocking and not modeled.
//
// The simulation is a conservative discrete-event loop: threads carry local
// clocks, the globally earliest thread processes its next access, and shared
// resources (thread-group issue slots, LS pipes, FPU, L2 banks, controllers)
// are "earliest start" reservations. All arithmetic is integer cycles, so
// runs are exactly reproducible.
//
// Event loop: a winner tree (sim/winner_tree.h) with one leaf per thread
// yields the thread with the smallest (clock, thread id); equal clocks run
// the lower id first. The loop applies any fault epoch and timeline sample
// the clock has reached, checks the watchdog, and steps that thread by one
// access. A stepped thread re-arms its leaf at its new clock; a thread that
// parks at the lockstep gate or retires idles its leaf until a lockstep
// release re-arms it. A clock beyond the tree's packed key range fails the
// run ("clock exceeds scheduler range") instead of mis-ordering threads, and
// an access whose address does not fit the caches' 32-bit tags (2^43 with
// the T2 L1D modeled, 2^50 for the L2 alone) fails it with "address exceeds
// cache tag range" instead of aliasing another line.

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "arch/address_map.h"
#include "arch/calibration.h"
#include "arch/numa.h"
#include "arch/topology.h"
#include "obs/timeline.h"
#include "sim/cache.h"
#include "sim/fault_schedule.h"
#include "sim/faults.h"
#include "sim/memory_controller.h"
#include "sim/program.h"
#include "sim/winner_tree.h"
#include "util/expected.h"

namespace mcopt::sim {

/// Complete simulator configuration.
struct SimConfig {
  arch::ChipTopology topology{};
  arch::Calibration calibration{};
  arch::InterleaveSpec interleave{};
  /// Model the per-core L1D (off = every access goes to L2); ablation knob.
  bool model_l1 = true;
  /// T2-style L2 index hashing (enabled on real hardware; ablation knob).
  bool l2_index_hash = true;
  /// Model FPU serialization per core; off = flops are free.
  bool model_fpu = true;
  /// Model thread-group issue and LS pipe occupancy.
  bool model_issue = true;
  /// Model the coalescing store buffer; off = stores never block and their
  /// L2/memory traffic is still accounted at issue time.
  bool model_store_buffer = true;
  /// Model phase-locked worksharing progression: threads of an OpenMP-style
  /// loop may not run more than `lockstep_window` marked iterations ahead of
  /// the slowest running thread. On the real T2 this alignment is what makes
  /// congruent stream bases hit "exactly one memory controller at a time"
  /// (Sect. 2.1); without it the dips of Figs. 2/4 wash out (see
  /// bench/ablation_simulator).
  bool model_lockstep = true;
  /// Maximum iteration lead over the slowest running thread. The default is
  /// calibrated so the Fig. 2 dip and odd-multiple-of-32 levels match the
  /// paper (3.7 / ~7.4 GB/s reported for 64-thread STREAM triad).
  std::uint64_t lockstep_window = 12;
  /// Injected hardware faults (offline/derated controllers, slow banks,
  /// straggler strands). Default: healthy chip. These are the *baseline*:
  /// present from cycle 0 for the whole run.
  FaultSpec faults{};
  /// Transient faults: a timeline of arrive/clear events layered on top of
  /// the baseline. The chip applies/retires them during the event loop at
  /// their transition cycles (in-flight requests drain at the old
  /// parameters), and SimResult::epochs reports a per-epoch breakdown.
  /// Percent-relative bounds must be resolved() before the chip sees them.
  FaultSchedule fault_schedule{};
  /// Seed for the deterministic per-read Bernoulli draws behind mc<i>:flip
  /// faults. Same seed + same workload → bit-identical corruption pattern,
  /// so flip runs replay exactly like every other fault.
  std::uint64_t flip_seed = 0;
  /// Watchdog: abort try_run() with a diagnostic once simulated time passes
  /// this many cycles (0 = unlimited). Guards harnesses against malformed
  /// workloads that would otherwise run unboundedly.
  arch::Cycles cycle_budget = 0;
  /// Sample per-controller busy counters every this many cycles into
  /// SimResult::mc_timeline (0 = off). The cadence trades time resolution
  /// against result size: one row per interval per run, with a 2^20-row cap
  /// (mc_timeline_truncated). Sampling rides the existing event-loop epoch
  /// check, so the per-access cost is one compare when enabled.
  arch::Cycles mc_sample_cadence = 0;

  /// Multi-socket view: this chip simulates socket `socket` of `node`, and
  /// addresses homed on other sockets are served over the modeled
  /// interconnect (per-target link port: earliest-start reservation of the
  /// path's per-line cycles, plus the path's extra fill latency). Disabled =
  /// the historical single-chip model; socket/link fault classes are only
  /// valid when enabled. sim::Node composes one enabled Chip per socket.
  struct NumaView {
    bool enabled = false;
    unsigned socket = 0;
    arch::NodeTopology node{};
  };
  NumaView numa{};

  /// Non-throwing validation; reports every violation at once.
  [[nodiscard]] util::Status check() const;
  /// Throwing wrapper around check() (historical API).
  void validate() const;
};

/// Aggregated results of one simulation run.
struct SimResult {
  arch::Cycles total_cycles = 0;
  std::uint64_t accesses = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t flops = 0;
  CacheStats l1;  ///< aggregated over cores
  CacheStats l2;
  std::vector<McStats> mc;  ///< one entry per memory controller
  std::uint64_t mem_read_bytes = 0;   ///< includes RFO reads + remote fills
  std::uint64_t mem_write_bytes = 0;  ///< L2 write-backs, remote included

  /// Cross-socket traffic served over one interconnect link (NUMA runs).
  struct LinkStats {
    std::uint64_t fills = 0;       ///< remote lines filled from the peer
    std::uint64_t writebacks = 0;  ///< dirty remote lines written back
    arch::Cycles busy_cycles = 0;  ///< port occupancy (per-line transfer)
    arch::Cycles last_completion = 0;

    [[nodiscard]] std::uint64_t line_transfers() const noexcept {
      return fills + writebacks;
    }
  };
  /// Entry t: traffic this socket moved to/from serving socket t (entry
  /// `self` unused). Empty unless the run had an enabled NumaView.
  std::vector<LinkStats> links;
  /// Bytes of this chip's traffic served by a remote socket (subset of
  /// mem_read_bytes / mem_write_bytes).
  std::uint64_t remote_read_bytes = 0;
  std::uint64_t remote_write_bytes = 0;
  std::vector<arch::Cycles> thread_finish;  ///< per software thread
  double clock_ghz = 0.0;
  /// Busy fraction of each controller over the run (0 for an offline one).
  std::vector<double> mc_utilization;
  /// True when the run executed under an injected fault (SimConfig::faults
  /// or a non-empty SimConfig::fault_schedule).
  bool degraded = false;

  /// Memory reads (RFO included) whose payload the serving controller
  /// corrupted under an mc<i>:flip fault. The sim carries no real data, so
  /// this is the ground truth a native integrity layer must account for:
  /// every one of these must end up detected, or the run is lying.
  std::uint64_t corrupted_reads = 0;
  /// Per-(serving-)controller breakdown of corrupted_reads.
  std::vector<std::uint64_t> mc_corrupted_reads;
  /// One recorded corruption event (bounded log for diagnosis/replay).
  struct Corruption {
    arch::Cycles cycle = 0;
    arch::Addr addr = 0;
    unsigned controller = 0;
  };
  static constexpr std::size_t kCorruptionLogCap = 256;
  /// First kCorruptionLogCap corruption events, in request order.
  std::vector<Corruption> corruption_log;

  /// One fault-schedule epoch of the run: [begin, end) between consecutive
  /// fault transitions (the last epoch ends at total_cycles). Traffic and
  /// busy cycles are attributed to the epoch in which a request was
  /// enqueued; a request spanning a boundary is not split.
  struct EpochStats {
    arch::Cycles begin = 0;
    arch::Cycles end = 0;
    /// FaultSpec::describe() of the merged active fault set.
    std::string faults;
    std::uint64_t mem_read_bytes = 0;   ///< remote fills included (NUMA)
    std::uint64_t mem_write_bytes = 0;  ///< remote write-backs included
    /// Remotely served subset of the byte totals above (NUMA runs).
    std::uint64_t remote_read_bytes = 0;
    std::uint64_t remote_write_bytes = 0;
    /// Busy fraction of each controller within the epoch.
    std::vector<double> mc_utilization;
    /// Busy fraction of each link port within the epoch (entry = peer
    /// socket; empty unless the run had an enabled NumaView).
    std::vector<double> link_utilization;
    /// Actual traffic (both directions) per second within the epoch.
    double bandwidth = 0.0;

    [[nodiscard]] arch::Cycles length() const noexcept { return end - begin; }
  };
  /// Per-epoch breakdown; empty unless the run had a fault schedule.
  std::vector<EpochStats> epochs;

  /// Controller-utilization timeline: one row per mc_sample_cadence cycles
  /// (empty when the cadence is 0). Busy cycles are attributed to the
  /// interval in which the request was enqueued (totals are conserved; a
  /// row's utilization can exceed 1.0 on a burst that drains later). The
  /// final row may be shorter than the cadence.
  obs::McTimeline mc_timeline;
  /// True when the 2^20-row cap was hit and the timeline tail was dropped.
  bool mc_timeline_truncated = false;

  [[nodiscard]] double seconds() const noexcept {
    return clock_ghz <= 0.0 ? 0.0
                            : arch::cycles_to_seconds(total_cycles, clock_ghz);
  }
  /// Actual memory traffic (both directions, RFO included) per second.
  [[nodiscard]] double memory_bandwidth() const noexcept {
    return seconds() == 0.0
               ? 0.0
               : static_cast<double>(mem_read_bytes + mem_write_bytes) / seconds();
  }
};

/// The simulator. Construct once per (config, placement); run() may be
/// called repeatedly — caches and clocks reset between runs.
class Chip {
 public:
  Chip(SimConfig config, arch::Placement placement);
  ~Chip();
  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;
  Chip(Chip&&) noexcept;
  Chip& operator=(Chip&&) noexcept;

  /// Number of software threads this chip instance runs.
  [[nodiscard]] unsigned num_threads() const noexcept {
    return static_cast<unsigned>(placement_.hw_strand.size());
  }

  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }

  /// Runs one workload to completion. workload.size() must equal
  /// num_threads(); programs are NOT reset first (callers may pre-advance
  /// them for warm-up). Throws std::runtime_error if the watchdog trips.
  SimResult run(Workload& workload);

  /// Like run(), but reports watchdog/guardrail aborts as a diagnostic
  /// instead of throwing. Usage errors (size mismatch) still throw.
  util::Expected<SimResult> try_run(Workload& workload);

 private:
  struct ThreadState;
  struct CoreState;

  enum class StepOutcome { kRan, kParked, kDone, kAddrRange };

  /// Processes the next access of thread `t` (or parks/retires it).
  StepOutcome step(ThreadState& t);

  /// Load path below L1: L2 bank + controller; returns data-ready time.
  arch::Cycles miss_to_l2(arch::Cycles when, arch::Addr addr, bool is_store);

  /// Reserves the link port toward serving socket `target` for one line
  /// transfer starting no earlier than `when`; returns the transfer-complete
  /// time (fill latency NOT included — the caller adds it for fills).
  arch::Cycles link_transfer(arch::Cycles when, unsigned target,
                             bool is_writeback);

  /// Deterministic Bernoulli draw for a read served by `controller`; records
  /// the corruption when it fires.
  void maybe_flip(arch::Cycles when, arch::Addr addr, unsigned controller);

  /// Recomputes the minimum running iteration and releases parked threads
  /// that fall back inside the lockstep window.
  void advance_min_iteration(arch::Cycles now);

  /// Installs a fault set on the shared structures: controller remap, rate
  /// factors, bank slowdowns, per-thread straggle. Called at run start and
  /// at every fault-schedule transition.
  void apply_faults(const FaultSpec& active);

  /// Retires schedule epochs whose start the event clock has passed,
  /// snapshotting per-controller counters at each boundary.
  void advance_epochs(arch::Cycles now);

  /// Emits one timeline row per whole cadence interval the event clock has
  /// passed (active when cfg_.mc_sample_cadence != 0).
  void advance_samples(arch::Cycles now);

  SimConfig cfg_;
  arch::Placement placement_;
  arch::AddressMap map_;

  // Shared structures rebuilt per run():
  std::unique_ptr<Cache> l2_;
  std::vector<Cache> l1_;                  // per core
  // Address bits no modeled cache can tag (0 = every address fits).
  arch::Addr addr_overflow_ = 0;
  std::vector<MemoryController> mcs_;      // per controller
  std::vector<unsigned> mc_remap_;         // fault remap (identity if healthy)
  // NUMA routing state, recomputed by apply_faults() (empty when disabled):
  // which socket serves each home domain and the per-serving-socket path
  // costs, plus one earliest-start link port per serving socket.
  std::vector<unsigned> home_serving_;
  std::vector<arch::Cycles> serve_latency_;     // per serving socket
  std::vector<arch::Cycles> serve_line_cycles_; // per serving socket
  std::vector<arch::Cycles> link_free_;         // per serving socket port
  std::vector<SimResult::LinkStats> link_stats_;
  std::vector<arch::Cycles> bank_extra_;   // per-bank fault slowdown
  std::vector<arch::Cycles> straggle_;     // per-thread fault lag
  std::vector<double> flip_rate_;          // per-controller corruption prob
  std::vector<arch::Cycles> bank_free_;    // per global L2 bank
  std::vector<CoreState> cores_;
  std::vector<ThreadState> threads_;
  std::uint64_t flops_total_ = 0;

  // Bit-flip bookkeeping, reset per run.
  std::uint64_t flip_draws_ = 0;
  std::uint64_t corrupted_total_ = 0;
  std::vector<std::uint64_t> mc_corrupted_;
  std::vector<SimResult::Corruption> corruption_log_;

  // Fault-schedule state: the run's epoch list (always at least one entry),
  // the index of the epoch currently in force, and per-controller counter
  // snapshots taken at each boundary already crossed.
  struct McSnapshot {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    arch::Cycles busy_cycles = 0;
  };
  std::vector<FaultSchedule::Epoch> sched_epochs_;
  std::size_t epoch_idx_ = 0;
  std::vector<std::vector<McSnapshot>> epoch_marks_;  // one row per boundary
  // Link-port counter snapshots at the same boundaries (NUMA runs only).
  std::vector<std::vector<SimResult::LinkStats>> epoch_link_marks_;

  // MC-utilization timeline state (active when cfg_.mc_sample_cadence != 0):
  // end of the next row, counters at the previous boundary, rows so far.
  static constexpr std::size_t kTimelineRowCap = std::size_t{1} << 20;
  arch::Cycles next_sample_ = 0;
  std::vector<McSnapshot> sample_prev_;
  obs::McTimeline timeline_;
  bool timeline_truncated_ = false;

  // Event loop state: winner tree of runnable threads keyed by (time,
  // thread) and (iteration, thread) min-heap of threads parked by the
  // lockstep gate.
  using ParkQueue =
      std::priority_queue<std::pair<std::uint64_t, unsigned>,
                          std::vector<std::pair<std::uint64_t, unsigned>>,
                          std::greater<>>;
  WinnerTree runnable_;
  ParkQueue parked_;
  /// Lockstep bookkeeping: iteration values of running threads always lie in
  /// [min_iteration_, min_iteration_ + lockstep_window], so a ring of
  /// occupancy counters sized lockstep_window + 2 tracks the minimum in O(1)
  /// amortized per iteration.
  std::vector<unsigned> iter_ring_;
  std::uint64_t min_iteration_ = 0;
  unsigned alive_ = 0;
};

}  // namespace mcopt::sim
