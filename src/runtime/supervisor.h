#pragma once
// Online self-healing supervisor for degraded-chip runs.
//
// The paper's planner is purely analytic ("no trial and error is required"):
// given the address map and the surviving-controller set, it derives the
// layout directly. What it cannot do is *know* the surviving set at run
// time. The supervisor closes that loop: it watches a sliding window of
// per-controller utilization samples coming out of the simulator, diagnoses
// which controllers are dead (near-zero busy fraction) or derated
// (saturated far above the median), and — when the diagnosis is stable and
// differs from what the current layout was planned against — proposes a
// replan over the observed healthy set. A jittered-exponential backoff
// (util::Backoff, in simulated cycles) keeps a flapping controller from
// triggering a replan storm, and every decision is logged through util::log
// in a structured one-line format.
//
// A second, orthogonal channel watches data *integrity*: when a sample
// reports corrupted reads (the simulator's silent-bit-flip counter, or a
// native kernel's CRC verify), the supervisor orders a scrub — checksum
// re-verification plus rebuild of the damaged segments — instead of a
// replan. Scrubs bypass the debounce and the backoff: a replan is a
// performance decision that can wait, a flipped payload is a correctness
// event that cannot.
//
// The supervisor proposes; the supervised loop (supervised_loop.h) disposes:
// it computes the candidate layout with seg::plan_* and a migration
// break-even estimate from the analytic model, then either commit()s the
// replan (migration performed, backoff armed) or abort()s it (not worth the
// copy; backoff armed so the proposal is not re-made every slice).
//
// THREADING CONTRACT — single consumer. The supervisor is deliberately not
// internally synchronized: observe()/commit()/abort() mutate the debounce
// and backoff state and must be called from exactly one logical consumer at
// a time. Since the executor (runtime/executor/) introduced worker threads,
// samples produced on workers are NOT allowed to call observe() directly —
// they go through the executor's ingestion queue and are drained by its
// control step, which serializes the calls. The contract is enforced, not
// just documented, for NodeSupervisor too: concurrent or re-entrant entry
// throws std::logic_error before any state is touched, and
// tests/runtime/test_executor.cpp and test_numa_loop.cpp exercise the path
// under ThreadSanitizer.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/address_map.h"
#include "arch/numa.h"
#include "sim/faults.h"
#include "util/backoff.h"
#include "util/expected.h"

namespace mcopt::runtime {

/// Detector thresholds, calibrated for slice-grained samples (4 controllers
/// per chip, DESIGN.md §4e). No caller tunes them.
///
/// A controller (socket) whose utilization sits below this fraction of the
/// busiest one's is diagnosed dead.
inline constexpr double kOfflineThreshold = 0.12;
/// A controller whose utilization exceeds this multiple of the median of
/// the live ones is diagnosed derated (a slow DIMM saturates while its
/// peers idle); a link whose observed per-line cost exceeds this multiple of
/// the topology's healthy cost likewise.
inline constexpr double kDerateThreshold = 1.6;
/// Samples whose busiest controller (socket, link) sits below this carry
/// no diagnostic signal: the machine is idle.
inline constexpr double kMinSignal = 0.02;
/// Layout replans with an unchanged diagnosis trigger only when the
/// caller's candidate/current bandwidth estimate reaches this.
inline constexpr double kReplanGain = 1.15;
/// A socket is dead only while its busiest outbound link also exceeds this
/// busy fraction (an idle socket is not a dead one).
inline constexpr double kLinkSaturation = 0.5;

/// Protocol settings both supervisors share (the detector thresholds are
/// the constants above).
struct DetectorConfig {
  /// A diagnosis must repeat over this many consecutive samples before the
  /// supervisor acts on it (debounces boundary slices that straddle a fault
  /// transition).
  unsigned stable_window = 2;
  /// Replan backoff, in simulated cycles.
  util::BackoffConfig backoff{.initial = 50000, .multiplier = 2.0,
                              .cap = 3200000, .jitter = 0.1};
  /// Consecutive no-action samples after which the backoff resets.
  unsigned quiet_reset = 4;

  /// Non-throwing validation; reports every violation at once.
  [[nodiscard]] util::Status check() const;
};

/// One observation window: per-controller busy fractions over
/// [begin, end) of the *global* (supervised-loop) cycle timeline.
struct Sample {
  arch::Cycles begin = 0;
  arch::Cycles end = 0;
  std::vector<double> mc_utilization;
  /// Integrity channel: reads the memory system served with flipped payloads
  /// during the window (sim::SimResult::corrupted_reads for the slice).
  std::uint64_t corrupted_reads = 0;
};

enum class Action {
  kKeep,       ///< nothing to do (healthy, unstable, idle, or already planned)
  kReplan,     ///< diagnosis or layout deficit warrants a replan now
  kSuppressed, ///< replan warranted but inside the backoff window
  kScrub,      ///< corrupted reads observed: verify checksums and rebuild
  kProbe       ///< run a canary against a quarantined socket (fail-back path)
};

/// The supervisor's verdict for one sample.
struct Decision {
  Action action = Action::kKeep;
  /// Current believed fault state (dead + derated controllers).
  sim::FaultSpec diagnosis;
  /// Controllers a replan should lay streams out over (the non-dead set;
  /// derated controllers stay in — their addresses cannot be avoided, only
  /// rephased, which the analytic gate evaluates).
  std::vector<unsigned> plan_set;
  std::string reason;
  arch::Cycles at = 0;
};

/// Trace-event name ("supervisor.action.keep" etc.) the observe() wrapper
/// emits for each decision; exposed so tests and trace consumers share one
/// spelling. Returns a string literal (the trace recorder stores pointers).
[[nodiscard]] const char* action_event_name(Action a) noexcept;

/// The replan protocol both supervisors run over their detector's
/// diagnoses. A diagnosis counts once it repeats stable_window times in a
/// row; a counted diagnosis that differs from the planned-against fault
/// state, or a layout_gain of at least kReplanGain, proposes a replan unless
/// the backoff window is still open; quiet_reset quiet samples in a row
/// reset the backoff. Diagnoses are compared as fault sets: the same dead
/// and derated domains, every factor equal to within 1e-9 relative, because
/// successive samples of one derate diagnose factors a few ULP apart. The
/// owner's loop then commit()s or abort()s the proposal. Each supervisor
/// derives from it and adds only its detector.
///
/// Single consumer: the owner holds enter() across every call that mutates
/// this state; concurrent or re-entrant entry throws std::logic_error before
/// any state is touched.
class ReplanProtocol {
 protected:
  /// Spellings of the owner's log lines, trace events and replan reasons.
  struct Names {
    const char* log;           ///< log-line prefix
    const char* commit_event;  ///< trace instant of commit()
    const char* abort_event;   ///< trace instant of abort()
    const char* gain;          ///< reason label of a layout-gain replan
  };

  /// `seed` feeds the backoff jitter; equal seeds replay exactly.
  ReplanProtocol(const DetectorConfig& cfg, std::uint64_t seed, Names names);

  /// RAII single-consumer guard. The acquire/release flag also publishes
  /// the state between properly serialized alternating callers.
  class Entry {
   public:
    explicit Entry(std::atomic_flag& flag);
    ~Entry();
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

   private:
    std::atomic_flag& flag_;
  };
  [[nodiscard]] Entry enter();

  /// One debounce step over a fresh diagnosis: kKeep while it is unstable or
  /// matches the planned-against state with no layout deficit, else kReplan,
  /// or kSuppressed inside the backoff window. Writes the decision's reason.
  /// The proposed state is pending(), the first diagnosis of the stable run.
  [[nodiscard]] Action decide(const sim::FaultSpec& diag, double layout_gain,
                              arch::Cycles now, std::string& reason);
  /// Logs a kReplan or kSuppressed decision over the proposed domain set.
  void log_proposal(Action action, arch::Cycles now,
                    const std::vector<unsigned>& set,
                    const std::string& reason) const;

  /// The loop acted on the last kReplan: pending() becomes planned-against
  /// and the backoff arms. Returns the previous planned-against state.
  sim::FaultSpec commit(arch::Cycles now);
  /// The loop declined the last kReplan: arms the backoff so the proposal
  /// is not re-made every sample, keeping the planned-against state.
  void abort(arch::Cycles now);
  /// Fresh evidence outside the debounce (a confirmed probe) replaces the
  /// planned-against state and drops the pending diagnosis, which predates
  /// it.
  void reset_belief(sim::FaultSpec planned);

  [[nodiscard]] const sim::FaultSpec& planned_against() const noexcept {
    return planned_against_;
  }
  [[nodiscard]] const sim::FaultSpec& pending() const noexcept {
    return pending_diag_;
  }
  [[nodiscard]] unsigned replans() const noexcept { return replans_; }
  [[nodiscard]] unsigned suppressed() const noexcept { return suppressed_; }
  [[nodiscard]] const util::Backoff& backoff() const noexcept {
    return backoff_;
  }

 private:
  unsigned stable_window_;
  unsigned quiet_reset_;
  Names names_;
  util::Backoff backoff_;

  sim::FaultSpec planned_against_{};  // healthy at start
  sim::FaultSpec pending_diag_{};     // meaningful while pending_count_ > 0
  unsigned pending_count_ = 0;
  unsigned quiet_count_ = 0;
  unsigned replans_ = 0;
  unsigned suppressed_ = 0;
  std::atomic_flag entered_ = ATOMIC_FLAG_INIT;
};

class Supervisor : private ReplanProtocol {
 public:
  /// `seed` feeds the backoff jitter; equal seeds replay exactly.
  Supervisor(DetectorConfig cfg, const arch::InterleaveSpec& interleave,
             std::uint64_t seed = 0);

  /// Feeds one utilization sample. `layout_gain` is the caller's analytic
  /// estimate of candidate/current bandwidth under the currently believed
  /// fault state (1.0 = current layout already optimal); it lets the
  /// supervisor propose replans for layout deficits (e.g. an aliased
  /// starting layout) even when the fault diagnosis is unchanged.
  ///
  /// Single consumer only (see the threading contract above): concurrent or
  /// re-entrant calls throw std::logic_error without touching any state.
  /// Worker threads must enqueue samples on the executor's ingestion queue
  /// instead of calling this directly.
  [[nodiscard]] Decision observe(const Sample& sample,
                                 double layout_gain = 1.0);

  /// The loop migrated per the last kReplan decision: records the diagnosis
  /// as planned-against and arms the backoff.
  void commit(arch::Cycles now);

  /// The loop declined the last kReplan decision (migration not worth it):
  /// arms the backoff so the same proposal is not re-made every sample, but
  /// keeps the planned-against state (conditions may still change).
  void abort(arch::Cycles now);

  /// Fault state the current layout was planned against; committed
  /// replans / backoff-suppressed proposals / scrub orders so far.
  using ReplanProtocol::planned_against;
  using ReplanProtocol::replans;
  using ReplanProtocol::suppressed;
  [[nodiscard]] unsigned scrubs() const noexcept { return scrubs_; }
  using ReplanProtocol::backoff;

  /// Pure detector: classifies one utilization vector into a FaultSpec
  /// (exposed for tests).
  [[nodiscard]] sim::FaultSpec diagnose(
      const std::vector<double>& mc_utilization) const;

 private:
  /// observe() body; the public wrapper adds the single-consumer guard plus
  /// the "supervisor.observe" trace span enclosing the decision instant.
  [[nodiscard]] Decision observe_impl(const Sample& sample, double layout_gain);

  arch::InterleaveSpec interleave_;
  unsigned scrubs_ = 0;
};

// ---------------------------------------------------------------------------
// Node-level supervision: socket and link fault domains.
//
// At multi-chip scale the degradation unit is a whole socket's memory domain
// or an inter-socket link, and the signal changes shape: a socket whose
// memory died does NOT go quiet — its controllers idle while its *outbound
// link ports saturate*, because every fill it used to serve locally now
// limps across the interconnect at remap cost. The node detector keys on
// exactly that signature (utilization collapse + link saturation) so a
// merely idle socket is never mistaken for a dead one. Link derates are
// read off the observed per-line transfer cost: the DES charges
// raw_cycles / derate per line, so cost inflation over the topology's
// healthy figure is the derate, directly.
//
// Evidence rule: a socket showing neither memory traffic nor link traffic
// contributes NO evidence, and the detector carries the prior belief for it
// forward. This is what keeps failover stable — after jobs migrate off a
// dead socket it goes silent, and a naive detector would flip it back to
// healthy and thrash the replan loop.

/// Fail-back probing and staged re-admission (DESIGN.md §4k). The no-traffic
/// evidence rule above is deliberately one-way: once jobs migrate off a dead
/// socket it goes silent, so passive observation can never rediscover it.
/// The prober closes that loop with the service layer's breaker state
/// machine at socket granularity: a diagnosed-dead socket trips a per-socket
/// util::CircuitBreaker (closed -> open); when the hold expires the next
/// observe() admits exactly one canary probe (half-open); a probe that finds
/// the domain serving again readmits the socket through a derate ramp
/// (staged re-admission), while a failed probe reopens the breaker with a
/// geometrically longer hold. Only a *completed* ramp forgives the
/// escalation, so a flapping socket pays ever-longer quarantines instead of
/// thrashing the replan loop.
struct RecoveryConfig {
  /// Master switch; false restores the PR-7 behavior (belief carries
  /// forward for good — the survivor-model plateau baseline).
  bool enabled = true;
  /// Probe cadence per quarantined socket, in simulated cycles: the breaker
  /// hold between canaries, escalating geometrically on probe failure.
  util::BackoffConfig probe_backoff{.initial = 400000, .multiplier = 2.0,
                                    .cap = 25600000, .jitter = 0.1};
  /// Observation windows a readmitted socket takes to ramp from
  /// `ramp_initial` capacity belief to full weight.
  unsigned ramp_windows = 3;
  /// Capacity belief of a just-readmitted socket (stepped toward 1.0 over
  /// ramp_windows; the hysteresis half of the ramp — a relapse during the
  /// ramp re-quarantines with escalated hold).
  double ramp_initial = 0.5;

  [[nodiscard]] util::Status check() const;
};

/// Canary probe job size (triad elements) and strands. Small on purpose: the
/// probe is charged cycles like a scrub, so it must cost a fraction of a
/// slice.
inline constexpr std::size_t kProbeElements = 4096;
inline constexpr unsigned kProbeThreads = 4;
/// Probe verdict threshold: the probed socket's mean controller utilization
/// must exceed this for the domain to count as serving again. A still-dead
/// domain remaps every canary line to survivors, so it reads exactly 0; a
/// recovered domain serves the (latency-bound) canary locally at a few
/// percent — the threshold sits between, not near 50%.
inline constexpr double kProbeUtilThreshold = 0.01;

/// Node supervisor settings: the shared protocol's plus fail-back probing.
struct NodeDetectorConfig : DetectorConfig {
  RecoveryConfig recovery{};

  /// Non-throwing validation; reports every violation at once.
  [[nodiscard]] util::Status check() const;
};

/// One node observation window over [begin, end) of the loop timeline.
struct NodeSample {
  arch::Cycles begin = 0;
  arch::Cycles end = 0;
  /// Mean controller busy fraction of each socket over the window.
  std::vector<double> socket_utilization;
  /// Busy fraction of socket s's link port toward peer t (entry [s][t];
  /// diagonal 0). Empty rows allowed for idle sockets.
  std::vector<std::vector<double>> link_utilization;
  /// Observed cycles per 64 B line on socket s's port toward t (busy cycles
  /// over line transfers; 0 = no traffic, i.e. no evidence).
  std::vector<std::vector<double>> link_line_cost;
};

/// The node supervisor's verdict for one sample.
struct NodeDecision {
  Action action = Action::kKeep;
  /// Believed socket/link fault state.
  sim::FaultSpec diagnosis;
  /// Sockets a replan may place compute and memory on (the non-dead set).
  std::vector<unsigned> healthy_sockets;
  /// Target of a kProbe action: the quarantined socket to canary.
  unsigned probe_socket = 0;
  std::string reason;
  arch::Cycles at = 0;
};

/// Socket/link-domain supervisor: the same ReplanProtocol as Supervisor,
/// over NodeSample evidence, plus the fail-back prober. Single consumer,
/// enforced like Supervisor's: concurrent or re-entrant calls to observe,
/// commit, abort or report_probe throw std::logic_error.
class NodeSupervisor : private ReplanProtocol {
 public:
  NodeSupervisor(NodeDetectorConfig cfg, const arch::NodeTopology& node,
                 std::uint64_t seed = 0);

  /// Feeds one node sample. `layout_gain` is the caller's analytic estimate
  /// of candidate/current node bandwidth under the current belief (placement
  /// channel, exactly as Supervisor::observe's layout_gain).
  [[nodiscard]] NodeDecision observe(const NodeSample& sample,
                                     double layout_gain = 1.0);

  /// The loop migrated per the last kReplan decision.
  void commit(arch::Cycles now);
  /// The loop declined the last kReplan decision.
  void abort(arch::Cycles now);

  /// The loop ran the canary ordered by a kProbe decision; `probe` is the
  /// canary run's sample. Returns true when the probe confirms the domain is
  /// serving again — the socket is readmitted into the belief through the
  /// re-admission ramp (breaker closes without forgiving escalation). On
  /// false the breaker reopens with a geometrically longer hold.
  bool report_probe(unsigned socket, const NodeSample& probe, arch::Cycles now);

  using ReplanProtocol::planned_against;
  /// Effective fault belief for pricing and placement: planned_against()
  /// plus the staged re-admission derate of each ramping socket. This is
  /// what the loop's analytic gates must price against — a just-readmitted
  /// socket is believed alive but not yet at full weight.
  [[nodiscard]] sim::FaultSpec belief() const;
  using ReplanProtocol::replans;
  using ReplanProtocol::suppressed;
  /// Probes launched / probes that came back dead / probe-confirmed
  /// recoveries / ramps completed to full weight.
  [[nodiscard]] unsigned probes() const noexcept { return probes_; }
  [[nodiscard]] unsigned probe_failures() const noexcept {
    return probe_failures_;
  }
  [[nodiscard]] unsigned recoveries() const noexcept { return recoveries_; }
  [[nodiscard]] unsigned readmissions() const noexcept { return readmissions_; }
  using ReplanProtocol::backoff;
  /// Per-socket probe breaker (exposed for tests: half-open semantics and
  /// reopen escalation at socket granularity).
  [[nodiscard]] const util::CircuitBreaker& probe_gate(unsigned socket) const {
    return gates_.at(socket);
  }

  /// Pure detector (exposed for tests): classifies one sample into a
  /// socket/link FaultSpec, carrying `prior` forward for evidence-free
  /// sockets. observe() passes planned_against() as the prior.
  [[nodiscard]] sim::FaultSpec diagnose(const NodeSample& sample,
                                        const sim::FaultSpec& prior) const;

 private:
  /// Steps every active re-admission ramp one window (unless `diag` flags
  /// the socket dead again) and completes ramps that reach full weight.
  void advance_ramps(const sim::FaultSpec& diag, arch::Cycles now);

  RecoveryConfig recovery_;
  arch::NodeTopology node_;

  /// Recovery state: one probe breaker per socket, plus the ramp position of
  /// each readmitted socket (0 = not ramping).
  std::vector<util::CircuitBreaker> gates_;
  std::vector<unsigned> ramp_left_;
  std::vector<double> ramp_factor_;
  unsigned probes_ = 0;
  unsigned probe_failures_ = 0;
  unsigned recoveries_ = 0;
  unsigned readmissions_ = 0;
};

}  // namespace mcopt::runtime
