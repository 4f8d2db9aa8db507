#include "runtime/supervisor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"

namespace mcopt::runtime {

namespace {

std::string set_to_string(const std::vector<unsigned>& set) {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i != 0) out << ',';
    out << set[i];
  }
  out << ']';
  return out.str();
}

/// Supervisor metrics, registered once. Relaxed-atomic updates only on the
/// observe path.
struct SupMetrics {
  obs::Counter& observations;
  obs::Counter& replans;
  obs::Counter& suppressed;
  obs::Counter& scrubs;
  obs::Counter& probes;
  obs::Counter& recoveries;

  static SupMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static SupMetrics m{
        reg.counter("mcopt_supervisor_observations_total",
                    "Samples fed through Supervisor::observe"),
        reg.counter("mcopt_supervisor_replan_decisions_total",
                    "Observe decisions with action=replan"),
        reg.counter("mcopt_supervisor_suppressed_total",
                    "Replans suppressed by the backoff window"),
        reg.counter("mcopt_supervisor_scrub_orders_total",
                    "Scrub orders issued on corrupted reads"),
        reg.counter("mcopt_supervisor_probes_total",
                    "Canary probes launched against quarantined sockets"),
        reg.counter("mcopt_supervisor_recoveries_total",
                    "Probe-confirmed socket recoveries (readmissions begun)")};
    return m;
  }
};

/// Two diagnoses name the same fault state when they flag the same dead
/// domains and the same derated ones, in the same order, with every factor
/// equal to within float noise: successive samples of one derate diagnose
/// factors a few ULP apart.
bool same_fault_state(const sim::FaultSpec& a, const sim::FaultSpec& b) {
  const auto same = [](const auto& xs, const auto& ys, auto key) {
    return std::equal(xs.begin(), xs.end(), ys.begin(), ys.end(),
                      [&](const auto& x, const auto& y) {
                        return key(x) == key(y) &&
                               std::abs(x.factor - y.factor) <=
                                   1e-9 * std::max(x.factor, y.factor);
                      });
  };
  return a.offline_controllers == b.offline_controllers &&
         a.offline_sockets == b.offline_sockets &&
         same(a.derates, b.derates,
              [](const auto& d) { return d.controller; }) &&
         same(a.socket_derates, b.socket_derates,
              [](const auto& d) { return d.socket; }) &&
         same(a.link_faults, b.link_faults, [](const auto& l) {
           return std::tuple(l.a, l.b, l.offline);
         });
}

}  // namespace

const char* action_event_name(Action a) noexcept {
  switch (a) {
    case Action::kKeep: return "supervisor.action.keep";
    case Action::kReplan: return "supervisor.action.replan";
    case Action::kSuppressed: return "supervisor.action.suppressed";
    case Action::kScrub: return "supervisor.action.scrub";
    case Action::kProbe: return "supervisor.action.probe";
  }
  return "supervisor.action";
}

util::Status DetectorConfig::check() const {
  util::Status status;
  if (stable_window == 0)
    status.note("DetectorConfig: stable_window must be >= 1");
  if (backoff.initial == 0) status.note("DetectorConfig: backoff.initial == 0");
  if (backoff.multiplier < 1.0)
    status.note("DetectorConfig: backoff.multiplier < 1");
  if (backoff.cap < backoff.initial)
    status.note("DetectorConfig: backoff.cap < backoff.initial");
  if (backoff.jitter < 0.0 || backoff.jitter >= 1.0)
    status.note("DetectorConfig: backoff.jitter outside [0, 1)");
  if (quiet_reset == 0) status.note("DetectorConfig: quiet_reset must be >= 1");
  return status;
}

// ---------------------------------------------------------------------------
// ReplanProtocol

ReplanProtocol::ReplanProtocol(const DetectorConfig& cfg, std::uint64_t seed,
                               Names names)
    : stable_window_(cfg.stable_window),
      quiet_reset_(cfg.quiet_reset),
      names_(names),
      backoff_(cfg.backoff, seed) {}

ReplanProtocol::Entry::Entry(std::atomic_flag& flag) : flag_(flag) {
  if (flag_.test_and_set(std::memory_order_acquire))
    throw std::logic_error(
        "supervisor: concurrent or re-entrant call — a supervisor is "
        "single-consumer; feed its samples from one thread (the executor "
        "drains its ingestion queue)");
}

ReplanProtocol::Entry::~Entry() { flag_.clear(std::memory_order_release); }

ReplanProtocol::Entry ReplanProtocol::enter() { return Entry(entered_); }

Action ReplanProtocol::decide(const sim::FaultSpec& diag, double layout_gain,
                              arch::Cycles now, std::string& reason) {
  // Debounce: the diagnosis must repeat stable_window times in a row.
  if (pending_count_ != 0 && same_fault_state(diag, pending_diag_)) {
    ++pending_count_;
  } else {
    pending_diag_ = diag;
    pending_count_ = 1;
  }
  if (pending_count_ < stable_window_) {
    reason = "unstable diagnosis (" + diag.describe() + ", " +
             std::to_string(pending_count_) + "/" +
             std::to_string(stable_window_) + ")";
    return Action::kKeep;
  }

  const bool fault_changed = !same_fault_state(pending_diag_, planned_against_);
  const bool layout_deficit = layout_gain >= kReplanGain;
  if (!fault_changed && !layout_deficit) {
    reason = "planned state current";
    if (++quiet_count_ >= quiet_reset_ && backoff_.retries() != 0) {
      backoff_.reset();
      util::log_info(std::string(names_.log) +
                     ": backoff reset after quiet stretch at=" +
                     std::to_string(now));
    }
    return Action::kKeep;
  }
  quiet_count_ = 0;

  reason = fault_changed ? "fault state " + planned_against_.describe() +
                               " -> " + pending_diag_.describe()
                         : std::string(names_.gain) + " " +
                               std::to_string(layout_gain);
  if (backoff_.ready_in(now) == 0) return Action::kReplan;
  ++suppressed_;
  reason += "; suppressed by backoff until " +
            std::to_string(backoff_.ready_at());
  return Action::kSuppressed;
}

void ReplanProtocol::log_proposal(Action action, arch::Cycles now,
                                  const std::vector<unsigned>& set,
                                  const std::string& reason) const {
  util::log_info(std::string(names_.log) +
                 (action == Action::kReplan ? ": action=replan at="
                                            : ": action=suppressed at=") +
                 std::to_string(now) + " set=" + set_to_string(set) +
                 " reason=" + reason);
}

sim::FaultSpec ReplanProtocol::commit(arch::Cycles now) {
  obs::trace_instant(names_.commit_event, "supervisor", now, replans_ + 1u);
  sim::FaultSpec prior = std::exchange(planned_against_, pending_diag_);
  backoff_.arm(now);
  ++replans_;
  util::log_info(std::string(names_.log) + ": replan committed at=" +
                 std::to_string(now) +
                 " planned_against=" + planned_against_.describe() +
                 " next_allowed=" + std::to_string(backoff_.ready_at()));
  return prior;
}

void ReplanProtocol::abort(arch::Cycles now) {
  obs::trace_instant(names_.abort_event, "supervisor", now, 0);
  backoff_.arm(now);
  util::log_info(std::string(names_.log) + ": replan declined at=" +
                 std::to_string(now) +
                 " next_allowed=" + std::to_string(backoff_.ready_at()));
}

void ReplanProtocol::reset_belief(sim::FaultSpec planned) {
  planned_against_ = std::move(planned);
  pending_diag_ = planned_against_;
  pending_count_ = 0;
}

// ---------------------------------------------------------------------------
// Supervisor

Supervisor::Supervisor(DetectorConfig cfg, const arch::InterleaveSpec& interleave,
                       std::uint64_t seed)
    : ReplanProtocol(cfg, seed,
                     {"supervisor", "supervisor.commit", "supervisor.abort",
                      "layout gain"}),
      interleave_(interleave) {
  cfg.check().throw_if_failed();
  if (interleave_.num_controllers() == 0)
    throw std::invalid_argument("Supervisor: interleave has no controllers");
}

sim::FaultSpec Supervisor::diagnose(
    const std::vector<double>& mc_utilization) const {
  const unsigned num_controllers = interleave_.num_controllers();
  if (mc_utilization.size() != num_controllers)
    throw std::invalid_argument("Supervisor::diagnose: utilization size " +
                                std::to_string(mc_utilization.size()) +
                                " != controllers " +
                                std::to_string(num_controllers));
  sim::FaultSpec diag;
  const double peak =
      *std::max_element(mc_utilization.begin(), mc_utilization.end());
  if (peak < kMinSignal) return diag;  // idle: no signal, assume healthy

  for (unsigned c = 0; c < num_controllers; ++c)
    if (mc_utilization[c] < kOfflineThreshold * peak)
      diag.offline_controllers.push_back(c);
  // Never diagnose the whole chip dead: with all utilizations ~equal the
  // peak scaling above cannot flag anyone, so this only guards degenerate
  // threshold settings.
  if (diag.offline_controllers.size() == num_controllers)
    diag.offline_controllers.clear();

  // Derate detection against the median of the non-dead controllers: a slow
  // DIMM saturates while its peers wait on it.
  std::vector<double> alive;
  for (unsigned c = 0; c < num_controllers; ++c)
    if (!diag.is_offline(c)) alive.push_back(mc_utilization[c]);
  std::sort(alive.begin(), alive.end());
  const double median = alive[alive.size() / 2];
  if (median > 0.0) {
    for (unsigned c = 0; c < num_controllers; ++c) {
      if (diag.is_offline(c)) continue;
      if (mc_utilization[c] > kDerateThreshold * median) {
        // Busy-fraction ratio approximates the service slowdown.
        const double factor =
            std::clamp(median / mc_utilization[c], 0.05, 1.0);
        diag.derates.push_back({c, factor});
      }
    }
  }
  return diag;
}

Decision Supervisor::observe(const Sample& sample, double layout_gain) {
  const auto entry = enter();
  // Span wraps the whole decision so the action instant below always has an
  // enclosing supervisor.observe parent in the exported trace.
  obs::TraceSpan span("supervisor.observe", "supervisor", sample.end,
                      sample.corrupted_reads);
  SupMetrics& m = SupMetrics::get();
  m.observations.inc();
  Decision dec = observe_impl(sample, layout_gain);
  obs::trace_instant(action_event_name(dec.action), "supervisor",
                     static_cast<std::uint64_t>(dec.action), dec.at);
  switch (dec.action) {
    case Action::kReplan: m.replans.inc(); break;
    case Action::kSuppressed: m.suppressed.inc(); break;
    case Action::kScrub: m.scrubs.inc(); break;
    case Action::kKeep: break;
    case Action::kProbe: break;  // only NodeSupervisor probes; it counts them
  }
  return dec;
}

Decision Supervisor::observe_impl(const Sample& sample, double layout_gain) {
  if (!(layout_gain > 0.0) || !std::isfinite(layout_gain))
    throw std::invalid_argument("Supervisor::observe: bad layout_gain");

  Decision dec;
  dec.at = sample.end;
  dec.diagnosis = planned_against();
  dec.plan_set = dec.diagnosis.surviving_controllers(interleave_);

  // Integrity outranks everything: corrupted payloads must be scrubbed
  // before any performance reasoning, and are never debounced or backed off.
  if (sample.corrupted_reads > 0) {
    ++scrubs_;
    dec.action = Action::kScrub;
    dec.reason = "integrity: " + std::to_string(sample.corrupted_reads) +
                 " corrupted reads in [" + std::to_string(sample.begin) + ", " +
                 std::to_string(sample.end) + ")";
    util::log_info("supervisor: action=scrub at=" + std::to_string(sample.end) +
                   " corrupted_reads=" + std::to_string(sample.corrupted_reads));
    return dec;
  }

  const double peak = sample.mc_utilization.empty()
                          ? 0.0
                          : *std::max_element(sample.mc_utilization.begin(),
                                              sample.mc_utilization.end());
  if (sample.mc_utilization.size() != interleave_.num_controllers() ||
      peak < kMinSignal) {
    dec.reason = "idle";
    return dec;
  }

  dec.action = decide(diagnose(sample.mc_utilization), layout_gain,
                      sample.end, dec.reason);
  if (dec.action == Action::kKeep) return dec;
  dec.diagnosis = pending();
  dec.plan_set = dec.diagnosis.surviving_controllers(interleave_);
  log_proposal(dec.action, sample.end, dec.plan_set, dec.reason);
  return dec;
}

void Supervisor::commit(arch::Cycles now) {
  const auto entry = enter();
  (void)ReplanProtocol::commit(now);
}

void Supervisor::abort(arch::Cycles now) {
  const auto entry = enter();
  ReplanProtocol::abort(now);
}

// ---------------------------------------------------------------------------
// NodeSupervisor

util::Status RecoveryConfig::check() const {
  util::Status status;
  if (probe_backoff.initial == 0)
    status.note("RecoveryConfig: probe_backoff.initial == 0");
  if (probe_backoff.multiplier < 1.0)
    status.note("RecoveryConfig: probe_backoff.multiplier < 1");
  if (probe_backoff.cap < probe_backoff.initial)
    status.note("RecoveryConfig: probe_backoff.cap < initial");
  if (probe_backoff.jitter < 0.0 || probe_backoff.jitter >= 1.0)
    status.note("RecoveryConfig: probe_backoff.jitter outside [0, 1)");
  if (ramp_windows == 0)
    status.note("RecoveryConfig: ramp_windows must be >= 1");
  if (!(ramp_initial > 0.0) || ramp_initial > 1.0)
    status.note("RecoveryConfig: ramp_initial outside (0, 1]");
  return status;
}

util::Status NodeDetectorConfig::check() const {
  util::Status status = DetectorConfig::check();
  status.merge(recovery.check());
  return status;
}

NodeSupervisor::NodeSupervisor(NodeDetectorConfig cfg,
                               const arch::NodeTopology& node,
                               std::uint64_t seed)
    : ReplanProtocol(cfg, seed,
                     {"nodesup", "nodesup.commit", "nodesup.abort",
                      "placement gain"}),
      recovery_(cfg.recovery),
      node_(node) {
  cfg.check().throw_if_failed();
  node_.validate();
  if (node_.single_socket())
    throw std::invalid_argument(
        "NodeSupervisor: single-socket topology has no socket fault domains");
  gates_.reserve(node_.num_sockets);
  for (unsigned s = 0; s < node_.num_sockets; ++s)
    gates_.emplace_back(recovery_.probe_backoff, /*trip_threshold=*/1,
                        seed ^ ((s + 1) * 0x9e3779b97f4a7c15ULL));
  ramp_left_.assign(node_.num_sockets, 0);
  ramp_factor_.assign(node_.num_sockets, 1.0);
}

sim::FaultSpec NodeSupervisor::diagnose(const NodeSample& sample,
                                        const sim::FaultSpec& prior) const {
  const unsigned n = node_.num_sockets;
  if (sample.socket_utilization.size() != n)
    throw std::invalid_argument(
        "NodeSupervisor::diagnose: socket utilization size " +
        std::to_string(sample.socket_utilization.size()) + " != sockets " +
        std::to_string(n));
  const auto link_util = [&](unsigned s, unsigned t) {
    return s < sample.link_utilization.size() &&
                   t < sample.link_utilization[s].size()
               ? sample.link_utilization[s][t]
               : 0.0;
  };
  const auto link_cost = [&](unsigned s, unsigned t) {
    return s < sample.link_line_cost.size() &&
                   t < sample.link_line_cost[s].size()
               ? sample.link_line_cost[s][t]
               : 0.0;
  };

  sim::FaultSpec diag;
  const double peak = *std::max_element(sample.socket_utilization.begin(),
                                        sample.socket_utilization.end());
  for (unsigned s = 0; s < n; ++s) {
    const double util = sample.socket_utilization[s];
    double outbound = 0.0;
    for (unsigned t = 0; t < n; ++t)
      outbound = std::max(outbound, link_util(s, t));
    if (util < kOfflineThreshold * peak && outbound > kLinkSaturation) {
      // The dead-memory signature: local controllers idle while the socket
      // limps over the interconnect.
      diag.offline_sockets.push_back(s);
    } else if (util < kMinSignal && outbound < kMinSignal) {
      // No evidence either way: carry the prior belief forward (a migrated-
      // away socket goes silent and must not flap back to healthy).
      if (prior.is_socket_offline(s)) diag.offline_sockets.push_back(s);
    }
  }
  if (diag.offline_sockets.size() == n) diag.offline_sockets.clear();

  // Link derates read off observed per-line cost inflation. Serving-socket
  // derates and multi-hop reroutes inflate the same observable; the factor
  // is attributed to the direct link, which is what the placement gate
  // prices anyway.
  for (unsigned s = 0; s < n; ++s) {
    for (unsigned t = s + 1; t < n; ++t) {
      const double healthy = static_cast<double>(node_.link_cycles(s, t));
      const double observed = std::max(link_cost(s, t), link_cost(t, s));
      if (healthy <= 0.0 || observed <= 0.0) continue;
      if (diag.is_socket_offline(s) || diag.is_socket_offline(t)) continue;
      if (observed > kDerateThreshold * healthy) {
        const double factor = std::clamp(healthy / observed, 0.05, 1.0);
        diag.link_faults.push_back({s, t, factor, false});
      }
    }
  }
  return diag;
}

NodeDecision NodeSupervisor::observe(const NodeSample& sample,
                                     double layout_gain) {
  const auto entry = enter();
  if (!(layout_gain > 0.0) || !std::isfinite(layout_gain))
    throw std::invalid_argument("NodeSupervisor::observe: bad layout_gain");
  obs::TraceSpan span("nodesup.observe", "supervisor", sample.end, 0);

  const sim::FaultSpec& planned = planned_against();
  NodeDecision dec;
  dec.at = sample.end;
  dec.diagnosis = planned;
  dec.healthy_sockets = planned.surviving_sockets(node_.num_sockets);

  // Probe channel: a kKeep window is an opportunity to canary a quarantined
  // socket whose breaker hold has expired. Probes ride the otherwise-idle
  // decision slots so they never preempt a replan.
  const auto finish_keep = [&](NodeDecision d) -> NodeDecision {
    if (!recovery_.enabled || d.action != Action::kKeep) return d;
    for (const unsigned s : planned.offline_sockets) {
      if (!gates_[s].allow(sample.end)) continue;
      ++probes_;
      SupMetrics::get().probes.inc();
      d.action = Action::kProbe;
      d.probe_socket = s;
      d.reason = "probe quarantined socket " + std::to_string(s);
      obs::trace_instant("supervisor.probe.launch", "supervisor", sample.end,
                         s);
      util::log_info("nodesup: action=probe at=" + std::to_string(sample.end) +
                     " socket=" + std::to_string(s) +
                     " attempt=" + std::to_string(probes_));
      break;  // one canary in flight at a time
    }
    return d;
  };

  const double peak = sample.socket_utilization.empty()
                          ? 0.0
                          : *std::max_element(sample.socket_utilization.begin(),
                                              sample.socket_utilization.end());
  double busiest_link = 0.0;
  for (const auto& row : sample.link_utilization)
    for (const double u : row) busiest_link = std::max(busiest_link, u);
  if (sample.socket_utilization.size() != node_.num_sockets ||
      (peak < kMinSignal && busiest_link < kMinSignal)) {
    dec.reason = "idle";
    advance_ramps(planned, sample.end);
    return finish_keep(dec);
  }

  const sim::FaultSpec diag = diagnose(sample, planned);
  advance_ramps(diag, sample.end);
  dec.action = decide(diag, layout_gain, sample.end, dec.reason);
  if (dec.action == Action::kKeep) return finish_keep(dec);

  // sock.*/link.* instants mark newly suspected fault domains on the trace
  // timeline, replan or not.
  const sim::FaultSpec& proposed = pending();
  for (const unsigned s : proposed.offline_sockets)
    if (!planned.is_socket_offline(s))
      obs::trace_instant("sock.offline.suspect", "numa", sample.end, s);
  for (const auto& lf : proposed.link_faults)
    if (planned.link_derate_of(lf.a, lf.b) == 1.0)
      obs::trace_instant("link.degraded.suspect", "numa", sample.end,
                         lf.a * arch::NodeTopology::kMaxSockets + lf.b);

  dec.diagnosis = proposed;
  dec.healthy_sockets = proposed.surviving_sockets(node_.num_sockets);
  log_proposal(dec.action, sample.end, dec.healthy_sockets, dec.reason);
  return dec;
}

void NodeSupervisor::commit(arch::Cycles now) {
  const auto entry = enter();
  const sim::FaultSpec prior = ReplanProtocol::commit(now);
  // Trip the probe breaker of every newly quarantined socket; a socket that
  // relapsed mid-ramp reopens with the escalated hold (its breaker was
  // closed without forgiveness at probe time).
  for (const unsigned s : planned_against().offline_sockets) {
    if (prior.is_socket_offline(s)) continue;
    if (ramp_left_[s] != 0) {
      ramp_left_[s] = 0;
      ramp_factor_[s] = 1.0;
      obs::trace_instant("supervisor.readmit.abort", "supervisor", now, s);
      util::log_info("nodesup: readmit aborted socket=" + std::to_string(s) +
                     " at=" + std::to_string(now) + " (relapse during ramp)");
    }
    gates_[s].record_failure(now);
  }
}

void NodeSupervisor::abort(arch::Cycles now) {
  const auto entry = enter();
  ReplanProtocol::abort(now);
}

bool NodeSupervisor::report_probe(unsigned socket, const NodeSample& probe,
                                  arch::Cycles now) {
  const auto entry = enter();
  if (socket >= node_.num_sockets)
    throw std::invalid_argument("NodeSupervisor::report_probe: socket " +
                                std::to_string(socket) + " out of range");
  const double util = socket < probe.socket_utilization.size()
                          ? probe.socket_utilization[socket]
                          : 0.0;
  const bool alive = util > kProbeUtilThreshold;
  if (!alive) {
    ++probe_failures_;
    gates_[socket].record_failure(now);  // half-open -> reopen, escalated
    obs::trace_instant("supervisor.probe.fail", "supervisor", now, socket);
    util::log_info(
        "nodesup: probe failed socket=" + std::to_string(socket) + " at=" +
        std::to_string(now) + " util=" + std::to_string(util) +
        " reopens=" + std::to_string(gates_[socket].reopens()) +
        " next_probe_in=" + std::to_string(gates_[socket].ready_in(now)));
    return false;
  }

  // Confirmed recovery: readmit through the ramp. The breaker closes but
  // keeps its escalation — only a completed ramp forgives it, so a flapper
  // pays ever-longer quarantines.
  ++recoveries_;
  SupMetrics::get().recoveries.inc();
  gates_[socket].record_success(/*forgive=*/false);
  sim::FaultSpec readmitted = planned_against();
  auto& off = readmitted.offline_sockets;
  off.erase(std::remove(off.begin(), off.end(), socket), off.end());
  ramp_left_[socket] = recovery_.ramp_windows;
  ramp_factor_[socket] = recovery_.ramp_initial;
  // Drop the stale debounce state: a pending dead diagnosis predating the
  // probe must not be committed over the fresh evidence.
  reset_belief(std::move(readmitted));
  obs::trace_instant("supervisor.probe.success", "supervisor", now, socket);
  obs::trace_instant("supervisor.readmit.begin", "supervisor", now, socket);
  util::log_info("nodesup: probe confirmed recovery socket=" +
                 std::to_string(socket) + " at=" + std::to_string(now) +
                 " util=" + std::to_string(util) + " ramp_windows=" +
                 std::to_string(recovery_.ramp_windows) + " ramp_start=" +
                 std::to_string(recovery_.ramp_initial));
  return true;
}

sim::FaultSpec NodeSupervisor::belief() const {
  sim::FaultSpec b = planned_against();
  for (unsigned s = 0; s < node_.num_sockets; ++s)
    if (ramp_left_[s] != 0) b.socket_derates.push_back({s, ramp_factor_[s]});
  return b;
}

void NodeSupervisor::advance_ramps(const sim::FaultSpec& diag,
                                   arch::Cycles now) {
  for (unsigned s = 0; s < node_.num_sockets; ++s) {
    if (ramp_left_[s] == 0) continue;
    if (diag.is_socket_offline(s)) continue;  // relapse pending; commit aborts
    const double step = (1.0 - recovery_.ramp_initial) /
                        static_cast<double>(recovery_.ramp_windows);
    ramp_factor_[s] = std::min(1.0, ramp_factor_[s] + step);
    if (--ramp_left_[s] != 0) continue;
    ramp_factor_[s] = 1.0;
    ++readmissions_;
    gates_[s].record_success();  // ramp completed: forgive the escalation
    obs::trace_instant("supervisor.readmit.complete", "supervisor", now, s);
    util::log_info("nodesup: readmit complete socket=" + std::to_string(s) +
                   " at=" + std::to_string(now));
  }
}

}  // namespace mcopt::runtime
