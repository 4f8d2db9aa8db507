#include "sim/analytic.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "sim/numa.h"

namespace mcopt::sim {

std::vector<AnalyticStream> expand_rfo(std::span<const AnalyticStream> logical) {
  std::vector<AnalyticStream> physical;
  physical.reserve(logical.size() * 2);
  for (const AnalyticStream& s : logical) {
    if (s.write) {
      physical.push_back({s.base, false});  // RFO read
      physical.push_back({s.base, true});   // write-back
    } else {
      physical.push_back(s);
    }
  }
  return physical;
}

namespace {

/// The controller-balance closed form of one socket. Every stream advances
/// one line per step over one interleave period. A line goes to its
/// controller (an offline controller's lines to its remap survivor) or, on
/// the node path, when another socket serves its home domain for socket
/// `self`, across the link port toward that socket. Controllers and ports
/// serialize their own lines and work in parallel, so a step costs its
/// busiest resource. kNuma is decided at compile time: the chip path does no
/// routing lookup and no link costing per line. Fills `sock`
/// (link_utilization only on the node path, where the caller sized it) and
/// returns the remote lines per period.
template <bool kNuma>
std::uint64_t socket_closed_form(std::span<const AnalyticStream> streams,
                                 unsigned num_threads,
                                 const arch::Calibration& cal,
                                 const arch::AddressMap& map, double clock_ghz,
                                 const FaultSpec& faults,
                                 const arch::NodeTopology* node, unsigned self,
                                 NodeSocketEstimate& sock) {
  const auto& spec = map.spec();
  const unsigned num_mcs = spec.num_controllers();
  struct Controller {
    double cost_scale = 0.0;
    std::uint64_t reads = 0;  // this step
    std::uint64_t writes = 0;
    double busy_cycles = 0.0;  // per period
  };
  std::vector<Controller> mcs(num_mcs);
  // A derated controller serves 1/factor slower; on the node a derated
  // socket slows its own controllers too (Chip::apply_faults).
  double socket_factor = 1.0;
  if constexpr (kNuma) socket_factor = faults.socket_derate_of(self);
  unsigned alive = 0;
  for (unsigned c = 0; c < num_mcs; ++c) {
    mcs[c].cost_scale = 1.0 / (faults.derate_of(c) * socket_factor);
    if (!faults.is_offline(c)) ++alive;
  }
  if (alive == 0)
    throw std::invalid_argument(
        kNuma ? "estimate_node_bandwidth: no surviving controllers"
              : "estimate_bandwidth: no surviving controllers");
  const std::vector<unsigned> remap = faults.controller_remap(spec);
  NumaRoutes routes;
  if constexpr (kNuma) routes = resolve_numa_routes(*node, faults, self);
  const std::uint64_t steps = spec.period_bytes() / spec.line_size();
  const double read_cost =
      static_cast<double>(cal.mc_request_overhead + cal.mc_read_service);
  const double write_cost =
      static_cast<double>(cal.mc_request_overhead + cal.mc_write_service);

  std::array<double, arch::NodeTopology::kMaxSockets> link_cycles{};
  double total_step_cycles = 0.0;
  double ideal_step_cycles = 0.0;
  std::uint64_t total_reads = 0;
  std::uint64_t remote_lines = 0;
  double read_latency_sum = 0.0;  // node path: remote reads wait longer

  for (std::uint64_t k = 0; k < steps; ++k) {
    for (Controller& mc : mcs) mc.reads = mc.writes = 0;
    std::array<double, arch::NodeTopology::kMaxSockets> step_link{};
    for (const AnalyticStream& st : streams) {
      const arch::Addr a = st.base + k * spec.line_size();
      if (!st.write) ++total_reads;
      if constexpr (kNuma) {
        const unsigned serving = routes.home_serving[node->home_socket_of(a)];
        if (serving != self) {
          const double cyc = static_cast<double>(routes.line_cycles[serving]);
          step_link[serving] += cyc;
          link_cycles[serving] += cyc;
          ++remote_lines;
          if (!st.write)
            read_latency_sum +=
                static_cast<double>(cal.mem_latency + routes.latency[serving]);
          continue;
        }
        if (!st.write) read_latency_sum += static_cast<double>(cal.mem_latency);
      }
      Controller& mc = mcs[remap[map.controller_of(a)]];
      if (st.write)
        ++mc.writes;
      else
        ++mc.reads;
    }
    double step_cost = 0.0;
    double step_work = 0.0;
    for (Controller& mc : mcs) {
      double cost = static_cast<double>(mc.reads) * read_cost +
                    static_cast<double>(mc.writes) * write_cost;
      // Mixed-direction service on a controller costs one amortized
      // turnaround per step (controllers batch same-direction transfers).
      if (mc.reads != 0 && mc.writes != 0)
        cost += static_cast<double>(cal.mc_turnaround);
      cost *= mc.cost_scale;
      mc.busy_cycles += cost;
      step_cost = std::max(step_cost, cost);
      step_work += cost;
    }
    if constexpr (kNuma)
      for (unsigned t = 0; t < node->num_sockets; ++t)
        step_cost = std::max(step_cost, step_link[t]);
    total_step_cycles += step_cost;
    // A perfectly balanced placement would split the same work evenly
    // across the controllers that still serve traffic.
    ideal_step_cycles += step_work / static_cast<double>(alive);
  }

  const double line = static_cast<double>(spec.line_size());
  const double hz = clock_ghz * 1e9;
  const std::uint64_t lines_per_period =
      static_cast<std::uint64_t>(streams.size()) * steps;
  sock.bytes_per_period = static_cast<double>(lines_per_period) * line;
  sock.remote_fraction = static_cast<double>(remote_lines) /
                         static_cast<double>(lines_per_period);

  AnalyticEstimate& est = sock.chip;
  est.service_bandwidth = sock.bytes_per_period / total_step_cycles * hz;
  est.balance =
      total_step_cycles > 0.0 ? ideal_step_cycles / total_step_cycles : 0.0;
  // Busy fraction over the service critical path: the makespan of one
  // period is total_step_cycles, of which controller c was busy
  // busy_cycles (offline controllers received no remapped lines, so they
  // read 0).
  est.mc_utilization.resize(num_mcs);
  for (unsigned c = 0; c < num_mcs; ++c)
    est.mc_utilization[c] = mcs[c].busy_cycles / total_step_cycles;
  if constexpr (kNuma)
    for (unsigned t = 0; t < node->num_sockets; ++t)
      sock.link_utilization[t] = link_cycles[t] / total_step_cycles;

  // Latency/concurrency bound: each strand sustains one outstanding read
  // miss whose round trip is DRAM latency plus, for remote reads, the path's
  // extra fill latency (averaged over the socket's reads). Writes drain
  // through store buffers without blocking, so total traffic scales
  // read-limited throughput by total/read bytes.
  double avg_read_latency = static_cast<double>(cal.mem_latency);
  if constexpr (kNuma)
    if (total_reads != 0)
      avg_read_latency = read_latency_sum / static_cast<double>(total_reads);
  const double read_fraction = static_cast<double>(total_reads) /
                               static_cast<double>(lines_per_period);
  const double read_bw_limit =
      static_cast<double>(num_threads) * line / avg_read_latency * hz;
  est.latency_bandwidth =
      read_fraction > 0.0 ? read_bw_limit / read_fraction : read_bw_limit;

  est.bandwidth = std::min(est.service_bandwidth, est.latency_bandwidth);
  return remote_lines;
}

/// Adds `from * weight` into `into`, field by field (growing
/// `into.mc_utilization` with zeros as needed).
void add_weighted(AnalyticEstimate& into, const AnalyticEstimate& from,
                  double weight) {
  into.bandwidth += from.bandwidth * weight;
  into.service_bandwidth += from.service_bandwidth * weight;
  into.latency_bandwidth += from.latency_bandwidth * weight;
  into.balance += from.balance * weight;
  std::vector<double>& util = into.mc_utilization;
  if (util.size() < from.mc_utilization.size())
    util.resize(from.mc_utilization.size(), 0.0);
  for (std::size_t c = 0; c < from.mc_utilization.size(); ++c)
    util[c] += from.mc_utilization[c] * weight;
}

}  // namespace

AnalyticEstimate estimate_bandwidth(std::span<const AnalyticStream> streams,
                                    unsigned num_threads,
                                    const arch::Calibration& cal,
                                    const arch::AddressMap& map,
                                    double clock_ghz, const FaultSpec& faults) {
  if (streams.empty()) throw std::invalid_argument("estimate_bandwidth: no streams");
  if (num_threads == 0) throw std::invalid_argument("estimate_bandwidth: no threads");
  NodeSocketEstimate sock;
  (void)socket_closed_form<false>(streams, num_threads, cal, map, clock_ghz,
                                  faults, nullptr, 0, sock);
  return std::move(sock.chip);
}

ScheduledEstimate estimate_bandwidth_scheduled(
    std::span<const AnalyticStream> streams, unsigned num_threads,
    const arch::Calibration& cal, const arch::AddressMap& map,
    double clock_ghz, const FaultSpec& baseline, const FaultSchedule& schedule,
    arch::Cycles horizon) {
  if (schedule.has_relative())
    throw std::invalid_argument(
        "estimate_bandwidth_scheduled: schedule has unresolved percent bounds");
  if (horizon == 0 || horizon == FaultSchedule::kNever)
    throw std::invalid_argument(
        "estimate_bandwidth_scheduled: horizon must be a finite run length");

  ScheduledEstimate out;
  for (const FaultSchedule::Epoch& e : schedule.epochs(horizon, baseline)) {
    ScheduledEstimate::EpochEstimate epoch{
        e.begin, e.end, e.faults.describe(),
        estimate_bandwidth(streams, num_threads, cal, map, clock_ghz,
                           e.faults)};
    add_weighted(out.whole, epoch.estimate,
                 static_cast<double>(e.end - e.begin) /
                     static_cast<double>(horizon));
    out.epochs.push_back(std::move(epoch));
  }
  return out;
}

NodeEstimate estimate_node_bandwidth(
    std::span<const std::vector<AnalyticStream>> socket_streams,
    std::span<const unsigned> socket_threads, const arch::Calibration& cal,
    const arch::AddressMap& map, const arch::NodeTopology& node,
    double clock_ghz, const FaultSpec& faults) {
  const unsigned n = node.num_sockets;
  if (socket_streams.size() != n || socket_threads.size() != n)
    throw std::invalid_argument(
        "estimate_node_bandwidth: need one stream set and thread count per "
        "socket");

  const double line = static_cast<double>(map.spec().line_size());
  const double hz = clock_ghz * 1e9;

  NodeEstimate out;
  out.sockets.resize(n);
  double total_bytes = 0.0;
  double remote_bytes = 0.0;
  double makespan_cycles = 0.0;  // slowest socket's cycles per period

  for (unsigned s = 0; s < n; ++s) {
    NodeSocketEstimate& sock = out.sockets[s];
    sock.link_utilization.assign(n, 0.0);
    if (socket_streams[s].empty()) continue;
    if (socket_threads[s] == 0)
      throw std::invalid_argument(
          "estimate_node_bandwidth: socket with streams but no threads");

    const std::uint64_t remote_lines =
        socket_closed_form<true>(socket_streams[s], socket_threads[s], cal,
                                 map, clock_ghz, faults, &node, s, sock);

    total_bytes += sock.bytes_per_period;
    remote_bytes += static_cast<double>(remote_lines) * line;
    // Cycles this socket needs per period at its own bandwidth.
    makespan_cycles = std::max(
        makespan_cycles, sock.bytes_per_period / sock.chip.bandwidth * hz);
  }

  if (makespan_cycles > 0.0)
    out.bandwidth = total_bytes / makespan_cycles * hz;
  out.remote_fraction =
      total_bytes > 0.0 ? remote_bytes / total_bytes : 0.0;
  return out;
}

}  // namespace mcopt::sim
