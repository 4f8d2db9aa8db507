#include "runtime/numa_loop.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "kernels/triad.h"
#include "obs/attribution.h"
#include "obs/trace.h"
#include "seg/planner.h"
#include "sim/analytic.h"
#include "sim/numa.h"
#include "util/crc.h"
#include "util/log.h"

namespace mcopt::runtime {

namespace {

/// Bump allocator over the contiguous home domains: hands out array storage
/// inside a chosen socket's domain at a planner-chosen period offset.
class DomainArena {
 public:
  explicit DomainArena(const arch::NodeTopology& node) : node_(node) {
    next_.reserve(node.num_sockets);
    for (unsigned d = 0; d < node.num_sockets; ++d)
      next_.push_back(node.socket_base(d));
  }

  arch::Addr allocate(unsigned domain, std::size_t bytes, std::size_t align,
                      std::size_t offset) {
    const arch::Addr aligned =
        (next_.at(domain) + align - 1) / align * align + offset;
    next_[domain] = aligned + bytes;
    if (next_[domain] > node_.socket_base(domain) + node_.domain_bytes())
      throw std::invalid_argument(
          "run_supervised_node_triad: home domain " + std::to_string(domain) +
          " overflows (shrink n or raise home_shift)");
    return aligned;
  }

 private:
  arch::NodeTopology node_;
  std::vector<arch::Addr> next_;
};

/// Strand share of a shard covering `count` of `n` elements: proportional,
/// never zero, so a split job's total strand count stays ~ the whole job's.
unsigned shard_threads(unsigned threads, std::size_t count, std::size_t n) {
  return std::max<unsigned>(
      1, static_cast<unsigned>(std::lround(static_cast<double>(threads) *
                                           static_cast<double>(count) /
                                           static_cast<double>(n))));
}

/// Shard placement under a healthy-socket belief. Each logical job (natural
/// socket == job_id) runs whole on its natural socket when that is healthy —
/// the fail-back pull — and otherwise splits evenly across every survivor
/// (seg::split_shard_counts), so one orphan spreads instead of piling onto
/// the least-loaded socket whole. A job whose current shards already match
/// the desired shape keeps its bases (no copy); rebuilt shards go through the
/// composable planner overload so co-homed shards from different jobs rotate
/// off each other's controllers. `materialize` allocates real storage; probe
/// placements reuse a scratch offset inside the target domain.
std::vector<NodeJob> plan_placement(const std::vector<NodeJob>& shards,
                                    unsigned num_jobs, std::size_t n,
                                    const std::vector<unsigned>& healthy,
                                    const arch::AddressMap& map,
                                    const arch::NodeTopology& node,
                                    DomainArena* materialize) {
  const auto is_healthy = [&](unsigned s) {
    return std::find(healthy.begin(), healthy.end(), s) != healthy.end();
  };
  struct Piece {
    unsigned socket = 0;
    std::size_t begin = 0;
    std::size_t count = 0;
  };
  std::vector<std::vector<Piece>> desired(num_jobs);
  for (unsigned j = 0; j < num_jobs; ++j) {
    if (is_healthy(j)) {
      desired[j].push_back({j, 0, n});
      continue;
    }
    const std::vector<std::size_t> counts =
        seg::split_shard_counts(n, healthy.size());
    std::size_t at = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      desired[j].push_back({healthy[i], at, counts[i]});
      at += counts[i];
    }
  }

  std::vector<std::vector<const NodeJob*>> current(num_jobs);
  for (const NodeJob& s : shards) current[s.job_id].push_back(&s);
  std::vector<bool> keep(num_jobs, false);
  std::vector<unsigned> domain_load(node.num_sockets, 0);
  for (unsigned j = 0; j < num_jobs; ++j) {
    const auto& cur = current[j];
    const auto& want = desired[j];
    bool same = cur.size() == want.size();
    for (std::size_t i = 0; same && i < cur.size(); ++i)
      same = cur[i]->compute_socket == want[i].socket &&
             cur[i]->home_socket == want[i].socket &&
             cur[i]->begin == want[i].begin && cur[i]->count == want[i].count;
    keep[j] = same;
    if (same)
      for (const NodeJob* s : cur) ++domain_load[s->home_socket];
  }

  std::vector<NodeJob> out;
  for (unsigned j = 0; j < num_jobs; ++j) {
    if (keep[j]) {
      for (const NodeJob* s : current[j]) out.push_back(*s);
      continue;
    }
    for (const Piece& p : desired[j]) {
      const std::vector<unsigned> compute{p.socket};
      const seg::NodeStreamPlan plan = seg::plan_node_stream_shards(
          4, map, node, compute, healthy, domain_load);
      const seg::NodeStreamPlan::Shard& sh = plan.shards.front();
      NodeJob job;
      job.job_id = j;
      job.begin = p.begin;
      job.count = p.count;
      job.compute_socket = p.socket;
      job.home_socket = sh.home_socket;
      job.bases.resize(4);
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t off = sh.streams.offsets[k];
        job.bases[k] =
            materialize != nullptr
                ? materialize->allocate(job.home_socket,
                                        p.count * sizeof(double) + off,
                                        sh.streams.base_align, off)
                : node.socket_base(job.home_socket) + node.domain_bytes() / 2 +
                      off;
      }
      out.push_back(std::move(job));
    }
  }
  return out;
}

bool same_placement(const std::vector<NodeJob>& a,
                    const std::vector<NodeJob>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t j = 0; j < a.size(); ++j)
    if (a[j].job_id != b[j].job_id || a[j].begin != b[j].begin ||
        a[j].count != b[j].count ||
        a[j].compute_socket != b[j].compute_socket ||
        a[j].home_socket != b[j].home_socket)
      return false;
  return true;
}

/// One element range some migration must physically copy: the overlap of an
/// old shard and a new shard of the same logical job that changed placement.
struct MovedRange {
  unsigned job_id = 0;
  std::size_t begin = 0;
  std::size_t count = 0;
  unsigned old_home = 0;
  unsigned new_compute = 0;
};

std::vector<MovedRange> moved_ranges(const std::vector<NodeJob>& before,
                                     const std::vector<NodeJob>& after) {
  std::vector<MovedRange> out;
  for (const NodeJob& c : after) {
    for (const NodeJob& o : before) {
      if (o.job_id != c.job_id) continue;
      const std::size_t lo = std::max(o.begin, c.begin);
      const std::size_t hi = std::min(o.begin + o.count, c.begin + c.count);
      if (lo >= hi) continue;
      // An identical shard keeps its bases through plan_placement — nothing
      // is copied; anything else (split, merge, relocation) moves the
      // overlapping portion.
      if (o.compute_socket == c.compute_socket &&
          o.home_socket == c.home_socket && o.begin == c.begin &&
          o.count == c.count)
        continue;
      out.push_back({c.job_id, lo, hi - lo, o.home_socket, c.compute_socket});
    }
  }
  return out;
}

}  // namespace

double placement_bandwidth(const std::vector<NodeJob>& jobs, unsigned threads,
                           std::size_t n, const sim::NodeConfig& node,
                           const sim::FaultSpec& faults) {
  const unsigned sockets = node.node.num_sockets;
  std::vector<std::vector<sim::AnalyticStream>> streams(sockets);
  std::vector<unsigned> strands(sockets, 0);
  for (const NodeJob& job : jobs) {
    const std::vector<sim::AnalyticStream> logical = {{job.bases[0], true},
                                                      {job.bases[1], false},
                                                      {job.bases[2], false},
                                                      {job.bases[3], false}};
    const auto physical = sim::expand_rfo(logical);
    auto& dst = streams[job.compute_socket];
    dst.insert(dst.end(), physical.begin(), physical.end());
    strands[job.compute_socket] += shard_threads(threads, job.count, n);
  }
  return sim::estimate_node_bandwidth(
             streams, strands, node.sim.calibration,
             arch::AddressMap(node.sim.interleave), node.node,
             node.sim.topology.clock_ghz, faults)
      .bandwidth;
}

util::Status NodeLoopConfig::check() const {
  util::Status status;
  status.merge(node.check());
  status.merge(detector.check());
  if (node.node.single_socket())
    status.note("NodeLoopConfig: node loop needs >= 2 sockets");
  if (threads == 0) status.note("NodeLoopConfig: threads must be >= 1");
  if (slices == 0) status.note("NodeLoopConfig: slices must be >= 1");
  if (!(migration_safety >= 0.0) || !std::isfinite(migration_safety))
    status.note("NodeLoopConfig: migration_safety must be finite and >= 0");
  if (node.sim.fault_schedule.has_relative())
    status.note("NodeLoopConfig: fault schedule has unresolved percent bounds");
  // Worst-case failover packs every job onto one surviving chip.
  if (threads * node.node.num_sockets > node.sim.topology.max_threads())
    status.note("NodeLoopConfig: threads*sockets exceeds one chip's strands (" +
                std::to_string(node.sim.topology.max_threads()) +
                "); failover could not pack jobs onto one survivor");
  return status;
}

NodeLoopResult run_supervised_node_triad(std::size_t n,
                                         const NodeLoopConfig& cfg) {
  cfg.check().throw_if_failed();
  const unsigned sockets = cfg.node.node.num_sockets;
  const arch::AddressMap map(cfg.node.sim.interleave);
  const double ghz = cfg.node.sim.topology.clock_ghz;
  NodeSupervisor sup(cfg.detector, cfg.node.node, cfg.seed);
  DomainArena arena(cfg.node.node);

  // One logical job per socket, arrays local at planner offsets; one
  // whole-range shard each until a migration splits it.
  std::vector<NodeJob> jobs(sockets);
  const seg::StreamPlan plan = seg::plan_stream_offsets(4, map);
  for (unsigned s = 0; s < sockets; ++s) {
    jobs[s].job_id = s;
    jobs[s].begin = 0;
    jobs[s].count = n;
    jobs[s].compute_socket = s;
    jobs[s].home_socket = s;
    jobs[s].bases.resize(4);
    for (std::size_t k = 0; k < 4; ++k)
      jobs[s].bases[k] = arena.allocate(s, n * sizeof(double) + plan.offsets[k],
                                        plan.base_align, plan.offsets[k]);
  }

  // CRC sidecar: one deterministic payload per logical job stands in for its
  // live arrays (B, C, D share one integrity stream in this model). Every
  // committed shard move re-hashes the moved range after the copy and the
  // whole payload against the sidecar — a mismatch aborts the run.
  std::vector<std::vector<double>> payload(sockets);
  std::vector<std::uint32_t> sidecar(sockets);
  for (unsigned j = 0; j < sockets; ++j) {
    payload[j].resize(n);
    for (std::size_t i = 0; i < n; ++i)
      payload[j][i] = static_cast<double>(
          ((cfg.seed + j + 1) * 0x9e3779b97f4a7c15ULL +
           i * 0x2545f4914f6cdd1dULL) >>
          32);
    sidecar[j] = util::crc32c(payload[j].data(), n * sizeof(double));
  }

  NodeLoopResult out;
  out.socket_timelines.resize(sockets);
  arch::Cycles global = 0;
  NodeSample last_sample;

  for (unsigned slice = 0; slice < cfg.slices; ++slice) {
    const obs::TraceSpan slice_span("nodeloop.slice", "loop", slice, global);
    sim::NodeConfig nc = cfg.node;
    nc.sim.fault_schedule = cfg.node.sim.fault_schedule.shifted(global);
    std::vector<sim::Workload> wls(sockets);
    for (const NodeJob& job : jobs) {
      auto wl = kernels::make_triad_workload(
          job.bases, job.count, shard_threads(cfg.threads, job.count, n),
          sched::Schedule::static_block(), 1);
      auto& dst = wls[job.compute_socket];
      for (auto& program : wl) dst.push_back(std::move(program));
    }
    sim::Node node(nc);
    sim::NodeResult res = node.run(wls);

    const arch::Cycles slice_begin = global;
    global += res.total_cycles;
    out.total_cycles += res.total_cycles;
    out.bytes += res.mem_read_bytes + res.mem_write_bytes;
    out.remote_bytes += res.remote_read_bytes + res.remote_write_bytes;
    out.slice_log.push_back({slice_begin, global,
                             res.mem_read_bytes + res.mem_write_bytes,
                             res.remote_read_bytes + res.remote_write_bytes});
    for (unsigned s = 0; s < sockets; ++s) {
      for (const obs::McSample& row : res.sockets[s].mc_timeline) {
        obs::McSample shifted = row;
        shifted.begin += slice_begin;
        shifted.end += slice_begin;
        out.socket_timelines[s].push_back(std::move(shifted));
      }
    }

    last_sample = NodeSample{};
    last_sample.begin = slice_begin;
    last_sample.end = global;
    last_sample.socket_utilization = res.socket_utilization;
    last_sample.link_utilization.assign(sockets, {});
    last_sample.link_line_cost.assign(sockets, {});
    for (unsigned s = 0; s < sockets; ++s) {
      last_sample.link_utilization[s].assign(sockets, 0.0);
      last_sample.link_line_cost[s].assign(sockets, 0.0);
      const auto& links = res.sockets[s].links;
      for (unsigned t = 0; t < links.size(); ++t) {
        if (res.total_cycles != 0)
          last_sample.link_utilization[s][t] =
              static_cast<double>(links[t].busy_cycles) /
              static_cast<double>(res.total_cycles);
        if (links[t].line_transfers() != 0)
          last_sample.link_line_cost[s][t] =
              static_cast<double>(links[t].busy_cycles) /
              static_cast<double>(links[t].line_transfers());
      }
    }
    if (!cfg.supervise) continue;

    // Belief/DES divergence (reporting only, never fed to decisions): the
    // schedule cleared a socket the supervisor still believes dead. This is
    // the window the prober exists to close — assert it shrinks in the
    // recovery tests.
    const sim::FaultSpec actual = cfg.node.sim.fault_schedule.active_at(global);
    for (const unsigned s : sup.planned_against().offline_sockets) {
      if (actual.is_socket_offline(s)) continue;
      ++out.belief_stale_windows;
      obs::trace_instant("nodesup.belief_stale", "numa", global, s);
      util::log_info("node_triad: decision=keep belief_stale=sock" +
                     std::to_string(s) + " at=" + std::to_string(global) +
                     " (schedule cleared; belief persists until a probe)");
      break;
    }

    // Placement channel: candidate layout under the current belief vs what
    // is running now. belief() carries the re-admission ramp derates, so a
    // just-readmitted socket is priced at partial weight.
    const sim::FaultSpec belief = sup.belief();
    const auto believed_healthy = belief.surviving_sockets(sockets);
    const std::vector<NodeJob> believed_cand = plan_placement(
        jobs, sockets, n, believed_healthy, map, cfg.node.node, nullptr);
    const double cur_bw =
        placement_bandwidth(jobs, cfg.threads, n, cfg.node, belief);
    const double cand_bw = same_placement(jobs, believed_cand)
                               ? cur_bw
                               : placement_bandwidth(believed_cand, cfg.threads,
                                                     n, cfg.node, belief);
    const double gain = cur_bw > 0.0 ? cand_bw / cur_bw : 1.0;

    const NodeDecision dec = sup.observe(last_sample, gain);

    if (dec.action == Action::kProbe) {
      // Run the supervisor's canary on the DES: a tiny triad computed on the
      // quarantined socket, homed in its own domain at a scratch offset. A
      // still-dead domain remaps every line to survivors, so the probed
      // socket's controllers stay silent; a recovered domain serves locally
      // and lights them up. Cycles are charged like a scrub — no goodput.
      const unsigned ps = dec.probe_socket;
      sim::NodeConfig pnc = cfg.node;
      pnc.sim.fault_schedule = cfg.node.sim.fault_schedule.shifted(global);
      const seg::StreamPlan pplan = seg::plan_stream_offsets(4, map);
      std::vector<arch::Addr> pbases(4);
      for (std::size_t k = 0; k < 4; ++k)
        pbases[k] = cfg.node.node.socket_base(ps) +
                    cfg.node.node.domain_bytes() / 2 + pplan.offsets[k];
      std::vector<sim::Workload> pwls(sockets);
      auto pwl = kernels::make_triad_workload(pbases, kProbeElements,
                                              kProbeThreads,
                                              sched::Schedule::static_block(), 1);
      for (auto& program : pwl) pwls[ps].push_back(std::move(program));
      sim::Node pnode(pnc);
      const sim::NodeResult pres = pnode.run(pwls);

      NodeSample psample;
      psample.begin = global;
      global += pres.total_cycles;
      out.total_cycles += pres.total_cycles;
      out.probe_cycles += pres.total_cycles;
      psample.end = global;
      psample.socket_utilization = pres.socket_utilization;
      // System work: probe traffic is charged to tenant 0 on the probed
      // socket's controllers (global numbering: socket * chip controllers).
      const unsigned cps = map.spec().num_controllers();
      std::vector<unsigned> probe_mcs(cps);
      for (unsigned k = 0; k < cps; ++k) probe_mcs[k] = ps * cps + k;
      obs::Attribution::instance().charge_spread(
          0, probe_mcs, obs::Charge::kProbe, 0,
          pres.mem_read_bytes + pres.mem_write_bytes);
      sup.report_probe(ps, psample, global);
      continue;
    }
    if (dec.action != Action::kReplan) continue;

    const std::vector<NodeJob> candidate = plan_placement(
        jobs, sockets, n, dec.healthy_sockets, map, cfg.node.node, nullptr);
    if (same_placement(jobs, candidate)) {
      // Nothing to move (e.g. a link derate with every job already local):
      // record the new belief without paying a migration.
      sup.commit(global);
      ++out.replans;
      continue;
    }

    // Price the candidate against the diagnosis merged with the ramp
    // derates: a fault-change replan uses the fresh diagnosis, a fail-back
    // pull still sees the readmitted socket at partial weight.
    const sim::FaultSpec pricing =
        sim::FaultSpec::merged(dec.diagnosis, sup.belief());
    const double bw_now =
        placement_bandwidth(jobs, cfg.threads, n, cfg.node, pricing);
    const double bw_new =
        placement_bandwidth(candidate, cfg.threads, n, cfg.node, pricing);
    // Price each moved range: B, C, D read once from wherever the old home
    // is served under the diagnosis (link bandwidth when remote), then
    // first-touch written into the new home at the post-migration rate.
    const std::vector<MovedRange> moved = moved_ranges(jobs, candidate);
    double mig_seconds = 0.0;
    std::uint64_t moved_bytes = 0;
    for (const MovedRange& m : moved) {
      const double copy_bytes = 3.0 * static_cast<double>(m.count) * 8.0;
      moved_bytes += static_cast<std::uint64_t>(copy_bytes);
      const sim::NumaRoutes routes = sim::resolve_numa_routes(
          cfg.node.node, dec.diagnosis, m.new_compute);
      const unsigned serving = routes.home_serving[m.old_home];
      double read_bw = bw_new;
      if (serving != m.new_compute && routes.line_cycles[serving] > 0)
        read_bw = std::min(
            read_bw, 64.0 / static_cast<double>(routes.line_cycles[serving]) *
                         ghz * 1e9);
      mig_seconds += copy_bytes / read_bw + copy_bytes / bw_new;
    }
    // Every job sweeps once per slice.
    const bool migrate = migration_pays(
        cfg.slices - slice - 1,
        static_cast<double>(sockets) *
            static_cast<double>(kernels::triad_actual_bytes(n)),
        bw_now, bw_new, mig_seconds, cfg.migration_safety);
    if (!migrate) {
      ++out.declined;
      obs::trace_instant("sock.decline", "numa", global, 0);
      sup.abort(global);
      util::log_info("node_triad: migration declined at=" +
                     std::to_string(global) + " bw_now=" +
                     std::to_string(bw_now) + " bw_new=" +
                     std::to_string(bw_new) + " mig_s=" +
                     std::to_string(mig_seconds));
      continue;
    }

    jobs = plan_placement(jobs, sockets, n, dec.healthy_sockets, map,
                          cfg.node.node, &arena);
    // Integrity: re-hash every moved range after its copy and every payload
    // against its sidecar; shard moves must be bit-transparent.
    unsigned crc_verified = 0;
    for (const MovedRange& m : moved) {
      const double* src = payload[m.job_id].data() + m.begin;
      const std::uint32_t before_crc =
          util::crc32c(src, m.count * sizeof(double));
      const std::vector<double> transferred(src, src + m.count);
      const std::uint32_t after_crc =
          util::crc32c(transferred.data(), m.count * sizeof(double));
      if (before_crc != after_crc)
        throw std::runtime_error(
            "node_triad: CRC mismatch on shard move job=" +
            std::to_string(m.job_id) + " range=[" + std::to_string(m.begin) +
            "," + std::to_string(m.begin + m.count) + ")");
      ++crc_verified;
    }
    for (unsigned j = 0; j < sockets; ++j)
      if (util::crc32c(payload[j].data(), n * sizeof(double)) != sidecar[j])
        throw std::runtime_error(
            "node_triad: payload sidecar mismatch after migration, job=" +
            std::to_string(j));
    out.crc_ranges_verified += crc_verified;

    // Migration copies are system bytes, attributed to tenant 0 on the
    // destination socket's controllers (the first-touch writes land there).
    for (const MovedRange& m : moved) {
      const unsigned cps = map.spec().num_controllers();
      std::vector<unsigned> dst_mcs(cps);
      for (unsigned k = 0; k < cps; ++k)
        dst_mcs[k] = m.new_compute * cps + k;
      obs::Attribution::instance().charge_spread(
          0, dst_mcs, obs::Charge::kMigration, 0,
          3ULL * m.count * sizeof(double));
    }

    const arch::Cycles mig_cycles = arch::seconds_to_cycles(mig_seconds, ghz);
    obs::trace_instant("sock.migrate", "numa", global, mig_cycles);
    global += mig_cycles;
    out.total_cycles += mig_cycles;
    out.migration_cycles += mig_cycles;
    sup.commit(global);
    ++out.replans;
    out.replan_log.push_back({global, dec.healthy_sockets, jobs, mig_cycles,
                              moved_bytes, crc_verified});
    util::log_info("node_triad: migrated at=" + std::to_string(global) +
                   " cost=" + std::to_string(mig_cycles) + " cycles shards=" +
                   std::to_string(jobs.size()) + " moved_bytes=" +
                   std::to_string(moved_bytes) + " crc_ok=" +
                   std::to_string(crc_verified));
  }

  out.probes = sup.probes();
  out.probe_failures = sup.probe_failures();
  out.recoveries = sup.recoveries();
  out.readmissions = sup.readmissions();
  out.final_diagnosis =
      cfg.supervise && !last_sample.socket_utilization.empty()
          ? sup.diagnose(last_sample, sup.planned_against())
          : sim::FaultSpec{};
  out.final_socket_utilization = last_sample.socket_utilization;
  out.final_jobs = jobs;
  out.finish(sup.suppressed(), ghz);
  out.remote_fraction =
      out.bytes != 0
          ? static_cast<double>(out.remote_bytes) / static_cast<double>(out.bytes)
          : 0.0;
  return out;
}

}  // namespace mcopt::runtime
