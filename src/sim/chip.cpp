#include "sim/chip.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "sim/numa.h"
#include "util/prng.h"

namespace mcopt::sim {

util::Status SimConfig::check() const {
  util::Status status;
  try {
    topology.validate();
  } catch (const std::exception& e) {
    status.note(e.what());
  }
  if (topology.l2.line_bytes != interleave.line_size())
    status.note("SimConfig: L2 line size must match interleave line size");
  // The cache model keeps one dirty bit per way in a u64 mask.
  for (const auto& [name, geo] : {std::pair{"L1D", topology.l1d},
                                  std::pair{"L2", topology.l2}})
    if (geo.associativity > Cache::kMaxAssociativity)
      status.note("SimConfig: " + std::string(name) + " associativity " +
                  std::to_string(geo.associativity) + " exceeds the cache "
                  "model's " + std::to_string(Cache::kMaxAssociativity) +
                  "-way limit");
  if (interleave.num_banks() < interleave.num_controllers())
    status.note("SimConfig: fewer banks than controllers");
  if (model_lockstep && lockstep_window == 0)
    status.note("SimConfig: lockstep_window must be >= 1");
  unsigned num_sockets = 1;
  if (numa.enabled) {
    status.merge(numa.node.check());
    if (numa.socket >= numa.node.num_sockets)
      status.note("SimConfig: numa.socket " + std::to_string(numa.socket) +
                  " out of range for " + std::to_string(numa.node.num_sockets) +
                  " sockets");
    num_sockets = numa.node.num_sockets;
  }
  status.merge(faults.check(interleave, num_sockets));
  if (numa.enabled && status.ok())
    status.merge(check_numa_connectivity(numa.node, faults));
  if (!fault_schedule.empty()) {
    if (fault_schedule.has_relative()) {
      status.note(
          "SimConfig: fault_schedule has unresolved percent bounds "
          "(resolve them against a run horizon first)");
    } else {
      status.merge(fault_schedule.check(interleave, num_sockets));
      // Baseline + scheduled faults combined must keep a survivor in every
      // epoch (the schedule alone may be fine while the union is not).
      if (status.ok())
        for (const FaultSchedule::Epoch& e :
             fault_schedule.epochs(FaultSchedule::kNever, faults)) {
          if (e.faults.surviving_controllers(interleave).empty()) {
            status.note(
                "SimConfig: baseline faults plus schedule offline every "
                "controller from cycle " + std::to_string(e.begin));
            break;
          }
          if (numa.enabled) {
            if (e.faults.surviving_sockets(num_sockets).empty()) {
              status.note(
                  "SimConfig: baseline faults plus schedule offline every "
                  "socket from cycle " + std::to_string(e.begin));
              break;
            }
            const util::Status conn =
                check_numa_connectivity(numa.node, e.faults);
            if (!conn.ok()) {
              status.note("SimConfig: from cycle " + std::to_string(e.begin) +
                          ": " + conn.error().message);
              break;
            }
          }
        }
    }
  }
  return status;
}

void SimConfig::validate() const { check().throw_if_failed(); }

struct Chip::ThreadState {
  unsigned id = 0;
  unsigned core = 0;
  unsigned group = 0;
  AccessProgram* program = nullptr;

  arch::Cycles time = 0;
  bool done = false;
  std::uint64_t iteration = 0;  ///< lockstep progress counter

  // Batched access fetch.
  std::vector<Access> batch;
  std::size_t batch_pos = 0;
  std::size_t batch_len = 0;

  // Coalescing store buffer: ring of entry-free times.
  std::vector<arch::Cycles> store_slot;
  std::size_t store_head = 0;
  std::uint64_t last_store_line = ~std::uint64_t{0};

  std::uint64_t loads = 0;
  std::uint64_t stores = 0;

  [[nodiscard]] arch::Cycles drain_time() const {
    arch::Cycles t = time;
    for (arch::Cycles s : store_slot) t = std::max(t, s);
    return t;
  }
};

struct Chip::CoreState {
  arch::Cycles fpu_free = 0;
  std::vector<arch::Cycles> ls_free;     // per LS pipe
  std::vector<arch::Cycles> group_free;  // per thread group
};

Chip::~Chip() = default;
Chip::Chip(Chip&&) noexcept = default;
Chip& Chip::operator=(Chip&&) noexcept = default;

Chip::Chip(SimConfig config, arch::Placement placement)
    : cfg_(std::move(config)),
      placement_(std::move(placement)),
      map_(cfg_.interleave) {
  cfg_.validate();
  if (placement_.hw_strand.empty())
    throw std::invalid_argument("Chip: empty placement");
  for (unsigned strand : placement_.hw_strand)
    if (strand >= cfg_.topology.max_threads())
      throw std::invalid_argument("Chip: placement strand out of range");
}

SimResult Chip::run(Workload& workload) {
  util::Expected<SimResult> result = try_run(workload);
  if (!result) throw std::runtime_error(result.error().message);
  return std::move(result.value());
}

util::Expected<SimResult> Chip::try_run(Workload& workload) {
  if (workload.size() != placement_.hw_strand.size())
    throw std::invalid_argument("Chip::run: workload/placement size mismatch");

  // (Re)build all mutable state so repeated runs are independent.
  l2_ = std::make_unique<Cache>(cfg_.topology.l2, Cache::WritePolicy::kWriteBack,
                                cfg_.l2_index_hash);
  l1_.clear();
  for (unsigned c = 0; c < cfg_.topology.num_cores; ++c)
    l1_.emplace_back(cfg_.topology.l1d, Cache::WritePolicy::kWriteThrough);
  // Addresses at or past 2^addr_bits do not fit a modeled cache's tags.
  const unsigned addr_bits =
      cfg_.model_l1 ? std::min(l2_->addr_bits(), l1_.front().addr_bits())
                    : l2_->addr_bits();
  addr_overflow_ = addr_bits >= 64 ? 0 : ~arch::Addr{0} << addr_bits;
  mcs_.clear();
  for (unsigned m = 0; m < cfg_.interleave.num_controllers(); ++m)
    mcs_.emplace_back(cfg_.calibration, cfg_.interleave, 1.0);
  const unsigned sockets = cfg_.numa.enabled ? cfg_.numa.node.num_sockets : 1;
  link_free_.assign(sockets, 0);
  link_stats_.assign(cfg_.numa.enabled ? sockets : 0, SimResult::LinkStats{});
  bank_extra_.assign(cfg_.interleave.num_banks(), 0);
  bank_free_.assign(cfg_.interleave.num_banks(), 0);
  cores_.assign(cfg_.topology.num_cores, CoreState{});
  for (auto& core : cores_) {
    core.ls_free.assign(cfg_.topology.ls_pipes_per_core, 0);
    core.group_free.assign(cfg_.topology.thread_groups_per_core, 0);
  }
  flops_total_ = 0;
  flip_draws_ = 0;
  corrupted_total_ = 0;
  mc_corrupted_.assign(cfg_.interleave.num_controllers(), 0);
  corruption_log_.clear();
  min_iteration_ = 0;
  parked_ = ParkQueue{};
  iter_ring_.assign(cfg_.lockstep_window + 2, 0);

  const unsigned n = num_threads();
  threads_.assign(n, ThreadState{});
  runnable_.reset(n);
  alive_ = n;
  iter_ring_[0] = n;  // every thread starts at iteration 0
  straggle_.assign(n, 0);
  std::uint64_t expected_accesses = 0;
  for (unsigned t = 0; t < n; ++t) {
    ThreadState& ts = threads_[t];
    ts.id = t;
    ts.core = placement_.core_of(t, cfg_.topology);
    ts.group = placement_.group_of(t, cfg_.topology);
    ts.program = workload[t].get();
    ts.batch.resize(256);
    ts.store_slot.assign(cfg_.calibration.store_buffer_entries, 0);
    expected_accesses += ts.program->total_accesses();
    runnable_.set(t, 0);
  }

  // Fault state: epoch 0 of the schedule (the schedule-free case is a single
  // unbounded epoch carrying the baseline faults). Later epochs are applied
  // by advance_epochs() as the event clock crosses their boundaries.
  sched_epochs_ = cfg_.fault_schedule.epochs(FaultSchedule::kNever, cfg_.faults);
  epoch_idx_ = 0;
  epoch_marks_.clear();
  epoch_link_marks_.clear();
  apply_faults(sched_epochs_.front().faults);

  // Timeline sampling state (cadence 0 = off, next_sample_ stays unreachable).
  const arch::Cycles cadence = cfg_.mc_sample_cadence;
  next_sample_ = cadence == 0 ? ~arch::Cycles{0} : cadence;
  sample_prev_.assign(mcs_.size(), McSnapshot{});
  timeline_.clear();
  timeline_truncated_ = false;

  // One span per chip run; args carry thread count and advertised accesses.
  obs::TraceSpan run_span("sim.run", "sim", n, expected_accesses);

  // Watchdog bookkeeping (active when a cycle budget is configured): a
  // workload is aborted with a diagnostic once every runnable thread's clock
  // has passed the budget, or once a program emits more accesses than it
  // advertised (a malformed generator that would never exhaust).
  const auto processed = [this] {
    std::uint64_t total = 0;
    for (const ThreadState& ts : threads_) total += ts.loads + ts.stores;
    return total;
  };

  std::uint64_t steps = 0;
  while (!runnable_.empty()) {
    const arch::Cycles when = runnable_.top_time();
    const unsigned tid = runnable_.top();
    // The tree yields the globally earliest thread, so once its clock passes
    // a fault transition every later reservation is on the far side too:
    // applying the epoch here keeps the timeline consistent. Requests
    // already enqueued drain with the old parameters (in-flight traffic is
    // not reshaped by a transition).
    if (epoch_idx_ + 1 < sched_epochs_.size() &&
        when >= sched_epochs_[epoch_idx_ + 1].begin)
      advance_epochs(when);
    if (when >= next_sample_) advance_samples(when);
    if (cfg_.cycle_budget != 0 && when > cfg_.cycle_budget) {
      obs::trace_instant("sim.watchdog", "sim", when, cfg_.cycle_budget);
      return util::Expected<SimResult>::failure(
          "Chip::run watchdog: cycle budget " +
          std::to_string(cfg_.cycle_budget) + " exceeded at cycle " +
          std::to_string(when) + " with " + std::to_string(processed()) +
          " of " + std::to_string(expected_accesses) +
          " advertised accesses processed");
    }
    ThreadState& ts = threads_[tid];
    // The thread's leaf keeps its old key while it steps; step() may re-arm
    // other leaves (lockstep release) but never reads the tree.
    switch (step(ts)) {
      case StepOutcome::kRan:
        // Clocks only grow, and a thread released during this step was
        // re-armed at most at this thread's clock, so checking the stepped
        // thread keeps every armed key inside the packed range. Past it, a
        // key would lose its high bits and run out of order; a clock that
        // went backwards wrapped the u64 (one thread gets the whole range).
        if (ts.time > runnable_.max_time() || ts.time < when) {
          obs::trace_instant("sim.clock_range", "sim", ts.time,
                             runnable_.max_time());
          return util::Expected<SimResult>::failure(
              "Chip::run: clock exceeds scheduler range: thread " +
              std::to_string(tid) + " reached cycle " + std::to_string(ts.time) +
              " (limit " + std::to_string(runnable_.max_time()) + ")");
        }
        runnable_.set(tid, ts.time);
        break;
      case StepOutcome::kParked:
      case StepOutcome::kDone:
        runnable_.idle(tid);  // other bookkeeping happened inside step()
        break;
      case StepOutcome::kAddrRange: {
        // The next access would need a tag wider than the caches' 32 bits;
        // truncating it would alias another line.
        const arch::Addr addr = ts.batch[ts.batch_pos].addr;
        obs::trace_instant("sim.addr_range", "sim", addr, addr_bits);
        return util::Expected<SimResult>::failure(
            "Chip::run: address exceeds cache tag range: thread " +
            std::to_string(tid) + " accessed address " + std::to_string(addr) +
            " (tags cover addresses below 2^" + std::to_string(addr_bits) + ")");
      }
    }
    // The runaway-program check is amortized: scanning thread counters every
    // step would cost O(threads) per access.
    if (cfg_.cycle_budget != 0 && (++steps & 1023) == 0 &&
        processed() > expected_accesses) {
      return util::Expected<SimResult>::failure(
          "Chip::run watchdog: workload emitted more than its advertised " +
          std::to_string(expected_accesses) + " accesses");
    }
  }
  if (!parked_.empty()) {
    obs::trace_instant("sim.deadlock", "sim", parked_.size(), 0);
    return util::Expected<SimResult>::failure(
        "Chip::run: lockstep deadlock (parked threads remain)");
  }

  SimResult result;
  result.clock_ghz = cfg_.topology.clock_ghz;
  result.thread_finish.resize(n);
  for (unsigned t = 0; t < n; ++t) {
    result.thread_finish[t] = threads_[t].drain_time();
    result.total_cycles = std::max(result.total_cycles, result.thread_finish[t]);
    result.loads += threads_[t].loads;
    result.stores += threads_[t].stores;
  }
  result.accesses = result.loads + result.stores;
  result.flops = flops_total_;
  for (const Cache& l1 : l1_) {
    result.l1.hits += l1.stats().hits;
    result.l1.misses += l1.stats().misses;
    result.l1.evictions += l1.stats().evictions;
    result.l1.writebacks += l1.stats().writebacks;
  }
  result.l2 = l2_->stats();
  std::uint64_t mem_reads = 0;
  std::uint64_t mem_writes = 0;
  for (MemoryController& mc : mcs_) {
    result.mc.push_back(mc.stats());
    mem_reads += mc.stats().reads;
    mem_writes += mc.stats().writes;
    // The chip is done only after write-backs drain.
    result.total_cycles = std::max(result.total_cycles, mc.stats().last_completion);
  }
  result.mem_read_bytes = mem_reads * cfg_.interleave.line_size();
  result.mem_write_bytes = mem_writes * cfg_.interleave.line_size();
  if (cfg_.numa.enabled) {
    std::uint64_t remote_fills = 0;
    std::uint64_t remote_wbs = 0;
    for (const SimResult::LinkStats& link : link_stats_) {
      remote_fills += link.fills;
      remote_wbs += link.writebacks;
      // The chip is done only after in-flight link transfers drain.
      result.total_cycles = std::max(result.total_cycles, link.last_completion);
    }
    result.links = link_stats_;
    result.remote_read_bytes = remote_fills * cfg_.interleave.line_size();
    result.remote_write_bytes = remote_wbs * cfg_.interleave.line_size();
    // Remote lines never touch a local controller, so fold them into the
    // traffic totals here (memory_bandwidth() must count all lines moved).
    result.mem_read_bytes += result.remote_read_bytes;
    result.mem_write_bytes += result.remote_write_bytes;
  }
  result.degraded = cfg_.faults.any() || !cfg_.fault_schedule.empty();
  result.corrupted_reads = corrupted_total_;
  result.mc_corrupted_reads = mc_corrupted_;
  result.corruption_log = corruption_log_;
  result.mc_utilization.resize(result.mc.size(), 0.0);
  if (result.total_cycles != 0)
    for (std::size_t m = 0; m < result.mc.size(); ++m)
      result.mc_utilization[m] =
          static_cast<double>(result.mc[m].busy_cycles) /
          static_cast<double>(result.total_cycles);

  // Timeline: close out whole rows the drain phase crossed, then a final
  // partial row up to total_cycles so busy totals are conserved.
  if (cfg_.mc_sample_cadence != 0) {
    advance_samples(result.total_cycles);
    const arch::Cycles begin = next_sample_ - cfg_.mc_sample_cadence;
    if (!timeline_truncated_ && result.total_cycles > begin) {
      obs::McSample row;
      row.begin = begin;
      row.end = result.total_cycles;
      row.utilization.resize(mcs_.size(), 0.0);
      for (std::size_t m = 0; m < mcs_.size(); ++m) {
        // Same burst-carry rule as advance_samples(); the run is over, so
        // anything still unattributed lands in this final partial row.
        const arch::Cycles busy = mcs_[m].stats().busy_cycles;
        const arch::Cycles take =
            std::min(busy - sample_prev_[m].busy_cycles, row.length());
        row.utilization[m] =
            static_cast<double>(take) / static_cast<double>(row.length());
        sample_prev_[m].busy_cycles += take;
      }
      timeline_.push_back(std::move(row));
    }
    result.mc_timeline = std::move(timeline_);
    result.mc_timeline_truncated = timeline_truncated_;
    timeline_.clear();
  }

  // Per-epoch breakdown: deltas between the boundary snapshots (epoch k ends
  // at snapshot k; the last entered epoch ends at total_cycles with the
  // final counters). Epochs the run never reached are omitted.
  if (!cfg_.fault_schedule.empty()) {
    const std::size_t line = cfg_.interleave.line_size();
    std::vector<McSnapshot> prev(mcs_.size());
    std::vector<SimResult::LinkStats> link_prev(link_stats_.size());
    for (std::size_t k = 0; k <= epoch_idx_; ++k) {
      SimResult::EpochStats epoch;
      epoch.begin = sched_epochs_[k].begin;
      epoch.end = k < epoch_idx_ ? sched_epochs_[k + 1].begin
                                 : std::max(result.total_cycles,
                                            sched_epochs_[k].begin);
      epoch.faults = sched_epochs_[k].faults.describe();
      const std::vector<McSnapshot>* cut = nullptr;
      std::vector<McSnapshot> final_snap(mcs_.size());
      const std::vector<SimResult::LinkStats>* link_cut = nullptr;
      if (k < epoch_idx_) {
        cut = &epoch_marks_[k];
        link_cut = &epoch_link_marks_[k];
      } else {
        for (std::size_t m = 0; m < mcs_.size(); ++m)
          final_snap[m] = {mcs_[m].stats().reads, mcs_[m].stats().writes,
                           mcs_[m].stats().busy_cycles};
        cut = &final_snap;
        link_cut = &link_stats_;
      }
      epoch.mc_utilization.resize(mcs_.size(), 0.0);
      std::uint64_t lines_moved = 0;
      for (std::size_t m = 0; m < mcs_.size(); ++m) {
        const std::uint64_t dr = (*cut)[m].reads - prev[m].reads;
        const std::uint64_t dw = (*cut)[m].writes - prev[m].writes;
        lines_moved += dr + dw;
        epoch.mem_read_bytes += dr * line;
        epoch.mem_write_bytes += dw * line;
        if (epoch.length() != 0)
          epoch.mc_utilization[m] =
              static_cast<double>((*cut)[m].busy_cycles - prev[m].busy_cycles) /
              static_cast<double>(epoch.length());
      }
      epoch.link_utilization.resize(link_cut->size(), 0.0);
      for (std::size_t t = 0; t < link_cut->size(); ++t) {
        const std::uint64_t dr = (*link_cut)[t].fills - link_prev[t].fills;
        const std::uint64_t dw =
            (*link_cut)[t].writebacks - link_prev[t].writebacks;
        lines_moved += dr + dw;
        epoch.remote_read_bytes += dr * line;
        epoch.remote_write_bytes += dw * line;
        if (epoch.length() != 0)
          epoch.link_utilization[t] =
              static_cast<double>((*link_cut)[t].busy_cycles -
                                  link_prev[t].busy_cycles) /
              static_cast<double>(epoch.length());
      }
      // Remote lines moved as part of this epoch's traffic too.
      epoch.mem_read_bytes += epoch.remote_read_bytes;
      epoch.mem_write_bytes += epoch.remote_write_bytes;
      if (epoch.length() != 0 && result.clock_ghz > 0.0)
        epoch.bandwidth = static_cast<double>(lines_moved * line) /
                          arch::cycles_to_seconds(epoch.length(), result.clock_ghz);
      prev = *cut;
      link_prev = *link_cut;
      result.epochs.push_back(std::move(epoch));
    }
  }
  return result;
}

void Chip::apply_faults(const FaultSpec& active) {
  mc_remap_ = active.controller_remap(cfg_.interleave);
  // A derated socket slows its own controllers uniformly on top of any
  // per-controller derate (remote fills from it are scaled in the routes).
  const double socket_factor =
      cfg_.numa.enabled ? active.socket_derate_of(cfg_.numa.socket) : 1.0;
  for (unsigned m = 0; m < static_cast<unsigned>(mcs_.size()); ++m)
    mcs_[m].set_rate_factor(active.derate_of(m) * socket_factor);
  if (cfg_.numa.enabled) {
    const NumaRoutes routes =
        resolve_numa_routes(cfg_.numa.node, active, cfg_.numa.socket);
    home_serving_ = routes.home_serving;
    serve_latency_ = routes.latency;
    serve_line_cycles_ = routes.line_cycles;
  }
  for (unsigned b = 0; b < static_cast<unsigned>(bank_extra_.size()); ++b)
    bank_extra_[b] = active.bank_extra(b);
  for (unsigned t = 0; t < static_cast<unsigned>(straggle_.size()); ++t)
    straggle_[t] = active.straggle_of(t);
  flip_rate_.assign(mcs_.size(), 0.0);
  for (unsigned m = 0; m < static_cast<unsigned>(mcs_.size()); ++m)
    flip_rate_[m] = active.flip_rate_of(m);
}

void Chip::advance_epochs(arch::Cycles now) {
  while (epoch_idx_ + 1 < sched_epochs_.size() &&
         now >= sched_epochs_[epoch_idx_ + 1].begin) {
    std::vector<McSnapshot> snap(mcs_.size());
    for (std::size_t m = 0; m < mcs_.size(); ++m)
      snap[m] = {mcs_[m].stats().reads, mcs_[m].stats().writes,
                 mcs_[m].stats().busy_cycles};
    epoch_marks_.push_back(std::move(snap));
    epoch_link_marks_.push_back(link_stats_);
    ++epoch_idx_;
    apply_faults(sched_epochs_[epoch_idx_].faults);
    obs::trace_instant("sim.epoch", "sim", epoch_idx_,
                       sched_epochs_[epoch_idx_].begin);
  }
}

void Chip::advance_samples(arch::Cycles now) {
  const arch::Cycles cadence = cfg_.mc_sample_cadence;
  while (next_sample_ <= now) {
    if (timeline_.size() >= kTimelineRowCap) {
      // Cap hit: drop the tail, park the boundary out of reach so the event
      // loop stops paying for the check.
      timeline_truncated_ = true;
      next_sample_ = ~arch::Cycles{0};
      return;
    }
    obs::McSample row;
    row.begin = next_sample_ - cadence;
    row.end = next_sample_;
    row.utilization.resize(mcs_.size(), 0.0);
    for (std::size_t m = 0; m < mcs_.size(); ++m) {
      // A burst's full service is charged to busy_cycles at dispatch, so a
      // boundary can cut mid-burst with more busy than the row holds: cap
      // the row at 1.0 and carry the excess into the next row (sample_prev_
      // only advances by what was attributed, keeping totals conserved).
      const arch::Cycles busy = mcs_[m].stats().busy_cycles;
      const arch::Cycles take =
          std::min(busy - sample_prev_[m].busy_cycles, cadence);
      row.utilization[m] =
          static_cast<double>(take) / static_cast<double>(cadence);
      sample_prev_[m].busy_cycles += take;
    }
    timeline_.push_back(std::move(row));
    next_sample_ += cadence;
  }
}

arch::Cycles Chip::link_transfer(arch::Cycles when, unsigned target,
                                 bool is_writeback) {
  // One earliest-start port per peer socket: every line (fill or write-back)
  // occupies it for the surviving path's per-line cycles. Serializing both
  // directions on one port is the link's bandwidth cap — the asymmetry the
  // cross-socket sweep measures.
  const arch::Cycles start = std::max(link_free_[target], when);
  const arch::Cycles done = start + serve_line_cycles_[target];
  link_free_[target] = done;
  SimResult::LinkStats& stats = link_stats_[target];
  (is_writeback ? stats.writebacks : stats.fills) += 1;
  stats.busy_cycles += serve_line_cycles_[target];
  stats.last_completion = std::max(stats.last_completion, done);
  return done;
}

arch::Cycles Chip::miss_to_l2(arch::Cycles when, arch::Addr addr, bool is_store) {
  const arch::Calibration& cal = cfg_.calibration;
  const bool numa = cfg_.numa.enabled;
  const unsigned self = cfg_.numa.socket;
  // L2 bank occupancy (remote lines are cached locally, so they occupy the
  // local bank like any other line).
  const unsigned bank = map_.global_bank_of(addr);
  const arch::Cycles bank_start = std::max(bank_free_[bank], when);
  bank_free_[bank] = bank_start + cal.l2_bank_busy + bank_extra_[bank];

  const CacheOutcome outcome = is_store ? l2_->store(addr) : l2_->load(addr);
  if (outcome.writeback_line != CacheOutcome::kNoEviction) {
    // Asynchronous write-back of the evicted dirty line; consumes write
    // bandwidth on the evicted line's serving side but blocks nobody.
    const unsigned wb_serving =
        numa ? home_serving_[cfg_.numa.node.home_socket_of(
                   outcome.writeback_line)]
             : self;
    if (numa && wb_serving != self) {
      link_transfer(bank_start, wb_serving, /*is_writeback=*/true);
    } else {
      mcs_[mc_remap_[map_.controller_of(outcome.writeback_line)]].request(
          bank_start, /*is_write=*/true, outcome.writeback_line);
    }
  }
  if (outcome.hit) return bank_start + cal.l2_hit_latency;

  // L2 miss: line fetch (an RFO read when triggered by a store, since the L2
  // is write-allocate).
  const unsigned home_serving =
      numa ? home_serving_[cfg_.numa.node.home_socket_of(addr)] : self;
  if (numa && home_serving != self) {
    // Remote fill: serialize on the link port, then pay DRAM latency plus
    // the path's extra fill latency. The peer's controller occupancy is
    // folded into the per-line link cost; flip faults are per local
    // controller and do not apply.
    const arch::Cycles transfer_done =
        link_transfer(bank_start, home_serving, /*is_writeback=*/false);
    return std::max(transfer_done,
                    bank_start + cal.mem_latency + serve_latency_[home_serving]);
  }
  // Local fill: DRAM latency overlaps the controller's queue — the requester
  // sees whichever is later, queue drain or latency. Offline controllers are
  // remapped to their designated survivor.
  const unsigned serving = mc_remap_[map_.controller_of(addr)];
  MemoryController& mc = mcs_[serving];
  const arch::Cycles service_done = mc.request(bank_start, /*is_write=*/false, addr);
  maybe_flip(bank_start, addr, serving);
  return std::max(service_done, bank_start + cal.mem_latency);
}

void Chip::maybe_flip(arch::Cycles when, arch::Addr addr, unsigned controller) {
  const double rate = flip_rate_[controller];
  if (rate <= 0.0) return;
  // Counter-mode splitmix64: draw k is a pure function of (flip_seed, k), so
  // the corruption pattern is independent of event-loop interleaving details
  // and replays exactly.
  std::uint64_t state = cfg_.flip_seed + ++flip_draws_;
  const double u =
      static_cast<double>(util::splitmix64(state) >> 11) * 0x1.0p-53;
  if (u >= rate) return;
  ++corrupted_total_;
  ++mc_corrupted_[controller];
  if (corruption_log_.size() < SimResult::kCorruptionLogCap)
    corruption_log_.push_back({when, addr, controller});
}

void Chip::advance_min_iteration(arch::Cycles now) {
  // Running iterations span at most [min, min + window], so the first
  // occupied ring slot is at most window + 1 steps away.
  const std::size_t ring = iter_ring_.size();
  while (alive_ != 0 && iter_ring_[min_iteration_ % ring] == 0) ++min_iteration_;
  while (!parked_.empty() &&
         parked_.top().first <= min_iteration_ + cfg_.lockstep_window) {
    const unsigned tid = parked_.top().second;
    parked_.pop();
    ThreadState& ts = threads_[tid];
    ts.time = std::max(ts.time, now);
    runnable_.set(tid, ts.time);
  }
}

Chip::StepOutcome Chip::step(ThreadState& ts) {
  // Refill the batch if needed.
  if (ts.batch_pos == ts.batch_len) {
    ts.batch_len = ts.program->next_batch(ts.batch);
    ts.batch_pos = 0;
    if (ts.batch_len == 0) {
      // Program exhausted: retire the thread from lockstep accounting.
      ts.done = true;
      --alive_;
      if (cfg_.model_lockstep) {
        --iter_ring_[ts.iteration % iter_ring_.size()];
        if (alive_ != 0 && ts.iteration == min_iteration_)
          advance_min_iteration(ts.time);
      }
      return StepOutcome::kDone;
    }
  }

  // Lockstep gate: peek before consuming.
  if (cfg_.model_lockstep && ts.batch[ts.batch_pos].begins_iteration) {
    const std::uint64_t next = ts.iteration + 1;
    if (next > min_iteration_ + cfg_.lockstep_window) {
      parked_.emplace(next, ts.id);
      return StepOutcome::kParked;
    }
  }

  if ((ts.batch[ts.batch_pos].addr & addr_overflow_) != 0)
    return StepOutcome::kAddrRange;
  const Access a = ts.batch[ts.batch_pos++];
  // Straggler-strand fault: the thread loses extra cycles on every access.
  ts.time += straggle_[ts.id];
  if (a.begins_iteration) {
    const std::uint64_t prev = ts.iteration++;
    if (cfg_.model_lockstep) {
      const std::size_t ring = iter_ring_.size();
      --iter_ring_[prev % ring];
      ++iter_ring_[ts.iteration % ring];
      if (prev == min_iteration_ && iter_ring_[prev % ring] == 0)
        advance_min_iteration(ts.time);
    }
  }

  const arch::Calibration& cal = cfg_.calibration;
  CoreState& core = cores_[ts.core];

  // Floating-point work preceding this access serializes on the core FPU.
  if (a.flops_before != 0) {
    flops_total_ += a.flops_before;
    if (cfg_.model_fpu) {
      const arch::Cycles start = std::max(core.fpu_free, ts.time);
      core.fpu_free = start + a.flops_before * cal.fp_op_cost;
      ts.time = core.fpu_free;
    }
  }

  arch::Cycles issue = ts.time;
  if (cfg_.model_issue) {
    // One instruction per cycle per thread group...
    arch::Cycles& group = core.group_free[ts.group];
    issue = std::max(group, ts.time);
    group = issue + cal.issue_cost;
    // ...and an LS pipe slot (two pipes shared by the whole core).
    auto pipe = std::min_element(core.ls_free.begin(), core.ls_free.end());
    issue = std::max(issue, *pipe);
    *pipe = issue + 1;
    ts.time = issue + cal.issue_cost;
  }

  if (a.op == Op::kLoad) {
    ++ts.loads;
    if (cfg_.model_l1) {
      const CacheOutcome l1 = l1_[ts.core].load(a.addr);
      if (l1.hit) return StepOutcome::kRan;  // hit under the single miss
    }
    // Single outstanding miss: the strand blocks until the fill returns.
    ts.time = miss_to_l2(issue, a.addr, /*is_store=*/false);
    return StepOutcome::kRan;
  }

  // Store path: write-through L1 (update-on-hit costs nothing extra),
  // then the coalescing store buffer.
  ++ts.stores;
  if (cfg_.model_l1) (void)l1_[ts.core].store(a.addr);
  const std::uint64_t line = a.addr >> cfg_.interleave.line_bits;
  if (cfg_.model_store_buffer && line == ts.last_store_line)
    return StepOutcome::kRan;  // coalesced with the youngest buffered store
  ts.last_store_line = line;

  if (cfg_.model_store_buffer) {
    arch::Cycles& slot = ts.store_slot[ts.store_head];
    ts.store_head = (ts.store_head + 1) % ts.store_slot.size();
    if (slot > ts.time) ts.time = slot;  // buffer full: strand stalls
    const arch::Cycles drain_at = std::max(issue, ts.time);
    // Entry occupies the buffer until the L2 write (incl. RFO) completes.
    slot = miss_to_l2(drain_at, a.addr, /*is_store=*/true);
  } else {
    (void)miss_to_l2(issue, a.addr, /*is_store=*/true);
  }
  return StepOutcome::kRan;
}

}  // namespace mcopt::sim
