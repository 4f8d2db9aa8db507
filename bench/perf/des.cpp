// DES workloads: the paper's reproduction path on sim::Chip, and the
// multi-socket sim::Node. All their time is in the simulators' event loops;
// neither enters the runtime.
//
// A lap is one pass over a fixed list of sweep points, run in a seeded
// order. Each point builds its access programs (perf.build), simulates them
// (perf.sim) and evaluates the analytic model at the same configuration
// (perf.analytic). The simulated results are exact integers, so every lap
// must reproduce the first one bit for bit, and sim_digest (CRC32C of the
// per-point stats in canonical order) lets a speed-only change show it
// simulates exactly what its parent did.

#include <array>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "kernels/jacobi.h"
#include "kernels/stream.h"
#include "kernels/triad.h"
#include "seg/planner.h"
#include "sim/analytic.h"
#include "sim/chip.h"
#include "sim/node.h"
#include "util/crc.h"
#include "util/prng.h"

namespace mcopt::perf {
namespace {

/// The exact integers one simulated point produced.
using PointStats = std::array<std::uint64_t, 6>;

std::uint64_t program_accesses(const sim::Workload& wl) {
  std::uint64_t total = 0;
  for (const auto& p : wl) total += p->total_accesses();
  return total;
}

PointStats stats_of(const sim::SimResult& r) {
  return {r.total_cycles,      r.accesses,          r.mem_read_bytes,
          r.mem_write_bytes,   r.remote_read_bytes, r.remote_write_bytes};
}

[[nodiscard]] bool finite_rate(double bandwidth) {
  return std::isfinite(bandwidth) && bandwidth > 0.0;
}

/// Shared lap loop and bookkeeping of both DES workloads: the first lap's
/// stats as the determinism reference, gate counts, model errors.
class DesBase : public Workload {
 public:
  Lap lap(TraceWindow& window, HostSpeed& speed) final {
    Lap out;
    lap_stats_.assign(points(), PointStats{});
    const ActiveTimer timer(speed);
    window.open();
    for (const std::size_t i : order_) {
      const Clock::time_point p0 = Clock::now();
      const Point res = run_point(i);
      const double secs = seconds_between(p0, Clock::now());
      ++attempted_;
      if (!res.gates_ok) ++failed_;
      if (!window.recording()) out.latency_s.push_back(secs);
      lap_stats_[i] = res.stats;
      out.ops += static_cast<double>(res.stats[1]);
      speed.quiesced();
    }
    window.close(out.ops);
    out.seconds = timer.seconds();
    if (first_lap_.empty()) {
      first_lap_ = lap_stats_;
    } else if (lap_stats_ != first_lap_) {
      ++nondeterministic_laps_;
    }
    return out;
  }

 protected:
  explicit DesBase(const Options& opt) : opt_(opt) {}

  struct Point {
    PointStats stats{};
    /// Access conservation and finite rates held.
    bool gates_ok = false;
  };

  [[nodiscard]] virtual std::size_t points() const = 0;
  [[nodiscard]] virtual Point run_point(std::size_t index) = 0;

  /// Seeded allocation shift: the arrays land at a different 1 MiB-aligned
  /// spot per seed (as an allocator would place them), which keeps every
  /// controller/bank alignment the sweep is about.
  [[nodiscard]] arch::Addr seeded_shift() const {
    util::Xoshiro256 rng(opt_.seed * 0x9e3779b97f4a7c15ULL + 11);
    return rng.below(64) << 20;
  }

  /// Seeded visiting order of the points.
  void seed_order() {
    order_.resize(points());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    util::Xoshiro256 rng(opt_.seed * 0x9e3779b97f4a7c15ULL + 23);
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[rng.below(i)]);
  }

  /// Records |analytic - DES| / DES of one point.
  void model_error(std::size_t index, double model, double des) {
    model_error_pct_[index] = std::abs(model - des) / des * 100.0;
  }

  /// Gates, digest and the metrics both DES workloads share.
  void finish_common(Report& r, const Layers* layers) {
    r.count_attempted(attempted_);
    r.count_failed(failed_);
    r.gate("des.point_gates", failed_ == 0,
           std::to_string(failed_) + " of " + std::to_string(attempted_) +
               " points broke access conservation or produced a non-finite "
               "rate");
    r.gate("des.laps_identical", nondeterministic_laps_ == 0,
           std::to_string(nondeterministic_laps_) +
               " laps simulated different stats than the first");
    util::Crc32c crc;
    std::uint64_t accesses = 0, bytes = 0, remote = 0;
    for (const PointStats& s : first_lap_) {
      crc.update(s.data(), sizeof(s));
      accesses += s[1];
      bytes += s[2] + s[3];
      remote += s[4] + s[5];
    }
    r.digest("sim_digest", crc.value());
    r.metric("sim.accesses", static_cast<double>(accesses), "count");
    r.metric("sim.mem_bytes", static_cast<double>(bytes), "B");
    r.metric("sim.remote_bytes", static_cast<double>(remote), "B");
    double err = 0.0;
    for (const auto& [i, pct] : model_error_pct_) err += pct;
    r.metric("sim.model_error_pct",
             model_error_pct_.empty()
                 ? 0.0
                 : err / static_cast<double>(model_error_pct_.size()),
             "%");
    if (layers == nullptr) return;
    // Host cost of the traced lap's simulator and program-building layers.
    const double sim_s = layers->scale * layers->driver_self({"perf.sim", "sim.run"});
    r.metric("sim.run_s", sim_s, "s");
    r.metric("sim.ns_per_access",
             accesses ? sim_s * 1e9 / static_cast<double>(accesses) : 0.0, "ns");
    r.metric("trace.build_s", layers->scale * layers->driver_self({"perf.build"}),
             "s");
    r.metric("kernels.triad_ns_per_elem", triad_ns_per_elem(4096), "ns");
  }

  Options opt_;
  std::vector<std::size_t> order_;

 private:
  std::vector<PointStats> lap_stats_;
  std::vector<PointStats> first_lap_;
  std::map<std::size_t, double> model_error_pct_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t nondeterministic_laps_ = 0;
};

// ---------------------------------------------------------------------------
// des-chip: the Fig. 2 STREAM-triad offset sweep and the Fig. 6 Jacobi N
// sweep (both schedules) of the fig2/fig6 benches' default ranges, one
// 64-strand chip.

class DesChip final : public DesBase {
 public:
  explicit DesChip(const Options& opt) : DesBase(opt) {
    triad_n_ = opt.smoke ? std::size_t{1} << 12 : std::size_t{1} << 19;
    for (std::size_t off = 0; off <= 256; off += opt.smoke ? 128 : 8)
      sweep_.push_back({Kind::kTriad, off});
    const std::size_t n_hi = opt.smoke ? 128 : 1024;
    for (std::size_t n = opt.smoke ? 64 : 128; n <= n_hi; n += opt.smoke ? 64 : 128) {
      sweep_.push_back({Kind::kJacobiOptimal, n});
      sweep_.push_back({Kind::kJacobiPlain, n});
    }
  }

  void setup() override {
    base_ = (arch::Addr{1} << 32) + seeded_shift();
    seed_order();
    chip_ = std::make_unique<sim::Chip>(
        cfg_, arch::equidistant_placement(kThreads, cfg_.topology));
    // Warm-up on a small triad: faults in the simulator's code, its cache
    // arrays and the allocator arenas before anything is timed.
    auto wl = kernels::make_stream_workload(
        kernels::StreamOp::kTriad,
        kernels::common_block_bases(base_, triad_n_ / 16, 0), triad_n_ / 16,
        kThreads, sched::Schedule::static_block());
    (void)chip_->run(wl);
  }

  void finish(Report& r, const Layers* layers) override {
    finish_common(r, layers);
    if (layers == nullptr) return;
    const auto streams = triad_streams(0);
    r.metric("sim.analytic.estimate_us",
             1e6 * side_time([&] { (void)estimate(streams); }), "us");
    std::vector<runtime::exec::JobSpec> shapes;
    for (const SweepPoint& p : sweep_) {
      runtime::exec::JobSpec spec;
      spec.kind = p.kind == Kind::kTriad ? runtime::exec::JobKind::kTriad
                                         : runtime::exec::JobKind::kJacobi;
      spec.n = p.kind == Kind::kTriad ? triad_n_ : p.param;
      shapes.push_back(spec);
    }
    r.metric("runtime.exec.price_ns", price_ns(shapes), "ns");
    r.metric("runtime.exec.estimate_ns", estimate_ns(shapes), "ns");
  }

 private:
  enum class Kind { kTriad, kJacobiOptimal, kJacobiPlain };
  struct SweepPoint {
    Kind kind = Kind::kTriad;
    std::size_t param = 0;  ///< triad: array offset (DP words); Jacobi: N
  };
  static constexpr unsigned kThreads = 64;

  std::size_t points() const override { return sweep_.size(); }

  Point run_point(std::size_t index) override {
    const SweepPoint& p = sweep_[index];
    if (p.kind == Kind::kTriad) return run_triad(index, p.param);
    return run_jacobi(p);
  }

  std::vector<sim::AnalyticStream> triad_streams(std::size_t offset) const {
    const auto bases = kernels::common_block_bases(base_, triad_n_, offset);
    std::vector<sim::AnalyticStream> logical;
    for (const auto& d : kernels::stream_descs(kernels::StreamOp::kTriad, bases))
      logical.push_back({d.base, d.write});
    return sim::expand_rfo(logical);
  }

  sim::AnalyticEstimate estimate(
      const std::vector<sim::AnalyticStream>& streams) const {
    return sim::estimate_bandwidth(streams, kThreads, cfg_.calibration, map_,
                                   cfg_.topology.clock_ghz);
  }

  Point run_triad(std::size_t index, std::size_t offset) {
    sim::Workload wl;
    std::uint64_t expected = 0;
    {
      const obs::TraceSpan span("perf.build", "perf", offset, triad_n_);
      wl = kernels::make_stream_workload(
          kernels::StreamOp::kTriad,
          kernels::common_block_bases(base_, triad_n_, offset), triad_n_,
          kThreads, sched::Schedule::static_block());
      expected = program_accesses(wl);
    }
    sim::SimResult res;
    {
      const obs::TraceSpan span("perf.sim", "perf", offset, 0);
      res = chip_->run(wl);
    }
    {
      const obs::TraceSpan span("perf.analytic", "perf", offset, 0);
      model_error(index, estimate(triad_streams(offset)).bandwidth,
                  res.memory_bandwidth());
    }
    return {stats_of(res),
            res.accesses == expected && finite_rate(res.memory_bandwidth())};
  }

  Point run_jacobi(const SweepPoint& p) {
    const bool optimal = p.kind == Kind::kJacobiOptimal;
    trace::VirtualArena arena(base_);
    // The programs point into `grids`, which must outlive the run.
    std::optional<kernels::VirtualJacobi> grids;
    sim::Workload wl;
    std::uint64_t expected = 0;
    {
      const obs::TraceSpan span("perf.build", "perf", p.param, optimal);
      grids.emplace(kernels::make_virtual_jacobi(
          arena, p.param,
          optimal ? kernels::jacobi_optimal_spec(map_)
                  : kernels::jacobi_plain_spec()));
      wl = trace::make_jacobi_workload(
          grids->grids(), kThreads,
          optimal ? sched::Schedule::static_chunk(1)
                  : sched::Schedule::static_block(),
          1);
      expected = program_accesses(wl);
    }
    const obs::TraceSpan span("perf.sim", "perf", p.param, optimal);
    const sim::SimResult res = chip_->run(wl);
    return {stats_of(res),
            res.accesses == expected && finite_rate(res.memory_bandwidth())};
  }

  sim::SimConfig cfg_{};
  arch::AddressMap map_{cfg_.interleave};
  std::size_t triad_n_ = 0;
  std::vector<SweepPoint> sweep_;
  arch::Addr base_ = 0;
  std::unique_ptr<sim::Chip> chip_;
};

// ---------------------------------------------------------------------------
// des-node: one 4-socket node, 31 strands per socket (de-resonated: a
// period-aligned per-strand chunk would convoy, DESIGN §4j), a triad per
// socket under four placements.

class DesNode final : public DesBase {
 public:
  explicit DesNode(const Options& opt) : DesBase(opt) {
    cfg_.node.num_sockets = kSockets;
    n_ = opt.smoke ? std::size_t{1} << 12 : std::size_t{1} << 18;
    sweeps_ = opt.smoke ? 1 : 2;
  }

  void setup() override {
    cfg_.validate();
    seed_order();
    shift_ = seeded_shift();
    for (unsigned p = 0; p < kPlacements; ++p) bases_[p] = placement_bases(p);
    node_ = std::make_unique<sim::Node>(cfg_);
    // Warm-up: one sweep of the local placement at an eighth of the size.
    std::vector<sim::Workload> wls(kSockets);
    for (unsigned s = 0; s < kSockets; ++s)
      wls[s] = kernels::make_triad_workload(bases_[0][s], n_ / 8, kThreads,
                                            sched::Schedule::static_block());
    (void)node_->run(wls);
  }

  void finish(Report& r, const Layers* layers) override {
    finish_common(r, layers);
    if (layers == nullptr) return;
    r.metric("sim.analytic.estimate_us",
             1e6 * side_time([&] { (void)estimate(0); }), "us");
    runtime::exec::JobSpec spec;
    spec.kind = runtime::exec::JobKind::kTriad;
    spec.n = n_;
    spec.iterations = sweeps_;
    r.metric("runtime.exec.price_ns", price_ns({spec}), "ns");
    r.metric("runtime.exec.estimate_ns", estimate_ns({spec}), "ns");
  }

 private:
  static constexpr unsigned kSockets = 4;
  static constexpr unsigned kThreads = 31;
  static constexpr unsigned kPlacements = 4;  // local, interleaved, remote, first-touch

  std::size_t points() const override { return kPlacements; }

  Point run_point(std::size_t p) override {
    std::vector<sim::Workload> wls(kSockets);
    std::vector<std::uint64_t> expected(kSockets, 0);
    {
      const obs::TraceSpan span("perf.build", "perf", p, n_);
      for (unsigned s = 0; s < kSockets; ++s) {
        wls[s] = kernels::make_triad_workload(
            bases_[p][s], n_, kThreads, sched::Schedule::static_block(), sweeps_);
        expected[s] = program_accesses(wls[s]);
      }
    }
    sim::NodeResult res;
    {
      const obs::TraceSpan span("perf.sim", "perf", p, 0);
      res = node_->run(wls);
    }
    {
      const obs::TraceSpan span("perf.analytic", "perf", p, 0);
      model_error(p, estimate(p).bandwidth, res.memory_bandwidth());
    }

    // Gates: per-socket access conservation, node totals == sum of the
    // sockets, finite rates.
    Point out;
    out.gates_ok = finite_rate(res.memory_bandwidth());
    out.stats = {res.total_cycles,      0,
                 res.mem_read_bytes,    res.mem_write_bytes,
                 res.remote_read_bytes, res.remote_write_bytes};
    std::uint64_t rd = 0, wr = 0, rrd = 0, rwr = 0;
    for (unsigned s = 0; s < kSockets; ++s) {
      const sim::SimResult& sr = res.sockets[s];
      out.gates_ok = out.gates_ok && sr.accesses == expected[s];
      out.stats[1] += sr.accesses;
      rd += sr.mem_read_bytes;
      wr += sr.mem_write_bytes;
      rrd += sr.remote_read_bytes;
      rwr += sr.remote_write_bytes;
    }
    out.gates_ok = out.gates_ok && rd == res.mem_read_bytes &&
                   wr == res.mem_write_bytes && rrd == res.remote_read_bytes &&
                   rwr == res.remote_write_bytes;
    return out;
  }

  /// Per-socket triad bases (A, B, C, D) of placement p. local: own domain;
  /// interleaved: array k of socket s homed in domain (s+k) % S; remote:
  /// domain (s+1) % S; first-touch: every array in domain 0 (the serial-init
  /// pitfall). Co-homed arrays are spread over the controller stride so the
  /// placements differ in distance, not in accidental aliasing.
  std::vector<std::vector<arch::Addr>> placement_bases(unsigned p) const {
    const arch::AddressMap map(cfg_.sim.interleave);
    const seg::StreamPlan plan = seg::plan_stream_offsets(4, map);
    const std::size_t period = map.spec().period_bytes();
    const std::size_t stride = period / map.spec().num_controllers();
    std::array<unsigned, kSockets> homed{};
    std::vector<std::vector<arch::Addr>> bases(kSockets);
    for (unsigned s = 0; s < kSockets; ++s) {
      for (unsigned k = 0; k < 4; ++k) {
        const unsigned home = p == 0   ? s
                              : p == 1 ? (s + k) % kSockets
                              : p == 2 ? (s + 1) % kSockets
                                       : 0;
        const unsigned rotation = homed[home]++;
        const arch::Addr slot = cfg_.node.socket_base(home) + shift_ +
                                rotation * ((arch::Addr{1} << 24) + 8192);
        const std::size_t off = (plan.offsets[k] + rotation * stride) % period;
        bases[s].push_back((slot + plan.base_align - 1) / plan.base_align *
                               plan.base_align +
                           off);
      }
    }
    return bases;
  }

  sim::NodeEstimate estimate(std::size_t p) const {
    std::vector<std::vector<sim::AnalyticStream>> streams(kSockets);
    const std::vector<unsigned> threads(kSockets, kThreads);
    for (unsigned s = 0; s < kSockets; ++s) {
      const auto& b = bases_[p][s];
      const std::vector<sim::AnalyticStream> logical = {
          {b[0], true}, {b[1], false}, {b[2], false}, {b[3], false}};
      streams[s] = sim::expand_rfo(logical);
    }
    return sim::estimate_node_bandwidth(
        streams, threads, cfg_.sim.calibration,
        arch::AddressMap(cfg_.sim.interleave), cfg_.node,
        cfg_.sim.topology.clock_ghz);
  }

  sim::NodeConfig cfg_{};
  std::size_t n_ = 0;
  unsigned sweeps_ = 1;
  arch::Addr shift_ = 0;
  std::array<std::vector<std::vector<arch::Addr>>, kPlacements> bases_;
  std::unique_ptr<sim::Node> node_;
};

}  // namespace

std::unique_ptr<Workload> make_des_chip(const Options& opt) {
  return std::make_unique<DesChip>(opt);
}

std::unique_ptr<Workload> make_des_node(const Options& opt) {
  return std::make_unique<DesNode>(opt);
}

}  // namespace mcopt::perf
