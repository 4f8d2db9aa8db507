#include "sim/chip.h"

#include <gtest/gtest.h>

#include <string>

#include "kernels/stream.h"
#include "obs/trace.h"
#include "sim/faults.h"
#include "trace/stream_program.h"
#include "trace/virtual_arena.h"

namespace mcopt::sim {
namespace {

using trace::LockstepStreamProgram;
using trace::StreamDesc;

Workload single_read_stream(unsigned threads, std::size_t n_per_thread,
                            arch::Addr spacing, arch::Addr base = arch::Addr{1} << 32) {
  Workload wl;
  for (unsigned t = 0; t < threads; ++t) {
    std::vector<StreamDesc> s{{base + t * spacing, false, 0}};
    wl.push_back(std::make_unique<LockstepStreamProgram>(
        s, sizeof(double), std::vector<sched::IterRange>{{0, n_per_thread}}, 1));
  }
  return wl;
}

SimConfig default_cfg() { return SimConfig{}; }

TEST(SimConfig, ValidatesLineSizeMatch) {
  SimConfig cfg;
  cfg.topology.l2.line_bytes = 128;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(SimConfig, ValidatesLockstepWindow) {
  SimConfig cfg;
  cfg.lockstep_window = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.model_lockstep = false;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Chip, RejectsBadPlacement) {
  SimConfig cfg;
  arch::Placement p;
  EXPECT_THROW(Chip(cfg, p), std::invalid_argument);
  p.hw_strand = {999};
  EXPECT_THROW(Chip(cfg, p), std::invalid_argument);
}

TEST(Chip, RejectsWorkloadSizeMismatch) {
  SimConfig cfg;
  Chip chip(cfg, arch::equidistant_placement(2, cfg.topology));
  Workload wl = single_read_stream(1, 16, 0);
  EXPECT_THROW(chip.run(wl), std::invalid_argument);
}

TEST(Chip, AccessConservation) {
  SimConfig cfg;
  Chip chip(cfg, arch::equidistant_placement(4, cfg.topology));
  Workload wl = single_read_stream(4, 1000, 1 << 20);
  std::uint64_t expected = 0;
  for (const auto& p : wl) expected += p->total_accesses();
  const SimResult res = chip.run(wl);
  EXPECT_EQ(res.accesses, expected);
  EXPECT_EQ(res.loads, expected);
  EXPECT_EQ(res.stores, 0u);
}

TEST(Chip, CacheAccountingConsistent) {
  SimConfig cfg;
  Chip chip(cfg, arch::equidistant_placement(2, cfg.topology));
  Workload wl = single_read_stream(2, 4096, 1 << 22);
  const SimResult res = chip.run(wl);
  // Every access goes through L1.
  EXPECT_EQ(res.l1.accesses(), res.accesses);
  // Sequential 8 B reads: one L1 miss per 16 B line.
  EXPECT_EQ(res.l1.misses, res.accesses / 2);
  // One L2 miss per 64 B line, all cold.
  EXPECT_EQ(res.l2.misses, res.accesses * 8 / 64);
  // Read-only workload: no memory writes.
  EXPECT_EQ(res.mem_write_bytes, 0u);
  EXPECT_EQ(res.mem_read_bytes, res.l2.misses * 64);
}

TEST(Chip, DeterministicAcrossRuns) {
  SimConfig cfg;
  Chip chip(cfg, arch::equidistant_placement(8, cfg.topology));
  Workload wl1 = single_read_stream(8, 2048, 1 << 20);
  Workload wl2 = single_read_stream(8, 2048, 1 << 20);
  const SimResult a = chip.run(wl1);
  const SimResult b = chip.run(wl2);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.mem_read_bytes, b.mem_read_bytes);
  ASSERT_EQ(a.thread_finish.size(), b.thread_finish.size());
  for (std::size_t t = 0; t < a.thread_finish.size(); ++t)
    EXPECT_EQ(a.thread_finish[t], b.thread_finish[t]);
}

TEST(Chip, TimeAdvancesAndBandwidthPositive) {
  SimConfig cfg;
  Chip chip(cfg, arch::equidistant_placement(1, cfg.topology));
  Workload wl = single_read_stream(1, 512, 0);
  const SimResult res = chip.run(wl);
  EXPECT_GT(res.total_cycles, 0u);
  EXPECT_GT(res.seconds(), 0.0);
  EXPECT_GT(res.memory_bandwidth(), 0.0);
}

TEST(Chip, SingleThreadIsLatencyBound) {
  SimConfig cfg;
  Chip chip(cfg, arch::equidistant_placement(1, cfg.topology));
  const std::size_t n = 8192;  // one 64 B line per 8 elements
  Workload wl = single_read_stream(1, n, 0);
  const SimResult res = chip.run(wl);
  // One thread, one outstanding miss: each 64 B line costs at least the DRAM
  // latency; the run can't beat n/8 * mem_latency.
  const arch::Cycles floor_cycles = n / 8 * cfg.calibration.mem_latency;
  EXPECT_GE(res.total_cycles, floor_cycles);
  // ...but overhead shouldn't blow it up by more than ~2x either.
  EXPECT_LE(res.total_cycles, 2 * floor_cycles);
}

TEST(Chip, MoreThreadsMoreBandwidth) {
  SimConfig cfg;
  double prev = 0.0;
  for (unsigned threads : {1u, 4u, 16u}) {
    Chip chip(cfg, arch::equidistant_placement(threads, cfg.topology));
    Workload wl = single_read_stream(threads, 8192, arch::Addr{1} << 21);
    const SimResult res = chip.run(wl);
    EXPECT_GT(res.memory_bandwidth(), prev);
    prev = res.memory_bandwidth();
  }
}

TEST(Chip, BandwidthBelowNominalPeak) {
  // Sect. 1: nominal read bandwidth 42 GB/s; nothing may exceed it.
  SimConfig cfg;
  Chip chip(cfg, arch::equidistant_placement(64, cfg.topology));
  Workload wl = single_read_stream(64, 16384, arch::Addr{1} << 21);
  const SimResult res = chip.run(wl);
  EXPECT_LT(res.memory_bandwidth(), 42e9);
  EXPECT_GT(res.memory_bandwidth(), 2e9);
}

TEST(Chip, StoresProduceRfoAndWritebackTraffic) {
  SimConfig cfg;
  Workload wl;
  std::vector<StreamDesc> s{{arch::Addr{1} << 32, true, 0}};
  const std::size_t n = 1 << 20;  // 8 MiB: exceeds L2, forces evictions
  wl.push_back(std::make_unique<LockstepStreamProgram>(
      s, sizeof(double), std::vector<sched::IterRange>{{0, n}}, 1));
  Chip chip(cfg, arch::equidistant_placement(1, cfg.topology));
  const SimResult res = chip.run(wl);
  EXPECT_EQ(res.stores, n);
  const std::uint64_t lines = n * 8 / 64;
  // Write-allocate: every stored line is read once (RFO)...
  EXPECT_EQ(res.mem_read_bytes, lines * 64);
  // ...and most lines are written back before the run ends (the L2 retains
  // up to its capacity of dirty lines).
  const std::uint64_t retained = cfg.topology.l2.size_bytes / 64;
  EXPECT_GE(res.mem_write_bytes, (lines - retained) * 64);
  EXPECT_EQ(res.l2.writebacks * 64, res.mem_write_bytes);
}

TEST(Chip, FlopsAccountedAndFpuSerializes) {
  SimConfig cfg;
  // Two threads on the SAME core hammering the FPU.
  arch::Placement p;
  p.hw_strand = {0, 1};
  const std::size_t n = 1024;
  auto make_wl = [&] {
    Workload wl;
    for (unsigned t = 0; t < 2; ++t) {
      std::vector<StreamDesc> s{
          {(arch::Addr{1} << 32) + t * (arch::Addr{1} << 24), false, 100}};
      wl.push_back(std::make_unique<LockstepStreamProgram>(
          s, sizeof(double), std::vector<sched::IterRange>{{0, n}}, 1));
    }
    return wl;
  };
  Workload wl = make_wl();
  Chip chip(cfg, p);
  const SimResult res = chip.run(wl);
  EXPECT_EQ(res.flops, 2ull * n * 100);
  // Shared FPU at 1 flop/cycle: the run takes at least total-flops cycles.
  EXPECT_GE(res.total_cycles, res.flops);

  // The same threads on different cores run roughly twice as fast.
  arch::Placement spread;
  spread.hw_strand = {0, 8};
  Workload wl2 = make_wl();
  Chip chip2(cfg, spread);
  const SimResult res2 = chip2.run(wl2);
  EXPECT_LT(res2.total_cycles, res.total_cycles * 3 / 4);
}

TEST(Chip, LockstepBoundsThreadDrift) {
  SimConfig cfg;
  cfg.lockstep_window = 4;
  // Thread 0 reads cached-friendly addresses, thread 1 a huge stride: left
  // free, thread 0 would finish far ahead. Lockstep forces both to finish
  // within a window of each other.
  Workload wl;
  std::vector<StreamDesc> fast{{arch::Addr{1} << 32, false, 0}};
  std::vector<StreamDesc> slow{{(arch::Addr{1} << 33) + 64, false, 0}};
  wl.push_back(std::make_unique<LockstepStreamProgram>(
      fast, std::size_t{8}, std::vector<sched::IterRange>{{0, 512}}, 1));
  wl.push_back(std::make_unique<LockstepStreamProgram>(
      slow, std::size_t{8192},  // one line per element: all misses
      std::vector<sched::IterRange>{{0, 512}}, 1));
  Chip chip(cfg, arch::equidistant_placement(2, cfg.topology));
  const SimResult res = chip.run(wl);
  // The fast thread cannot finish much earlier than the slow one.
  const double ratio = static_cast<double>(res.thread_finish[0]) /
                       static_cast<double>(res.thread_finish[1]);
  EXPECT_GT(ratio, 0.9);
}

TEST(Chip, LockstepOffAllowsDrift) {
  SimConfig cfg;
  cfg.model_lockstep = false;
  Workload wl;
  std::vector<StreamDesc> fast{{arch::Addr{1} << 32, false, 0}};
  std::vector<StreamDesc> slow{{(arch::Addr{1} << 33) + 64, false, 0}};
  wl.push_back(std::make_unique<LockstepStreamProgram>(
      fast, std::size_t{8}, std::vector<sched::IterRange>{{0, 512}}, 1));
  wl.push_back(std::make_unique<LockstepStreamProgram>(
      slow, std::size_t{8192}, std::vector<sched::IterRange>{{0, 512}}, 1));
  Chip chip(cfg, arch::equidistant_placement(2, cfg.topology));
  const SimResult res = chip.run(wl);
  const double ratio = static_cast<double>(res.thread_finish[0]) /
                       static_cast<double>(res.thread_finish[1]);
  EXPECT_LT(ratio, 0.5);
}

TEST(Chip, EmptyProgramsFinishAtTimeZero) {
  SimConfig cfg;
  Workload wl;
  for (int t = 0; t < 2; ++t) {
    wl.push_back(std::make_unique<LockstepStreamProgram>(
        std::vector<StreamDesc>{{0, false, 0}}, std::size_t{8},
        std::vector<sched::IterRange>{}, 1));
  }
  Chip chip(cfg, arch::equidistant_placement(2, cfg.topology));
  const SimResult res = chip.run(wl);
  EXPECT_EQ(res.total_cycles, 0u);
  EXPECT_EQ(res.accesses, 0u);
}

TEST(Chip, MixedEmptyAndBusyThreadsNoDeadlock) {
  SimConfig cfg;
  cfg.lockstep_window = 1;
  Workload wl;
  wl.push_back(std::make_unique<LockstepStreamProgram>(
      std::vector<StreamDesc>{{arch::Addr{1} << 32, false, 0}}, std::size_t{8},
      std::vector<sched::IterRange>{{0, 256}}, 1));
  wl.push_back(std::make_unique<LockstepStreamProgram>(
      std::vector<StreamDesc>{{0, false, 0}}, std::size_t{8},
      std::vector<sched::IterRange>{}, 1));
  Chip chip(cfg, arch::equidistant_placement(2, cfg.topology));
  const SimResult res = chip.run(wl);
  EXPECT_EQ(res.accesses, 256u);
}

// A triad on `threads` strands whose thread 0 loses 2^53 cycles (the largest
// lag the fault grammar accepts) on every access.
util::Expected<SimResult> run_lagged_triad(unsigned threads, std::size_t n) {
  SimConfig cfg;
  cfg.faults = FaultSpec::parse("strand0:lag=9007199254740992").value();
  Workload wl = kernels::make_stream_workload(
      kernels::StreamOp::kTriad,
      kernels::common_block_bases(arch::Addr{1} << 32, n, 0), n, threads,
      sched::Schedule::static_block());
  Chip chip(cfg, arch::equidistant_placement(threads, cfg.topology));
  return chip.try_run(wl);
}

// At 64 strands the scheduler packs a clock into 58 bits, which thread 0
// leaves within 32 accesses: the run must fail with a typed diagnostic, not
// schedule threads out of order.
TEST(Chip, ClockPastSchedulerRangeIsReported) {
  const auto res = run_lagged_triad(64, 64 * 64);  // 192 accesses per thread
  ASSERT_FALSE(res);
  EXPECT_NE(res.error().message.find("clock exceeds scheduler range"),
            std::string::npos)
      << res.error().message;
}

// One thread gets the whole 64-bit key, so its clock wraps before it leaves
// the range: a clock that runs backwards is reported the same way.
TEST(Chip, ClockWrapIsReported) {
  const auto res = run_lagged_triad(1, 1024);  // 3072 accesses * 2^53 > 2^64
  ASSERT_FALSE(res);
  EXPECT_NE(res.error().message.find("clock exceeds scheduler range"),
            std::string::npos)
      << res.error().message;
}

// A triad whose arrays are packed back to back at `base`.
util::Expected<SimResult> run_triad_at(arch::Addr base, std::size_t n,
                                       bool model_l1 = true) {
  SimConfig cfg;
  cfg.model_l1 = model_l1;
  Workload wl = kernels::make_stream_workload(
      kernels::StreamOp::kTriad, kernels::common_block_bases(base, n, 0), n, 8,
      sched::Schedule::static_block());
  Chip chip(cfg, arch::equidistant_placement(8, cfg.topology));
  return chip.try_run(wl);
}

constexpr std::size_t kRangeN = 4096;
constexpr arch::Addr kL1TagLimit = arch::Addr{1} << 43;  // 128 sets, 16 B lines
constexpr arch::Addr kL2TagLimit = arch::Addr{1} << 50;  // 4096 sets, 64 B lines

// The L1D's 32-bit tags cover addresses below 2^43: a triad there must fail
// with a typed diagnostic and a trace instant, never alias a truncated tag.
TEST(Chip, AddressPastTagRangeIsReported) {
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.disable();
  rec.reset();
  rec.enable(1 << 10);
  const auto res = run_triad_at(kL1TagLimit, kRangeN);
  rec.disable();
  ASSERT_FALSE(res);
  EXPECT_NE(res.error().message.find("address exceeds cache tag range"),
            std::string::npos)
      << res.error().message;
  bool instant = false;
  for (const obs::TraceEvent& e : rec.snapshot())
    instant = instant || (std::string(e.name) == "sim.addr_range" &&
                          e.a >= kL1TagLimit && e.b == 43);
  rec.reset();
  EXPECT_TRUE(instant);
}

TEST(Chip, TriadEndingBelowTagRangeRuns) {
  const auto res = run_triad_at(kL1TagLimit - 3 * kRangeN * sizeof(double),
                                kRangeN);
  ASSERT_TRUE(res) << res.error().message;
  EXPECT_EQ(res.value().accesses, 3 * kRangeN);  // 2 loads + 1 store
}

// Without the L1D only the L2's tags bound the address space: 2^50.
TEST(Chip, TagRangeWithoutL1IsTheL2s) {
  const auto below = run_triad_at(kL1TagLimit, kRangeN, /*model_l1=*/false);
  ASSERT_TRUE(below) << below.error().message;
  EXPECT_EQ(below.value().accesses, 3 * kRangeN);
  const auto last = run_triad_at(kL2TagLimit - 3 * kRangeN * sizeof(double),
                                 kRangeN, /*model_l1=*/false);
  ASSERT_TRUE(last) << last.error().message;
  const auto past = run_triad_at(kL2TagLimit, kRangeN, /*model_l1=*/false);
  ASSERT_FALSE(past);
  EXPECT_NE(past.error().message.find("address exceeds cache tag range"),
            std::string::npos)
      << past.error().message;
}

TEST(SimConfig, RejectsAssociativityWiderThanTheDirtyMask) {
  SimConfig cfg;
  cfg.topology.l2 = arch::CacheGeometry{4 * 1024 * 1024, 64, 128};
  const util::Status status = cfg.check();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("L2 associativity 128"),
            std::string::npos)
      << status.error().message;
  cfg.topology.l2 = arch::CacheGeometry{4 * 1024 * 1024, 64, 64};
  EXPECT_TRUE(cfg.check().ok());
}

}  // namespace
}  // namespace mcopt::sim
