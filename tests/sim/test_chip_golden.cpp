// Golden SimResult values: every integer the chip DES produces, pinned for a
// set of small configurations that together cover each event-loop path
// (lockstep gate and release, retire, epoch and sample boundaries, flips,
// NUMA link ports). The values were captured before the event loop moved
// from a binary heap to a winner tree; a scheduler change must reproduce
// them bit for bit. A model change that moves them on purpose must update
// the table: each failing case prints its full replacement row.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/jacobi.h"
#include "kernels/stream.h"
#include "kernels/triad.h"
#include "sim/chip.h"
#include "sim/fault_schedule.h"
#include "sim/faults.h"
#include "sim/node.h"
#include "trace/jacobi_program.h"
#include "trace/virtual_arena.h"
#include "util/crc.h"

namespace mcopt::sim {
namespace {

struct Golden {
  std::uint64_t total_cycles;
  std::uint64_t loads;
  std::uint64_t stores;
  std::uint64_t flops;
  CacheStats l1;
  CacheStats l2;
  std::uint64_t mem_read_bytes;
  std::uint64_t mem_write_bytes;
  std::uint64_t remote_read_bytes;
  std::uint64_t remote_write_bytes;
  std::uint64_t corrupted_reads;
  /// CRC32C of every McStats field of every controller, in order.
  std::uint32_t mc_crc;
  /// CRC32C of every LinkStats field of every link port.
  std::uint32_t link_crc;
  std::uint32_t thread_finish_crc;
  /// CRC32C of the epochs' bounds, fault descriptions and byte counts.
  std::uint32_t epoch_crc;
  /// CRC32C of corruption_log (cycle, address, controller) and the
  /// per-controller corrupted-read counts.
  std::uint32_t corruption_crc;
  /// CRC32C of the mc_timeline rows (bounds and utilization bit patterns).
  std::uint32_t timeline_crc;
};

class Digest {
 public:
  void u64(std::uint64_t v) { crc_.update(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    crc_.update(s.data(), s.size());
  }
  [[nodiscard]] std::uint32_t value() const { return crc_.value(); }

 private:
  util::Crc32c crc_;
};

Golden golden_of(const SimResult& r) {
  Golden g{};
  g.total_cycles = r.total_cycles;
  g.loads = r.loads;
  g.stores = r.stores;
  g.flops = r.flops;
  g.l1 = r.l1;
  g.l2 = r.l2;
  g.mem_read_bytes = r.mem_read_bytes;
  g.mem_write_bytes = r.mem_write_bytes;
  g.remote_read_bytes = r.remote_read_bytes;
  g.remote_write_bytes = r.remote_write_bytes;
  g.corrupted_reads = r.corrupted_reads;

  Digest mc;
  for (const McStats& s : r.mc) {
    for (std::uint64_t v : {s.reads, s.writes, s.turnarounds, s.row_hits,
                            s.row_conflicts, s.busy_cycles, s.last_completion})
      mc.u64(v);
  }
  g.mc_crc = mc.value();

  Digest link;
  for (const SimResult::LinkStats& s : r.links)
    for (std::uint64_t v : {s.fills, s.writebacks, s.busy_cycles, s.last_completion})
      link.u64(v);
  g.link_crc = link.value();

  Digest finish;
  for (arch::Cycles t : r.thread_finish) finish.u64(t);
  g.thread_finish_crc = finish.value();

  Digest epochs;
  for (const SimResult::EpochStats& e : r.epochs) {
    for (std::uint64_t v : {e.begin, e.end, e.mem_read_bytes, e.mem_write_bytes,
                            e.remote_read_bytes, e.remote_write_bytes})
      epochs.u64(v);
    epochs.str(e.faults);
  }
  g.epoch_crc = epochs.value();

  Digest corruption;
  for (const SimResult::Corruption& c : r.corruption_log) {
    corruption.u64(c.cycle);
    corruption.u64(c.addr);
    corruption.u64(c.controller);
  }
  for (std::uint64_t n : r.mc_corrupted_reads) corruption.u64(n);
  g.corruption_crc = corruption.value();

  Digest timeline;
  for (const obs::McSample& row : r.mc_timeline) {
    timeline.u64(row.begin);
    timeline.u64(row.end);
    for (double u : row.utilization) timeline.f64(u);
  }
  timeline.u64(r.mc_timeline_truncated ? 1 : 0);
  g.timeline_crc = timeline.value();
  return g;
}

std::string hex(std::uint32_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// The row's C++ initializer, printed on mismatch so an intended model
/// change can update the table in one paste.
std::string initializer(const Golden& g) {
  const auto cache = [](const CacheStats& c) {
    return "{" + std::to_string(c.hits) + ", " + std::to_string(c.misses) +
           ", " + std::to_string(c.evictions) + ", " +
           std::to_string(c.writebacks) + "}";
  };
  std::ostringstream os;
  os << "{" << g.total_cycles << ", " << g.loads << ", " << g.stores << ", "
     << g.flops << ", " << cache(g.l1) << ", " << cache(g.l2) << ", "
     << g.mem_read_bytes << ", " << g.mem_write_bytes << ", "
     << g.remote_read_bytes << ", " << g.remote_write_bytes << ", "
     << g.corrupted_reads << ", " << hex(g.mc_crc) << ", " << hex(g.link_crc)
     << ", " << hex(g.thread_finish_crc) << ", " << hex(g.epoch_crc) << ", "
     << hex(g.corruption_crc) << ", " << hex(g.timeline_crc) << "}";
  return os.str();
}

void expect_golden(const SimResult& r, const Golden& want) {
  const Golden got = golden_of(r);
  EXPECT_EQ(got.total_cycles, want.total_cycles);
  EXPECT_EQ(got.loads, want.loads);
  EXPECT_EQ(got.stores, want.stores);
  EXPECT_EQ(got.flops, want.flops);
  EXPECT_EQ(got.l1.hits, want.l1.hits);
  EXPECT_EQ(got.l1.misses, want.l1.misses);
  EXPECT_EQ(got.l1.evictions, want.l1.evictions);
  EXPECT_EQ(got.l1.writebacks, want.l1.writebacks);
  EXPECT_EQ(got.l2.hits, want.l2.hits);
  EXPECT_EQ(got.l2.misses, want.l2.misses);
  EXPECT_EQ(got.l2.evictions, want.l2.evictions);
  EXPECT_EQ(got.l2.writebacks, want.l2.writebacks);
  EXPECT_EQ(got.mem_read_bytes, want.mem_read_bytes);
  EXPECT_EQ(got.mem_write_bytes, want.mem_write_bytes);
  EXPECT_EQ(got.remote_read_bytes, want.remote_read_bytes);
  EXPECT_EQ(got.remote_write_bytes, want.remote_write_bytes);
  EXPECT_EQ(got.corrupted_reads, want.corrupted_reads);
  EXPECT_EQ(hex(got.mc_crc), hex(want.mc_crc));
  EXPECT_EQ(hex(got.link_crc), hex(want.link_crc));
  EXPECT_EQ(hex(got.thread_finish_crc), hex(want.thread_finish_crc));
  EXPECT_EQ(hex(got.epoch_crc), hex(want.epoch_crc));
  EXPECT_EQ(hex(got.corruption_crc), hex(want.corruption_crc));
  EXPECT_EQ(hex(got.timeline_crc), hex(want.timeline_crc));
  if (::testing::Test::HasFailure())
    ADD_FAILURE() << "actual row: " << initializer(got);
}

constexpr unsigned kThreads = 64;
constexpr std::size_t kTriadN = std::size_t{1} << 14;
const arch::Addr kBase = arch::Addr{1} << 32;

SimResult run_triad(const SimConfig& cfg, std::size_t offset) {
  Workload wl = kernels::make_stream_workload(
      kernels::StreamOp::kTriad,
      kernels::common_block_bases(kBase, kTriadN, offset), kTriadN, kThreads,
      sched::Schedule::static_block());
  Chip chip(cfg, arch::equidistant_placement(kThreads, cfg.topology));
  return chip.run(wl);
}

SimResult run_jacobi(const sched::Schedule& schedule, bool optimal) {
  const SimConfig cfg;
  const arch::AddressMap map(cfg.interleave);
  trace::VirtualArena arena(kBase);
  const kernels::VirtualJacobi grids = kernels::make_virtual_jacobi(
      arena, 64,
      optimal ? kernels::jacobi_optimal_spec(map) : kernels::jacobi_plain_spec());
  Workload wl = trace::make_jacobi_workload(grids.grids(), kThreads, schedule, 2);
  Chip chip(cfg, arch::equidistant_placement(kThreads, cfg.topology));
  return chip.run(wl);
}

TEST(ChipGolden, TriadOffset0) {
  expect_golden(run_triad(SimConfig{}, 0),
                {66708, 32768, 16384, 32768, {7269, 41883, 21403, 0},
                 {21403, 6144, 0, 0}, 393216, 0, 0, 0, 0, 0x4093bf35, 0x0, 0x8ac5e394,
                 0x0, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, TriadOffset8) {
  expect_golden(run_triad(SimConfig{}, 8),
                {43788, 32768, 16384, 32768, {12468, 36684, 16204, 0},
                 {16204, 6144, 0, 0}, 393216, 0, 0, 0, 0, 0x4f18a315, 0x0, 0x35f4a98b,
                 0x0, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, TriadOffset64) {
  expect_golden(run_triad(SimConfig{}, 64),
                {58659, 32768, 16384, 32768, {10871, 38281, 17801, 0},
                 {17801, 6144, 0, 0}, 393216, 0, 0, 0, 0, 0xa9f3e70e, 0x0, 0x373132bb,
                 0x0, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, TriadOffset256) {
  expect_golden(run_triad(SimConfig{}, 256),
                {66708, 32768, 16384, 32768, {7269, 41883, 21403, 0},
                 {21403, 6144, 0, 0}, 393216, 0, 0, 0, 0, 0xfce548da, 0x0, 0x8ac5e394,
                 0x0, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, JacobiStaticChunk1) {
  expect_golden(run_jacobi(sched::Schedule::static_chunk(1), true),
                {11316, 30752, 7688, 30752, {18934, 19506, 7808, 0},
                 {11872, 1024, 0, 0}, 65536, 0, 0, 0, 0, 0xe03e9355, 0x0, 0x50e5db1a,
                 0x0, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, JacobiStaticBlock) {
  expect_golden(run_jacobi(sched::Schedule::static_block(), false),
                {49455, 30752, 7688, 30752, {8072, 30368, 19609, 0},
                 {22649, 1024, 0, 0}, 65536, 0, 0, 0, 0, 0x9bf33628, 0x0, 0x7c2cd201,
                 0x0, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, LockstepOff) {
  SimConfig cfg;
  cfg.model_lockstep = false;
  expect_golden(run_triad(cfg, 32),
                {24861, 32768, 16384, 32768, {16127, 33025, 12545, 0},
                 {12545, 6144, 0, 0}, 393216, 0, 0, 0, 0, 0xb278a491, 0x0, 0x1bf85a41,
                 0x0, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, L1Off) {
  SimConfig cfg;
  cfg.model_l1 = false;
  expect_golden(run_triad(cfg, 32),
                {43211, 32768, 16384, 32768, {0, 0, 0, 0}, {28672, 6144, 0, 0}, 393216,
                 0, 0, 0, 0, 0x3ce2d209, 0x0, 0xc5c75d18, 0x0, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, MidRunOutageSchedule) {
  SimConfig cfg;
  cfg.fault_schedule =
      FaultSchedule::parse("mc1:off@20000..45000,strand5:lag=3@30000")
          .value();
  expect_golden(run_triad(cfg, 0),
                {67118, 32768, 16384, 32768, {7270, 41882, 21402, 0},
                 {21402, 6144, 0, 0}, 393216, 0, 0, 0, 0, 0x51a26907, 0x0, 0x99effc82,
                 0xc3901b82, 0x8a9136aa, 0x8c28b28a});
}

TEST(ChipGolden, FlipFault) {
  SimConfig cfg;
  cfg.faults = FaultSpec::parse("mc2:flip=0.01").value();
  cfg.flip_seed = 7;
  expect_golden(run_triad(cfg, 16),
                {25968, 32768, 16384, 32768, {15006, 34146, 13666, 0},
                 {13666, 6144, 0, 0}, 393216, 0, 0, 0, 17, 0xca72b0d2, 0x0, 0x73e3ea87,
                 0x0, 0x7f87b13f, 0x8c28b28a});
}

TEST(ChipGolden, SampleCadence) {
  SimConfig cfg;
  cfg.mc_sample_cadence = 5000;
  expect_golden(run_triad(cfg, 8),
                {43788, 32768, 16384, 32768, {12468, 36684, 16204, 0},
                 {16204, 6144, 0, 0}, 393216, 0, 0, 0, 0, 0x4f18a315, 0x0, 0x35f4a98b,
                 0x0, 0x8a9136aa, 0x980e945a});
}

TEST(ChipGolden, TwoSocketNodeRemotePlacement) {
  NodeConfig cfg;
  cfg.node.num_sockets = 2;
  const unsigned threads = 16;
  const std::size_t n = std::size_t{1} << 13;
  std::vector<Workload> wls(2);
  for (unsigned s = 0; s < 2; ++s) {
    // Every array of socket s is homed on the other socket.
    const arch::Addr home =
        cfg.node.socket_base((s + 1) % 2) + (arch::Addr{1} << 20);
    std::vector<arch::Addr> bases;
    for (unsigned k = 0; k < 4; ++k)
      bases.push_back(home + k * ((arch::Addr{1} << 24) + 128));
    wls[s] = kernels::make_triad_workload(bases, n, threads,
                                          sched::Schedule::static_block());
  }
  Node node(cfg);
  const NodeResult res = node.run(wls);
  ASSERT_EQ(res.sockets.size(), 2u);
  expect_golden(res.sockets[0],
                {70716, 24576, 8192, 16384, {12288, 20480, 8192, 0}, {9216, 4096, 0, 0},
                 262144, 0, 262144, 0, 0, 0x48faf116, 0xfc10d49a, 0xfd0cb6e8, 0x0,
                 0x8a9136aa, 0x8c28b28a});
  expect_golden(res.sockets[1],
                {70716, 24576, 8192, 16384, {12288, 20480, 8192, 0}, {9216, 4096, 0, 0},
                 262144, 0, 262144, 0, 0, 0x48faf116, 0x1545de5b, 0xfd0cb6e8, 0x0,
                 0x8a9136aa, 0x8c28b28a});
}

}  // namespace
}  // namespace mcopt::sim
