#pragma once
// Timing calibration of the simulator, in core clock cycles at 1.2 GHz.
//
// Provenance of the defaults:
//  * Cache/memory latencies follow the OpenSPARC T2 microarchitecture
//    specification (L1 load-use ~3 cycles, L2 hit ~26 cycles, memory
//    ~130-185 ns) within the tolerance that matters for this study.
//  * Memory-controller service rates start from the nominal FB-DIMM numbers
//    in Sect. 1 of the paper (42 GB/s read, 21 GB/s write aggregate over four
//    controllers => ~7.3 / ~14.6 cycles per 64 B line) and add per-request
//    command overhead plus a read/write turnaround penalty. These two knobs
//    are calibrated so the *measured envelope* of the paper emerges: only
//    about one third of nominal bandwidth is attainable, best-case vector
//    triad traffic ~16 GB/s, STREAM copy ~18 GB/s with write-allocate (RFO)
//    traffic counted (Sect. 2.1-2.2).
//  * The single-outstanding-miss restriction per thread is a hard
//    microarchitectural fact (Sect. 1) and lives in the chip model, not here.
//
// Everything is a plain struct so ablation benches can vary one knob at a
// time (see bench/ablation_simulator).

#include <cstdint>

namespace mcopt::arch {

/// Cycle counts use the core clock (1.2 GHz => 1 cycle = 0.833 ns).
using Cycles = std::uint64_t;

struct Calibration {
  // --- core pipeline ----------------------------------------------------
  /// L1D hit load-use latency.
  Cycles l1_hit_latency = 3;
  /// Issue cost of any instruction through the thread-group integer pipe.
  Cycles issue_cost = 1;

  // --- L2 ----------------------------------------------------------------
  /// L2 hit latency (bank access, crossbar both ways included).
  Cycles l2_hit_latency = 26;
  /// A bank accepts a new request at most every l2_bank_busy cycles
  /// (arbitration + tag + data for one 16 B beat). Congruent streams that
  /// collapse onto one bank via address bit 6 serialize at this rate.
  Cycles l2_bank_busy = 4;

  // --- memory controllers -------------------------------------------------
  /// DRAM access latency (first word back), excluding queueing.
  Cycles mem_latency = 155;  // ~130 ns
  /// Pure data-transfer time of one 64 B line read (10.5 GB/s per MC).
  Cycles mc_read_service = 8;
  /// Pure data-transfer time of one 64 B line write (5.25 GB/s per MC).
  Cycles mc_write_service = 15;
  /// Fixed FB-DIMM command/protocol overhead added to every line transfer.
  Cycles mc_request_overhead = 4;
  /// Extra cycles when a controller switches between read and write service
  /// (the paper's conjectured "overhead for bidirectional transfers").
  Cycles mc_turnaround = 16;

  // --- DRAM geometry behind each controller ---------------------------------
  /// Independent DRAM banks per controller (channels x ranks x banks folded
  /// into one effective pool). Power of two.
  unsigned dram_banks = 64;
  /// Bytes of controller-local address space covered by one open row
  /// (8 KiB row => 64 KiB of global span at 4-way 512 B interleaving).
  std::size_t dram_row_bytes = 8192;
  /// Activate+precharge cost paid on the bank when a request hits a bank
  /// whose open row differs ("row conflict"). Overlaps with other banks'
  /// data transfers, but not with the same bank.
  Cycles dram_row_miss_extra = 20;

  // --- stores --------------------------------------------------------------
  /// Per-thread coalescing store buffer depth (line-granular entries).
  unsigned store_buffer_entries = 8;

  // --- floating point -------------------------------------------------------
  /// One FPU per core, one MUL or ADD per cycle.
  Cycles fp_op_cost = 1;
};

/// Default calibration for the 1.2 GHz T5120 of the paper.
[[nodiscard]] Calibration t2_calibration() noexcept;

/// Convert a cycle count at `clock_ghz` into seconds.
[[nodiscard]] double cycles_to_seconds(Cycles c, double clock_ghz) noexcept;

/// Convert seconds at `clock_ghz` into cycles, rounded up to whole cycles.
[[nodiscard]] Cycles seconds_to_cycles(double seconds, double clock_ghz) noexcept;

/// Bandwidth in bytes/second for `bytes` moved in `c` cycles.
[[nodiscard]] double bandwidth_bytes_per_s(std::uint64_t bytes, Cycles c,
                                           double clock_ghz) noexcept;

}  // namespace mcopt::arch
