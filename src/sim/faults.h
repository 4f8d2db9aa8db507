#pragma once
// Fault-injection model for the simulated memory subsystem.
//
// Real multi-controller machines degrade asymmetrically: a DIMM drops to a
// lower speed bin, firmware offlines a failing channel, a core runs hot and
// throttles one strand. The paper's aliasing analysis assumes a healthy,
// symmetric chip; this layer lets every bench and test ask "what happens to
// the layout recipes when the chip is NOT healthy" (cf. the NUMA-asymmetry
// effects Bergstrom measures with STREAM). A FaultSpec attaches to SimConfig;
// the chip model honors it during reservation:
//
//  * offline controller  — the channel serves no traffic; its lines are
//    remapped round-robin onto the surviving controllers (the firmware
//    re-interleave stand-in). The survivors absorb the load.
//  * derated controller  — service rate multiplied by `factor` in (0,1]
//    (a slow DIMM: every transfer takes 1/factor as long).
//  * slow L2 bank        — extra busy cycles per access on one global bank.
//  * straggler strand    — extra cycles added to every access of one
//    software thread (thermal throttling / interrupt noise stand-in).
//
// Multi-socket (NUMA) fault classes mirror the controller classes one level
// up the hierarchy (arch::NodeTopology):
//
//  * offline socket      — the socket's memory domain serves no traffic; its
//    home addresses are remapped round-robin onto surviving sockets (the
//    firmware memory-mirroring failover stand-in). Cores keep running.
//  * derated socket      — the socket's controllers serve at `factor` rate
//    (a whole-DIMM-bank thermal throttle), and remote fills *from* it slow
//    by the same factor.
//  * offline link        — the i<->j interconnect link carries no traffic;
//    remote accesses reroute over surviving links (summed per-hop costs).
//  * derated link        — the i<->j link's per-line transfer slows to
//    `factor` of nominal in both directions.
//
// All faults are deterministic, so degraded runs stay exactly reproducible.

#include <cstdint>
#include <string>
#include <vector>

#include "arch/address_map.h"
#include "arch/calibration.h"
#include "util/expected.h"

namespace mcopt::sim {

/// Parse-time index bounds for FaultSpec/FaultSchedule::parse: a knob value
/// naming a controller/bank/strand/socket the configured topology does not
/// have fails at parse time with a targeted message instead of surfacing
/// later from check() at apply time. A field of 0 leaves that class
/// grammar-checked only (the historical behavior).
struct FaultLimits {
  unsigned num_controllers = 0;
  unsigned num_banks = 0;
  unsigned num_threads = 0;
  unsigned num_sockets = 0;
};

/// Declarative fault set for one simulation. Default: healthy chip.
struct FaultSpec {
  /// Controllers serving no traffic (remapped to survivors).
  std::vector<unsigned> offline_controllers;

  /// Service-rate derating of one controller: transfers take 1/factor longer.
  struct Derate {
    unsigned controller = 0;
    double factor = 1.0;  ///< in (0, 1]; 1.0 = healthy
  };
  std::vector<Derate> derates;

  /// Extra busy cycles per access on one global L2 bank.
  struct SlowBank {
    unsigned bank = 0;
    arch::Cycles extra_busy = 0;
  };
  std::vector<SlowBank> slow_banks;

  /// Extra cycles per access for one software thread.
  struct Straggler {
    unsigned thread = 0;
    arch::Cycles extra_cycles = 0;
  };
  std::vector<Straggler> stragglers;

  /// Silent-data-corruption rate of one controller: each memory read served
  /// by it flips one payload bit with probability `rate` (an FB-DIMM channel
  /// going marginal). The sim moves no real payloads, so the chip *counts*
  /// corrupted reads deterministically (seeded per-read Bernoulli draw) and
  /// reports them in SimResult; the native integrity layer (seg/integrity.h)
  /// is what detects and repairs real flipped bits.
  struct BitFlip {
    unsigned controller = 0;
    double rate = 0.0;  ///< per-read probability in [0, 1]
  };
  std::vector<BitFlip> flips;

  /// Sockets whose memory domain serves no traffic (home addresses remapped
  /// round-robin onto surviving sockets). Cores keep running; only the
  /// memory side dies (the asymmetric case the planner's priced remote
  /// placement exists for).
  std::vector<unsigned> offline_sockets;

  /// Service-rate derating of a whole socket's memory side.
  struct SocketDerate {
    unsigned socket = 0;
    double factor = 1.0;  ///< in (0, 1]; 1.0 = healthy
  };
  std::vector<SocketDerate> socket_derates;

  /// One inter-socket link fault; the pair is undirected (a physical link
  /// carries both directions).
  struct LinkFault {
    unsigned a = 0;
    unsigned b = 0;
    /// Per-line transfer rate factor in (0, 1]; 0 entries never appear —
    /// a fully dead link lives in `offline` instead.
    double factor = 1.0;
    bool offline = false;
  };
  std::vector<LinkFault> link_faults;

  /// True if any fault is configured (the SimResult::degraded flag).
  [[nodiscard]] bool any() const noexcept {
    return !offline_controllers.empty() || !derates.empty() ||
           !slow_banks.empty() || !stragglers.empty() || !flips.empty() ||
           !offline_sockets.empty() || !socket_derates.empty() ||
           !link_faults.empty();
  }

  [[nodiscard]] bool is_offline(unsigned controller) const noexcept;
  /// Derate factor of `controller` (product over duplicate entries; 1.0 when
  /// healthy).
  [[nodiscard]] double derate_of(unsigned controller) const noexcept;
  /// Extra busy cycles of global L2 bank `bank` (sum over entries).
  [[nodiscard]] arch::Cycles bank_extra(unsigned bank) const noexcept;
  /// Per-access straggle cycles of software thread `thread`.
  [[nodiscard]] arch::Cycles straggle_of(unsigned thread) const noexcept;
  /// Per-read bit-flip probability of `controller` (independent sources
  /// combine as 1 - prod(1 - rate); 0.0 when healthy).
  [[nodiscard]] double flip_rate_of(unsigned controller) const noexcept;

  [[nodiscard]] bool is_socket_offline(unsigned socket) const noexcept;
  /// Memory-side derate factor of `socket` (product over entries).
  [[nodiscard]] double socket_derate_of(unsigned socket) const noexcept;
  /// True when the undirected i<->j link is offline.
  [[nodiscard]] bool is_link_offline(unsigned i, unsigned j) const noexcept;
  /// Per-line rate factor of the undirected i<->j link (product over
  /// entries; 1.0 when healthy, irrespective of offline status).
  [[nodiscard]] double link_derate_of(unsigned i, unsigned j) const noexcept;

  /// Sockets whose memory domain still serves traffic, ascending.
  [[nodiscard]] std::vector<unsigned> surviving_sockets(
      unsigned num_sockets) const;

  /// Home-socket remap table (mirrors controller_remap one level up): entry
  /// s is the socket that actually serves home domain s — identity for
  /// healthy sockets, a survivor chosen round-robin for offline ones.
  [[nodiscard]] std::vector<unsigned> socket_remap(unsigned num_sockets) const;

  /// Controllers still serving traffic under `spec`, ascending.
  [[nodiscard]] std::vector<unsigned> surviving_controllers(
      const arch::InterleaveSpec& spec) const;

  /// Remap table: entry c is the controller that actually serves lines the
  /// address map assigns to c (identity for healthy controllers, a survivor
  /// chosen round-robin for offline ones).
  [[nodiscard]] std::vector<unsigned> controller_remap(
      const arch::InterleaveSpec& spec) const;

  /// Semantic validation against a chip's interleave: indices in range,
  /// factors in (0,1], at least one controller must survive, no duplicate
  /// mc<i> entries (off+off, or off+derate on the same controller — a
  /// controller cannot be both dead and merely slow). Reports every
  /// violation at once.
  ///
  /// `num_sockets` bounds the sock/link classes: indices in range, at least
  /// one socket's memory must survive, link endpoints distinct, dead beats
  /// slow per socket/link. The default of 1 makes any socket/link fault
  /// invalid — a single-chip simulation cannot honor them, and silently
  /// ignoring a requested fault would fake resilience.
  [[nodiscard]] util::Status check(const arch::InterleaveSpec& spec,
                                   unsigned num_sockets = 1) const;

  /// Normalizing union of two fault sets (used when timed fault intervals
  /// overlap): offline sets are deduplicated, derates on a controller that
  /// ends up offline are dropped (dead beats slow), remaining derates
  /// concatenate (derate_of multiplies them), bank/straggler extras
  /// concatenate (their accessors sum). The result of merging two
  /// check()-clean specs is check()-clean as long as a controller survives.
  [[nodiscard]] static FaultSpec merged(const FaultSpec& a, const FaultSpec& b);

  /// Human-readable one-liner ("mc0:off mc1:derate=0.5 ...", "healthy").
  /// Doubles print with shortest-round-trip precision, so the output
  /// re-parses to an identical spec.
  [[nodiscard]] std::string describe() const;

  /// Parses the bench `--fault` grammar: comma-separated items of
  ///   mc<i>:off            offline controller i
  ///   mc<i>:derate=<f>     derate controller i to rate factor f
  ///   mc<i>:flip=<r>       flip one bit per read on controller i w.p. r
  ///   bank<i>:slow=<c>     add c busy cycles to global L2 bank i
  ///   strand<t>:lag=<c>    add c cycles to every access of thread t
  ///   sock<i>:off          offline socket i's memory domain
  ///   sock<i>:derate=<f>   derate socket i's memory side to factor f
  ///   link<i>-<j>:off      offline the i<->j inter-socket link
  ///   link<i>-<j>:derate=<f>  derate the i<->j link to factor f
  /// An empty string parses to the healthy spec. The result is grammar-
  /// checked only; call check() against the chip's interleave afterwards.
  /// The FaultLimits overload additionally rejects indices at or beyond the
  /// configured topology at parse time.
  [[nodiscard]] static util::Expected<FaultSpec> parse(const std::string& text);
  [[nodiscard]] static util::Expected<FaultSpec> parse(const std::string& text,
                                                       const FaultLimits& limits);
};

/// Splits "a,b,c" into trimmed non-empty items: the item splitter of the
/// `--fault` grammar (FaultSpec::parse) and the `--schedule` grammar
/// (FaultSchedule::parse).
[[nodiscard]] std::vector<std::string> split_fault_items(const std::string& text);

}  // namespace mcopt::sim
