#pragma once
// Physical-address-to-resource mapping of the UltraSPARC T2 memory subsystem.
//
// Per the OpenSPARC T2 specification (and Sect. 1 of the paper): bits 8:7 of
// the physical address select one of four memory controllers (MCUs), bit 6
// selects which of the controller's two L2 banks serves the line, and bits
// 5:0 address bytes within the 64-byte L2 cache line. Consecutive cache lines
// are therefore served round-robin by consecutive banks/controllers with a
// 512-byte super-period. The mapping is exposed with configurable bit
// positions so tests and ablations can model hypothetical interleavings.

#include <cstddef>
#include <cstdint>
#include <span>

namespace mcopt::arch {

/// Physical (or, equivalently for >=4 KiB pages, virtual) byte address.
using Addr = std::uint64_t;

/// Describes an address-interleaving scheme: contiguous bit fields selecting
/// the memory controller and the L2 bank within the controller pair.
struct InterleaveSpec {
  unsigned line_bits = 6;      ///< log2(cache line size); T2: 64 B lines.
  unsigned bank_bits = 1;      ///< log2(banks per controller); T2: 2 banks/MC.
  unsigned controller_bits = 2;///< log2(controller count); T2: 4 MCs.

  [[nodiscard]] constexpr std::size_t line_size() const noexcept {
    return std::size_t{1} << line_bits;
  }
  [[nodiscard]] constexpr unsigned num_controllers() const noexcept {
    return 1u << controller_bits;
  }
  [[nodiscard]] constexpr unsigned banks_per_controller() const noexcept {
    return 1u << bank_bits;
  }
  [[nodiscard]] constexpr unsigned num_banks() const noexcept {
    return num_controllers() * banks_per_controller();
  }
  /// Bytes after which the controller pattern repeats (T2: 512 B).
  [[nodiscard]] constexpr std::size_t period_bytes() const noexcept {
    return std::size_t{1} << (line_bits + bank_bits + controller_bits);
  }
};

/// The T2 production mapping: 64 B lines, bit 6 -> bank, bits 8:7 -> MC.
inline constexpr InterleaveSpec kT2Interleave{};

/// Maps addresses to controllers, banks and lines under an InterleaveSpec.
class AddressMap {
 public:
  constexpr explicit AddressMap(InterleaveSpec spec = kT2Interleave) noexcept
      : spec_(spec) {}

  [[nodiscard]] constexpr const InterleaveSpec& spec() const noexcept { return spec_; }

  /// Cache-line index (address / line size).
  [[nodiscard]] constexpr std::uint64_t line_of(Addr a) const noexcept {
    return a >> spec_.line_bits;
  }

  /// Base address of the line containing `a`.
  [[nodiscard]] constexpr Addr line_base(Addr a) const noexcept {
    return a & ~static_cast<Addr>(spec_.line_size() - 1);
  }

  /// Memory-controller index in [0, num_controllers). T2: bits 8:7.
  [[nodiscard]] constexpr unsigned controller_of(Addr a) const noexcept {
    return static_cast<unsigned>(
        (a >> (spec_.line_bits + spec_.bank_bits)) &
        (spec_.num_controllers() - 1));
  }

  /// Bank index within the owning controller in [0, banks_per_controller).
  /// T2: bit 6.
  [[nodiscard]] constexpr unsigned bank_within_controller(Addr a) const noexcept {
    return static_cast<unsigned>((a >> spec_.line_bits) &
                                 (spec_.banks_per_controller() - 1));
  }

  /// Global L2 bank index in [0, num_banks). Consecutive lines map to
  /// consecutive global banks.
  [[nodiscard]] constexpr unsigned global_bank_of(Addr a) const noexcept {
    return static_cast<unsigned>((a >> spec_.line_bits) &
                                 (spec_.num_banks() - 1));
  }

  /// True if both addresses alias to the same controller.
  [[nodiscard]] constexpr bool same_controller(Addr a, Addr b) const noexcept {
    return controller_of(a) == controller_of(b);
  }

  /// Instantaneous controller-concurrency balance of a set of lock-stepped
  /// streams, the quantity behind the paper's Fig. 2/4 aliasing dips.
  ///
  /// Model: at step k every stream issues the line at base_i + k*line_size.
  /// The step costs max_c(#lines mapped to controller c) service slots, since
  /// lines on the same controller serialize while distinct controllers work
  /// concurrently. Returns total_lines / (num_controllers * sum_k cost_k):
  /// 1.0 when every step spreads across all controllers, 1/num_controllers
  /// when every step lands on a single controller (all bases congruent mod
  /// period_bytes()). Requires at least one stream and lines_per_stream >= 1;
  /// the pattern repeats with period_bytes(), so small counts suffice.
  [[nodiscard]] double lockstep_balance(std::span<const Addr> stream_bases,
                                        std::uint64_t lines_per_stream) const;

 private:
  InterleaveSpec spec_;
};

}  // namespace mcopt::arch
