#pragma once
// Analytic layout planner — the paper's "no trial and error is required"
// claim (Sect. 2.3): given the address-to-controller map and the access
// properties of a kernel, derive alignment, offsets and shifts that spread
// concurrent streams across all memory controllers.
//
// Recipes implemented here, straight from the paper:
//   * multi-stream kernels (STREAM, vector triad): give stream k a base
//     offset of k * (period / num_controllers) bytes — 128, 256, 384 B for
//     the triad's B, C, D on T2 (Sect. 2.2, Fig. 4);
//   * row-segmented stencils (Jacobi): align each row to the full period
//     (512 B) and shift successive rows by period / num_controllers = 128 B
//     so concurrently processed rows hit different controllers (Sect. 2.3).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "arch/address_map.h"
#include "arch/numa.h"
#include "seg/layout.h"

namespace mcopt::seg {

/// A planned layout for a family of arrays used together in one kernel.
struct StreamPlan {
  /// Base alignment for every array (a page, so offsets are exact).
  std::size_t base_align = 8192;
  /// Per-array global offsets in bytes (entry k for array k).
  std::vector<std::size_t> offsets;

  /// LayoutSpec for array k with no internal segmentation.
  [[nodiscard]] LayoutSpec spec_for(std::size_t k) const;
};

/// Plans base offsets for `num_arrays` arrays traversed in lock-step.
/// Array k receives offset k * period / num_controllers (mod period).
[[nodiscard]] StreamPlan plan_stream_offsets(std::size_t num_arrays,
                                             const arch::AddressMap& map);

/// Graceful-degradation overload: plans offsets over an explicit surviving
/// controller subset (cf. sim::FaultSpec::surviving_controllers). Array k's
/// base lands on controller surviving[k % surviving.size()], so concurrent
/// streams never alias onto one *healthy* controller as long as
/// num_arrays <= surviving.size(). Throws std::invalid_argument when the set
/// is empty, out of range or contains duplicates.
[[nodiscard]] StreamPlan plan_stream_offsets(std::size_t num_arrays,
                                             const arch::AddressMap& map,
                                             std::span<const unsigned> surviving);

/// A planned layout for a row-segmented (stencil) array.
struct RowPlan {
  std::size_t base_align = 8192;
  /// Each row starts on a full-period boundary...
  std::size_t segment_align = 512;
  /// ...displaced by row_index * shift bytes.
  std::size_t shift = 128;
  /// Degraded-chip replanning: when non-empty, row s is displaced by
  /// shift_cycle[s % size] instead of s*shift, cycling rows through the
  /// surviving controllers only (LayoutSpec::shift_cycle semantics).
  std::vector<std::size_t> shift_cycle;

  [[nodiscard]] LayoutSpec spec() const;
};

/// Plans row alignment+shift for stencil kernels: rows aligned to the full
/// controller period, successive rows shifted by one controller stride.
[[nodiscard]] RowPlan plan_row_layout(const arch::AddressMap& map);

/// Graceful-degradation overload of the Jacobi row-shift recipe: row s is
/// displaced onto controller surviving[s % surviving.size()], so a static,1
/// schedule keeps concurrently processed rows on distinct healthy
/// controllers. Same argument validation as the stream overload.
[[nodiscard]] RowPlan plan_row_layout(const arch::AddressMap& map,
                                      std::span<const unsigned> surviving);

// ---------------------------------------------------------------------------
// NUMA sharding: the stream-offset recipe lifted to an N-socket node. Each
// surviving compute socket gets its own shard of arrays, homed in a surviving
// memory domain — its own when alive, else the cheapest reachable survivor by
// interconnect distance ("priced remote placement": per-line link cycles are
// the price; load ties break toward the emptier domain so orphaned sockets
// spread instead of piling onto one survivor). Within a domain, shards are
// rotated through the controller stride so co-homed shards do not alias onto
// the same controllers.

/// A node-wide stream layout: one shard per surviving compute socket.
struct NodeStreamPlan {
  struct Shard {
    unsigned compute_socket = 0;
    /// Memory domain serving this shard's arrays (== compute_socket when the
    /// placement is local).
    unsigned home_socket = 0;
    /// Per-line interconnect price of the chosen placement (0 = local).
    arch::Cycles link_cycles = 0;
    /// Controller-offset plan within the home domain.
    StreamPlan streams;
    /// Absolute planned base of each array: socket_base(home) + offset.
    std::vector<arch::Addr> bases;

    [[nodiscard]] bool remote() const noexcept {
      return home_socket != compute_socket;
    }
  };
  std::vector<Shard> shards;
  /// Fraction of shards placed remotely.
  double remote_fraction = 0.0;
  /// Human-readable one-line summary for logs.
  std::string summary;
};

/// Plans per-socket shards of `num_arrays` lock-step arrays each over the
/// surviving topology. `compute_sockets` are the sockets that will run work;
/// `memory_sockets` the domains still serving memory (both non-empty,
/// in-range, duplicate-free subsets of node.num_sockets — derive them from
/// sim::FaultSpec::surviving_sockets and link reachability). Throws
/// std::invalid_argument on bad subsets or num_arrays == 0.
[[nodiscard]] NodeStreamPlan plan_node_stream_shards(
    std::size_t num_arrays, const arch::AddressMap& map,
    const arch::NodeTopology& node, std::span<const unsigned> compute_sockets,
    std::span<const unsigned> memory_sockets);

/// Composable overload for shard-level rebalancing: `domain_load` (size
/// node.num_sockets) carries the number of shard families already homed in
/// each domain and is updated in place. The fail-back rebalancer plans one
/// logical job at a time — an orphaned job split across several survivors,
/// or a recovered job pulled back whole — and successive calls must rotate
/// against the node-wide allocation state, not re-alias each job
/// independently onto the same controllers. Throws on a wrong-sized load
/// vector.
[[nodiscard]] NodeStreamPlan plan_node_stream_shards(
    std::size_t num_arrays, const arch::AddressMap& map,
    const arch::NodeTopology& node, std::span<const unsigned> compute_sockets,
    std::span<const unsigned> memory_sockets,
    std::vector<unsigned>& domain_load);

/// Even element partition of one orphaned job across `parts` survivors:
/// entry i is shard i's element count, total/parts with the remainder spread
/// over the leading shards. Never returns zero-element shards (parts is
/// clamped to total). Throws on total == 0 or parts == 0.
[[nodiscard]] std::vector<std::size_t> split_shard_counts(std::size_t total,
                                                          std::size_t parts);

/// Diagnosis of a set of concurrently traversed stream base addresses.
struct AliasReport {
  /// lockstep balance factor in (0,1]; 1/num_controllers is worst case.
  double balance = 0.0;
  /// Controller index of each stream base.
  std::vector<unsigned> base_controller;
  /// True if every base maps to the same controller (the Fig. 2 zero-offset
  /// catastrophe).
  bool fully_aliased = false;
  /// Human-readable one-line summary for logs.
  std::string summary;
};

/// Diagnoses aliasing among stream bases advancing in lock-step.
[[nodiscard]] AliasReport diagnose_streams(std::span<const arch::Addr> bases,
                                           const arch::AddressMap& map);

}  // namespace mcopt::seg
