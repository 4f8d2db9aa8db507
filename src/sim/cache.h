#pragma once
// Set-associative cache model with true-LRU replacement, line granularity.
//
// Used for both the per-core write-through L1D and the shared write-back L2.
// The model tracks contents and dirtiness only; timing lives in the chip
// model. Power-of-two geometry is enforced so set indexing is mask-based,
// which is also what produces the paper's cache-thrashing effects for
// power-of-two array strides (Sect. 2.4).
//
// Layout: each set keeps a fill count and its valid u32 tags in recency
// order, most recent in slot 0, plus a u64 dirty mask whose bit k belongs to
// slot k. A hit at slot p shifts slots [0, p) down by one and puts the tag
// in slot 0; the dirty bits rotate the same way. A miss inserts at slot 0;
// when the set is full the last slot is the victim, and its write-back is
// reported if its dirty bit is set. The T2's 4 MiB, 16-way L2 takes ~292 KiB
// this way (64 B of tags, 8 B of dirty mask, 1 B of fill count per set).
//
// Why this is exact true LRU: a per-way timestamp model evicts an invalid
// way, else the lowest stamp. Stamps are unique and grow with every touch,
// so the lowest stamp is the least recently touched line, which is the last
// slot here, and a set with a free way is a set that is not full. Which
// physical way holds a line is never observable: an access reports only
// hit/miss and the evicted line's address.
//
// The tag is line >> set_bits, with and without index hashing. Under
// hashing it is still one-to-one within a set, because the line's low bits
// equal set ^ (fold(tag) & set_mask), so write-back addresses are rebuilt
// exactly. A tag must fit 32 bits: an address at or past 2^addr_bits()
// throws std::out_of_range instead of aliasing another line (sim::Chip
// checks its programs' addresses and fails the run before that).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "arch/address_map.h"
#include "arch/topology.h"

namespace mcopt::sim {

/// Result of a cache access.
struct CacheOutcome {
  bool hit = false;
  /// Line-granular address of a dirty line this access evicted (write-back
  /// caches only); kNoEviction if none.
  arch::Addr writeback_line = kNoEviction;

  static constexpr arch::Addr kNoEviction = ~arch::Addr{0};
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  [[nodiscard]] std::uint64_t accesses() const noexcept { return hits + misses; }
  [[nodiscard]] double miss_ratio() const noexcept {
    return accesses() == 0 ? 0.0
                           : static_cast<double>(misses) / static_cast<double>(accesses());
  }
};

/// Content/LRU model of one cache. Thread-compatible, not thread-safe: the
/// simulator serializes accesses through its event loop.
class Cache {
 public:
  enum class WritePolicy {
    kWriteBack,     ///< allocate on store miss, track dirty, evict with WB
    kWriteThrough,  ///< no allocate on store miss, never dirty (T2 L1D)
  };

  /// Widest associativity the layout holds: one dirty bit per way in a u64.
  static constexpr std::size_t kMaxAssociativity = 64;

  /// `index_hash` enables T2-style L2 index hashing: higher address bits are
  /// XOR-folded into the set index, which defuses the catastrophic set
  /// conflicts otherwise caused by power-of-two array strides (the real T2
  /// ships with L2 index hashing enabled; see the OpenSPARC T2 spec).
  /// Throws std::invalid_argument past kMaxAssociativity.
  Cache(const arch::CacheGeometry& geometry, WritePolicy policy,
        bool index_hash = false);

  /// Performs a load of the line containing `addr`. On miss the line is
  /// allocated (fill) and the LRU victim evicted.
  CacheOutcome load(arch::Addr addr);

  /// Performs a store to the line containing `addr`.
  /// Write-back: allocates on miss (the RFO read is the caller's job via the
  /// returned miss), marks dirty. Write-through: updates on hit, bypasses on
  /// miss (outcome.hit reports presence).
  CacheOutcome store(arch::Addr addr);

  /// True if the line containing addr is resident (no LRU update).
  [[nodiscard]] bool probe(arch::Addr addr) const;

  /// Drops all contents and (optionally) statistics.
  void clear(bool clear_stats = true);

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const arch::CacheGeometry& geometry() const noexcept { return geo_; }

  /// Every address below 2^addr_bits() fits the 32-bit tags (64 = all do).
  [[nodiscard]] unsigned addr_bits() const noexcept {
    return std::min(64u, 32u + set_bits_ + line_bits_);
  }

 private:
  using Tag = std::uint32_t;
  static constexpr std::uint64_t kMaxTag = std::numeric_limits<Tag>::max();

  /// Load (is_store = false) or store of the line containing `addr`.
  CacheOutcome access(arch::Addr addr, bool is_store);

  [[nodiscard]] std::uint64_t line_of(arch::Addr addr) const noexcept {
    return addr >> line_bits_;
  }
  [[nodiscard]] std::size_t set_of(std::uint64_t line) const noexcept {
    if (!index_hash_) return static_cast<std::size_t>(line) & set_mask_;
    return static_cast<std::size_t>(line ^ fold(line >> set_bits_)) & set_mask_;
  }
  /// XOR of x's set_bits-wide digits (the bits above the index, folded).
  [[nodiscard]] std::uint64_t fold(std::uint64_t x) const noexcept {
    std::uint64_t acc = 0;
    for (; x != 0; x >>= set_bits_) acc ^= x;
    return acc;
  }
  /// Tag of `line` (throws std::out_of_range when it does not fit 32 bits).
  [[nodiscard]] Tag tag_of(std::uint64_t line) const {
    const std::uint64_t tag = line >> set_bits_;
    if (tag > kMaxTag) [[unlikely]]
      throw_tag_range(line);
    return static_cast<Tag>(tag);
  }
  [[noreturn]] void throw_tag_range(std::uint64_t line) const;
  [[nodiscard]] arch::Addr line_addr(std::size_t set, Tag tag) const noexcept {
    const std::uint64_t low =
        index_hash_ ? (set ^ fold(tag)) & set_mask_ : set;
    return ((std::uint64_t{tag} << set_bits_) | low) << line_bits_;
  }

  arch::CacheGeometry geo_;
  WritePolicy policy_;
  bool index_hash_ = false;
  unsigned line_bits_ = 0;
  unsigned set_bits_ = 0;
  std::size_t set_mask_ = 0;
  std::size_t ways_ = 0;               ///< associativity
  std::uint64_t full_mask_ = 0;        ///< dirty bits of a full set
  std::vector<Tag> tags_;              ///< num_sets * ways_, set-major, MRU first
  std::vector<std::uint64_t> dirty_;   ///< per set; bit k = slot k
  std::vector<std::uint8_t> fill_;     ///< valid slots per set
  CacheStats stats_;
};

}  // namespace mcopt::sim
