#pragma once
// Test oracle: the per-way timestamp cache model that sim::Cache replaced,
// kept verbatim apart from its name and header-only form. Every way holds a
// u64 tag, a u64 LRU stamp from a per-cache clock and a dirty flag; the
// victim is an invalid way, else the way with the lowest stamp. With index
// hashing the tag is the full line index.
//
// tests/sim/test_cache_differential.cpp drives it and sim::Cache through
// the same random operation streams and requires identical outcomes and
// statistics after every operation.

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/cache.h"

namespace mcopt::sim::testing {

class ReferenceCache {
 public:
  using WritePolicy = Cache::WritePolicy;

  ReferenceCache(const arch::CacheGeometry& geometry, WritePolicy policy,
                 bool index_hash = false)
      : geo_(geometry), policy_(policy), index_hash_(index_hash) {
    geo_.validate();
    line_bits_ = static_cast<unsigned>(std::countr_zero(geo_.line_bytes));
    set_bits_ = static_cast<unsigned>(std::countr_zero(geo_.num_sets()));
    set_mask_ = geo_.num_sets() - 1;
    ways_.resize(geo_.num_sets() * geo_.associativity);
  }

  CacheOutcome load(arch::Addr addr) {
    const std::uint64_t line = line_of(addr);
    const std::size_t set = set_of(line);
    const std::uint64_t tag = tag_of(line);
    CacheOutcome outcome;
    if (Way* way = find(set, tag)) {
      outcome.hit = true;
      touch(*way);
      ++stats_.hits;
      return outcome;
    }
    ++stats_.misses;
    Way& v = victim(set);
    if (v.tag != Way::kInvalid) {
      ++stats_.evictions;
      if (v.dirty) {
        ++stats_.writebacks;
        outcome.writeback_line = line_addr(set, v.tag);
      }
    }
    v.tag = tag;
    v.dirty = false;
    touch(v);
    return outcome;
  }

  CacheOutcome store(arch::Addr addr) {
    const std::uint64_t line = line_of(addr);
    const std::size_t set = set_of(line);
    const std::uint64_t tag = tag_of(line);
    CacheOutcome outcome;
    if (Way* way = find(set, tag)) {
      outcome.hit = true;
      touch(*way);
      if (policy_ == WritePolicy::kWriteBack) way->dirty = true;
      ++stats_.hits;
      return outcome;
    }
    ++stats_.misses;
    if (policy_ == WritePolicy::kWriteThrough) return outcome;  // no allocate
    Way& v = victim(set);
    if (v.tag != Way::kInvalid) {
      ++stats_.evictions;
      if (v.dirty) {
        ++stats_.writebacks;
        outcome.writeback_line = line_addr(set, v.tag);
      }
    }
    v.tag = tag;
    v.dirty = true;
    touch(v);
    return outcome;
  }

  [[nodiscard]] bool probe(arch::Addr addr) const {
    const std::uint64_t line = line_of(addr);
    const std::size_t set = set_of(line);
    const std::uint64_t tag = tag_of(line);
    const Way* base = &ways_[set * geo_.associativity];
    for (std::size_t w = 0; w < geo_.associativity; ++w)
      if (base[w].tag == tag) return true;
    return false;
  }

  void clear(bool clear_stats = true) {
    for (auto& way : ways_) way = Way{};
    lru_clock_ = 0;
    if (clear_stats) stats_ = CacheStats{};
  }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Way {
    std::uint64_t tag = kInvalid;
    std::uint64_t lru = 0;  ///< higher = more recently used
    bool dirty = false;

    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
  };

  Way* find(std::size_t set, std::uint64_t tag) {
    Way* base = &ways_[set * geo_.associativity];
    for (std::size_t w = 0; w < geo_.associativity; ++w)
      if (base[w].tag == tag) return &base[w];
    return nullptr;
  }

  Way& victim(std::size_t set) {
    Way* base = &ways_[set * geo_.associativity];
    Way* best = base;
    for (std::size_t w = 1; w < geo_.associativity; ++w) {
      // Invalid ways are preferred victims; otherwise lowest LRU stamp.
      if (base[w].tag == Way::kInvalid) return base[w];
      if (best->tag != Way::kInvalid && base[w].lru < best->lru) best = &base[w];
    }
    return *best;
  }

  void touch(Way& way) { way.lru = ++lru_clock_; }

  [[nodiscard]] std::uint64_t line_of(arch::Addr addr) const noexcept {
    return addr >> line_bits_;
  }
  [[nodiscard]] std::size_t set_of(std::uint64_t line) const noexcept {
    if (!index_hash_) return static_cast<std::size_t>(line) & set_mask_;
    // XOR-fold the bits above the index into the index.
    std::uint64_t folded = line;
    std::uint64_t acc = 0;
    while (folded != 0) {
      acc ^= folded;
      folded >>= set_bits_;
    }
    return static_cast<std::size_t>(acc) & set_mask_;
  }
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t line) const noexcept {
    return index_hash_ ? line : line >> set_bits_;
  }
  [[nodiscard]] arch::Addr line_addr(std::size_t set,
                                     std::uint64_t tag) const noexcept {
    return index_hash_ ? tag << line_bits_
                       : ((tag << set_bits_) | set) << line_bits_;
  }

  arch::CacheGeometry geo_;
  WritePolicy policy_;
  bool index_hash_ = false;
  unsigned line_bits_ = 0;
  unsigned set_bits_ = 0;
  std::size_t set_mask_ = 0;
  std::uint64_t lru_clock_ = 0;
  std::vector<Way> ways_;  ///< num_sets * associativity, set-major
  CacheStats stats_;
};

}  // namespace mcopt::sim::testing
