#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace mcopt::sim {

namespace {

/// Puts `tag` in slot 0 of a set, shifting slots [0, k) down by one (the old
/// slot k is overwritten).
template <typename Tag>
void push_front(Tag* slots, std::size_t k, Tag tag) {
  for (; k != 0; --k) slots[k] = slots[k - 1];
  slots[0] = tag;
}

}  // namespace

Cache::Cache(const arch::CacheGeometry& geometry, WritePolicy policy,
             bool index_hash)
    : geo_(geometry), policy_(policy) {
  geo_.validate();
  if (geo_.associativity > kMaxAssociativity)
    throw std::invalid_argument(
        "Cache: associativity " + std::to_string(geo_.associativity) +
        " exceeds the model's " + std::to_string(kMaxAssociativity) +
        "-way limit");
  line_bits_ = static_cast<unsigned>(std::countr_zero(geo_.line_bytes));
  set_bits_ = static_cast<unsigned>(std::countr_zero(geo_.num_sets()));
  set_mask_ = geo_.num_sets() - 1;
  // A single set has no index bits to hash into.
  index_hash_ = index_hash && set_bits_ != 0;
  ways_ = geo_.associativity;
  full_mask_ = ways_ == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << ways_) - 1;
  tags_.resize(geo_.num_sets() * ways_);
  dirty_.assign(geo_.num_sets(), 0);
  fill_.assign(geo_.num_sets(), 0);
}

void Cache::throw_tag_range(std::uint64_t line) const {
  throw std::out_of_range("Cache: address exceeds cache tag range (line " +
                          std::to_string(line) + ", limit 2^" +
                          std::to_string(addr_bits()) + " bytes)");
}

CacheOutcome Cache::access(arch::Addr addr, bool is_store) {
  const std::uint64_t line = line_of(addr);
  const std::size_t set = set_of(line);
  const Tag tag = tag_of(line);
  Tag* const slots = &tags_[set * ways_];
  const std::size_t fill = fill_[set];
  // Write-through sets are never dirty, so they never touch their mask.
  const bool write_back = policy_ == WritePolicy::kWriteBack;
  CacheOutcome outcome;

  std::size_t p = 0;
  while (p < fill && slots[p] != tag) ++p;
  if (p < fill) {
    outcome.hit = true;
    ++stats_.hits;
    if (p != 0) {
      // Slot p becomes the most recent: slots [0, p) age by one.
      push_front(slots, p, tag);
      if (write_back) {
        // The dirty bits rotate the same way: bit p to bit 0, [0, p) up one.
        std::uint64_t& dirty = dirty_[set];
        const std::uint64_t younger = dirty & ((std::uint64_t{1} << p) - 1);
        const std::uint64_t older = dirty & ~((std::uint64_t{2} << p) - 1);
        dirty = older | (younger << 1) | ((dirty >> p) & 1);
      }
    }
    if (is_store && write_back) dirty_[set] |= 1;
    return outcome;
  }

  ++stats_.misses;
  if (is_store && !write_back) return outcome;  // no allocate
  std::size_t last = fill;  // the slot the insertion shifts into
  if (fill == ways_) {
    last = ways_ - 1;  // least recently used
    ++stats_.evictions;
    if (write_back && ((dirty_[set] >> last) & 1) != 0) {
      ++stats_.writebacks;
      outcome.writeback_line = line_addr(set, slots[last]);
    }
  } else {
    fill_[set] = static_cast<std::uint8_t>(fill + 1);
  }
  push_front(slots, last, tag);
  if (write_back)
    dirty_[set] = ((dirty_[set] << 1) & full_mask_) | (is_store ? 1 : 0);
  return outcome;
}

CacheOutcome Cache::load(arch::Addr addr) { return access(addr, false); }

CacheOutcome Cache::store(arch::Addr addr) { return access(addr, true); }

bool Cache::probe(arch::Addr addr) const {
  const std::uint64_t line = line_of(addr);
  const std::size_t set = set_of(line);
  const Tag tag = tag_of(line);
  const Tag* const slots = &tags_[set * ways_];
  return std::find(slots, slots + fill_[set], tag) != slots + fill_[set];
}

void Cache::clear(bool clear_stats) {
  std::fill(dirty_.begin(), dirty_.end(), 0);
  std::fill(fill_.begin(), fill_.end(), 0);
  if (clear_stats) stats_ = CacheStats{};
}

}  // namespace mcopt::sim
