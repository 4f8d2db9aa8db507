#pragma once
// Fixed-size winner tree over packed (time, id) keys: the chip DES's run
// queue.
//
// Every leaf is one thread; its key packs the thread's next event time and
// its id as (time << id_bits) | id, where id_bits is just wide enough for
// the largest id. An internal node holds the minimum of its two children,
// so the root is the thread to run next. Packed keys order exactly like the
// pairs (time, id) compared lexicographically, as long as
// time <= max_time(): the time fills the high bits and the id breaks ties
// in the low ones. A parked or retired thread holds kIdle (~0), which sorts
// after every valid key.
//
// A thread that runs rewrites its own leaf and recomputes the log2(width)
// ancestors on its path to the root: a fixed trip count and one min per
// level (a cmov), where a binary heap pays a pop plus a push with
// data-dependent compare branches.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mcopt::sim {

class WinnerTree {
 public:
  using Key = std::uint64_t;
  static constexpr Key kIdle = ~Key{0};

  WinnerTree() { reset(0); }
  explicit WinnerTree(unsigned leaves) { reset(leaves); }

  /// Resizes the tree to `leaves` leaves (ids 0..leaves-1), all idle.
  void reset(unsigned leaves) {
    id_bits_ = leaves <= 1 ? 0u : static_cast<unsigned>(std::bit_width(leaves - 1));
    width_ = std::bit_ceil(std::max(leaves, 1u));
    node_.assign(2 * std::size_t{width_}, kIdle);
  }

  /// Largest time a leaf may hold: below it, (time << id_bits) | id neither
  /// loses high bits nor collides with kIdle.
  [[nodiscard]] std::uint64_t max_time() const noexcept {
    return (kIdle >> id_bits_) - 1;
  }

  /// True when every leaf is idle.
  [[nodiscard]] bool empty() const noexcept { return node_[1] == kIdle; }
  /// Id of the minimum leaf (smallest time, then smallest id); requires !empty().
  [[nodiscard]] unsigned top() const noexcept {
    return static_cast<unsigned>(node_[1] & ((Key{1} << id_bits_) - 1));
  }
  /// Time of the minimum leaf; requires !empty().
  [[nodiscard]] std::uint64_t top_time() const noexcept {
    return node_[1] >> id_bits_;
  }

  /// Arms leaf `id` at `time`; requires id < leaves and time <= max_time().
  void set(unsigned id, std::uint64_t time) noexcept {
    update(id, (time << id_bits_) | id);
  }
  /// Idles leaf `id` (a parked or retired thread).
  void idle(unsigned id) noexcept { update(id, kIdle); }

 private:
  void update(unsigned id, Key key) noexcept {
    std::size_t i = width_ + id;
    node_[i] = key;
    // The parent of i becomes min(new key, sibling); carrying the running
    // minimum saves re-reading the node just written.
    for (; i > 1; i >>= 1) {
      key = std::min(key, node_[i ^ 1]);
      node_[i >> 1] = key;
    }
  }

  unsigned id_bits_ = 0;
  unsigned width_ = 1;     ///< leaf count rounded up to a power of two
  std::vector<Key> node_;  ///< node_[1] is the root; leaves at [width_, 2*width_)
};

}  // namespace mcopt::sim
