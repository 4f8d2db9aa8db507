#include "sim/winner_tree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "util/prng.h"

namespace mcopt::sim {
namespace {

TEST(WinnerTree, StartsEmptyAndOrdersTiesById) {
  WinnerTree tree(5);
  EXPECT_TRUE(tree.empty());
  tree.set(3, 10);
  tree.set(1, 10);
  tree.set(4, 9);
  EXPECT_EQ(tree.top(), 4u);
  EXPECT_EQ(tree.top_time(), 9u);
  tree.idle(4);
  EXPECT_EQ(tree.top(), 1u);  // tied at 10: the smaller id wins
  EXPECT_EQ(tree.top_time(), 10u);
  tree.idle(1);
  tree.idle(3);
  EXPECT_TRUE(tree.empty());
}

TEST(WinnerTree, MaxTimeStaysBelowIdle) {
  for (unsigned leaves : {1u, 2u, 3u, 64u, 65u}) {
    WinnerTree tree(leaves);
    const unsigned last = leaves - 1;
    tree.set(last, tree.max_time());
    ASSERT_FALSE(tree.empty()) << leaves;
    EXPECT_EQ(tree.top(), last);
    EXPECT_EQ(tree.top_time(), tree.max_time());
  }
  // 64 leaves need 6 id bits, leaving 58 bits of time.
  EXPECT_EQ(WinnerTree(64).max_time(), (std::uint64_t{1} << 58) - 2);
  EXPECT_EQ(WinnerTree(1).max_time(), ~std::uint64_t{0} - 1);
}

TEST(WinnerTree, ResetIdlesEveryLeaf) {
  WinnerTree tree(4);
  tree.set(2, 7);
  tree.reset(31);
  EXPECT_TRUE(tree.empty());
  tree.set(30, 0);
  EXPECT_EQ(tree.top(), 30u);
}

// Differential check against an ordered set of (time, id) pairs, the order
// the chip's former binary heap popped in. Times come from a narrow range so
// ties are common, with occasional values at the top of the key range.
TEST(WinnerTree, MatchesOrderedSetReference) {
  for (unsigned leaves : {1u, 2u, 3u, 31u, 64u, 100u}) {
    WinnerTree tree(leaves);
    std::set<std::pair<std::uint64_t, unsigned>> ref;
    std::vector<std::optional<std::uint64_t>> armed(leaves);
    util::Xoshiro256 rng(0x5eed + leaves);

    const auto arm = [&](unsigned id, std::uint64_t time) {
      if (armed[id]) ref.erase({*armed[id], id});
      armed[id] = time;
      ref.insert({time, id});
      tree.set(id, time);
    };
    const auto draw_time = [&](std::uint64_t floor) -> std::uint64_t {
      if (rng.below(64) == 0) return tree.max_time() - rng.below(4);
      return floor + rng.below(8);
    };

    for (int op = 0; op < 20000; ++op) {
      const unsigned id = static_cast<unsigned>(rng.below(leaves));
      switch (rng.below(4)) {
        case 0:  // run the earliest thread: its clock moves forward
          if (!ref.empty()) {
            const auto [time, top] = *ref.begin();
            arm(top, time < tree.max_time() - 8 ? draw_time(time) : time);
          }
          break;
        case 1:  // update any leaf, idle or not
          arm(id, draw_time(0));
          break;
        case 2:  // park or retire
          if (armed[id]) ref.erase({*armed[id], id});
          armed[id].reset();
          tree.idle(id);
          break;
        default:  // re-arm an idle leaf (lockstep release)
          if (!armed[id]) arm(id, draw_time(0));
          break;
      }
      ASSERT_EQ(tree.empty(), ref.empty()) << "leaves " << leaves << " op " << op;
      if (!ref.empty()) {
        ASSERT_EQ(tree.top_time(), ref.begin()->first)
            << "leaves " << leaves << " op " << op;
        ASSERT_EQ(tree.top(), ref.begin()->second)
            << "leaves " << leaves << " op " << op;
      }
    }
  }
}

}  // namespace
}  // namespace mcopt::sim
