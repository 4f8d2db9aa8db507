// Differential test: sim::Cache (recency-ordered u32 tags) against the
// per-way timestamp model it replaced (reference_cache.h). Both run the same
// random load/store/probe/clear streams; after every operation the outcome
// (hit, write-back line) and the statistics must be identical.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "reference_cache.h"
#include "sim/cache.h"
#include "util/prng.h"

namespace mcopt::sim {
namespace {

using testing::ReferenceCache;

struct Geometry {
  const char* name;
  arch::CacheGeometry geo;
  bool hash;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want,
                       std::size_t op) {
  ASSERT_EQ(got.hits, want.hits) << "op " << op;
  ASSERT_EQ(got.misses, want.misses) << "op " << op;
  ASSERT_EQ(got.evictions, want.evictions) << "op " << op;
  ASSERT_EQ(got.writebacks, want.writebacks) << "op " << op;
}

// Random lines biased toward a few hot sets, so sets fill, evict and reorder
// constantly. Tags come from a small per-run pool, larger than a set, that
// includes the top of the 32-bit range. With hashing the line's low bits are
// chosen so the line still lands in the drawn set.
class AddressGen {
 public:
  AddressGen(const arch::CacheGeometry& geo, bool hash, std::uint64_t seed)
      : rng_(seed),
        line_bits_(static_cast<unsigned>(std::countr_zero(geo.line_bytes))),
        set_bits_(static_cast<unsigned>(std::countr_zero(geo.num_sets()))),
        sets_(geo.num_sets()),
        hash_(hash) {
    const std::uint64_t top = std::uint64_t{0xffffffff};
    const std::size_t pool = geo.associativity * 3 + 2;
    for (std::size_t i = 0; i < pool; ++i) {
      // A third near 2^32 - 1, a third small, a third anywhere in 32 bits.
      switch (i % 3) {
        case 0: tags_.push_back(top - rng_.below(64)); break;
        case 1: tags_.push_back(rng_.below(256)); break;
        default: tags_.push_back(rng_() & top); break;
      }
    }
    for (std::size_t i = 0; i < 4; ++i) hot_sets_.push_back(rng_.below(sets_));
  }

  arch::Addr next() {
    const std::uint64_t set =
        rng_.below(8) != 0 ? hot_sets_[rng_.below(hot_sets_.size())]
                           : rng_.below(sets_);
    const std::uint64_t tag = tags_[rng_.below(tags_.size())];
    std::uint64_t low = set;
    if (hash_) {
      // The hashed set is low ^ fold(tag), fold = XOR of set_bits digits.
      std::uint64_t fold = 0;
      for (std::uint64_t x = tag; x != 0; x >>= set_bits_) fold ^= x;
      low = (set ^ fold) & (sets_ - 1);
    }
    const std::uint64_t line = (tag << set_bits_) | low;
    // Any byte inside the line.
    return (line << line_bits_) | rng_.below(std::uint64_t{1} << line_bits_);
  }

  util::Xoshiro256& rng() { return rng_; }

 private:
  util::Xoshiro256 rng_;
  unsigned line_bits_;
  unsigned set_bits_;
  std::uint64_t sets_;
  bool hash_;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> hot_sets_;
};

void run_differential(const Geometry& g, Cache::WritePolicy policy,
                      std::uint64_t seed, std::size_t ops) {
  Cache cache(g.geo, policy, g.hash);
  ReferenceCache ref(g.geo, policy, g.hash);
  AddressGen gen(g.geo, g.hash, seed);
  CacheStats total;  // across clear(true) resets
  const auto tally = [&total](const CacheStats& s) {
    total.hits += s.hits;
    total.evictions += s.evictions;
    total.writebacks += s.writebacks;
  };
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = gen.rng().below(1000);
    const arch::Addr addr = gen.next();
    if (kind < 500) {
      const CacheOutcome got = cache.load(addr);
      const CacheOutcome want = ref.load(addr);
      ASSERT_EQ(got.hit, want.hit) << "load op " << op << " addr " << addr;
      ASSERT_EQ(got.writeback_line, want.writeback_line) << "load op " << op;
    } else if (kind < 900) {
      const CacheOutcome got = cache.store(addr);
      const CacheOutcome want = ref.store(addr);
      ASSERT_EQ(got.hit, want.hit) << "store op " << op << " addr " << addr;
      ASSERT_EQ(got.writeback_line, want.writeback_line) << "store op " << op;
    } else if (kind < 999) {
      ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << "probe op " << op;
    } else {
      const bool clear_stats = gen.rng().below(2) != 0;
      if (clear_stats) tally(ref.stats());
      cache.clear(clear_stats);
      ref.clear(clear_stats);
    }
    expect_same_stats(cache.stats(), ref.stats(), op);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The streams must have exercised what they are meant to compare.
  tally(ref.stats());
  EXPECT_GT(total.hits, 0u);
  EXPECT_GT(total.evictions, 0u);
  if (policy == Cache::WritePolicy::kWriteBack) EXPECT_GT(total.writebacks, 0u);
}

const Geometry kGeometries[] = {
    {"L1D_8KiB_16B_4way", {8 * 1024, 16, 4}, false},
    {"L2_4MiB_64B_16way_hashed", {4 * 1024 * 1024, 64, 16}, true},
    {"L2_4MiB_64B_16way_unhashed", {4 * 1024 * 1024, 64, 16}, false},
    {"Direct_4KiB_64B_1way_hashed", {4 * 1024, 64, 1}, true},
    {"TwoWay_8KiB_32B_2way", {8 * 1024, 32, 2}, false},
    {"Wide_64KiB_64B_64way_hashed", {64 * 1024, 64, 64}, true},
    {"Wide_64KiB_64B_64way_unhashed", {64 * 1024, 64, 64}, false},
};

class CacheDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, Cache::WritePolicy>> {};

TEST_P(CacheDifferential, MatchesTimestampModel) {
  const auto [index, policy] = GetParam();
  const Geometry& g = kGeometries[index];
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SCOPED_TRACE(std::string(g.name) + " seed " + std::to_string(seed));
    run_differential(g, policy, seed, 100'000);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Combine(::testing::Range(std::size_t{0}, std::size(kGeometries)),
                       ::testing::Values(Cache::WritePolicy::kWriteBack,
                                         Cache::WritePolicy::kWriteThrough)),
    [](const auto& info) {
      return std::string(kGeometries[std::get<0>(info.param)].name) +
             (std::get<1>(info.param) == Cache::WritePolicy::kWriteBack
                  ? "_WriteBack"
                  : "_WriteThrough");
    });

// A tag past 32 bits must never be truncated into another line's tag.
TEST(Cache, AddressPastTagRangeThrows) {
  Cache c(arch::CacheGeometry{8 * 1024, 16, 4},
          Cache::WritePolicy::kWriteThrough);
  EXPECT_EQ(c.addr_bits(), 43u);
  const arch::Addr limit = arch::Addr{1} << 43;
  EXPECT_FALSE(c.load(limit - 1).hit);
  EXPECT_TRUE(c.probe(limit - 1));
  EXPECT_THROW((void)c.load(limit), std::out_of_range);
  EXPECT_THROW((void)c.store(limit), std::out_of_range);
  EXPECT_THROW((void)c.probe(limit), std::out_of_range);
  // Line limit - 1 and the truncated line 0 stay distinct.
  EXPECT_FALSE(c.probe(0));
  EXPECT_EQ(Cache(arch::CacheGeometry{4 * 1024 * 1024, 64, 16},
                  Cache::WritePolicy::kWriteBack, true)
                .addr_bits(),
            50u);
}

TEST(Cache, RejectsAssociativityWiderThanTheDirtyMask) {
  EXPECT_THROW(Cache(arch::CacheGeometry{128 * 64, 64, 128},
                     Cache::WritePolicy::kWriteBack),
               std::invalid_argument);
  EXPECT_NO_THROW(Cache(arch::CacheGeometry{64 * 64, 64, 64},
                        Cache::WritePolicy::kWriteBack));
}

}  // namespace
}  // namespace mcopt::sim
