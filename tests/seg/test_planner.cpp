#include "seg/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace mcopt::seg {
namespace {

TEST(StreamPlan, OffsetsAreControllerStrides) {
  const arch::AddressMap map;
  const StreamPlan plan = plan_stream_offsets(4, map);
  // The paper's optimum for the vector triad: 0, 128, 256, 384 bytes.
  EXPECT_EQ(plan.offsets, (std::vector<std::size_t>{0, 128, 256, 384}));
}

TEST(StreamPlan, OffsetsWrapModuloPeriod) {
  const arch::AddressMap map;
  const StreamPlan plan = plan_stream_offsets(6, map);
  EXPECT_EQ(plan.offsets[4], 0u);
  EXPECT_EQ(plan.offsets[5], 128u);
}

TEST(StreamPlan, PlannedBasesCoverDistinctControllers) {
  const arch::AddressMap map;
  const StreamPlan plan = plan_stream_offsets(4, map);
  std::set<unsigned> controllers;
  for (std::size_t k = 0; k < 4; ++k) {
    // Any page-aligned base plus the planned offset.
    const arch::Addr base = 0x10000 * 8192 + plan.offsets[k];
    controllers.insert(map.controller_of(base));
  }
  EXPECT_EQ(controllers.size(), 4u);
}

TEST(StreamPlan, SpecForCarriesOffset) {
  const arch::AddressMap map;
  const StreamPlan plan = plan_stream_offsets(3, map);
  const LayoutSpec spec = plan.spec_for(2);
  EXPECT_EQ(spec.offset, 256u);
  EXPECT_GE(spec.base_align, 8192u);
  EXPECT_EQ(spec.shift, 0u);
}

TEST(StreamPlan, PlannedLayoutIsPerfectlyBalanced) {
  const arch::AddressMap map;
  const StreamPlan plan = plan_stream_offsets(4, map);
  std::vector<arch::Addr> bases;
  for (std::size_t k = 0; k < 4; ++k)
    bases.push_back(arch::Addr{8192} * (k + 1) * 1000 + plan.offsets[k]);
  EXPECT_DOUBLE_EQ(map.lockstep_balance(bases, 8), 1.0);
}

TEST(RowPlan, MatchesPaperParameters) {
  const arch::AddressMap map;
  const RowPlan plan = plan_row_layout(map);
  // Sect. 2.3: rows aligned to 512 bytes, shift = 128 bytes.
  EXPECT_EQ(plan.segment_align, 512u);
  EXPECT_EQ(plan.shift, 128u);
  const LayoutSpec spec = plan.spec();
  EXPECT_EQ(spec.segment_align, 512u);
  EXPECT_EQ(spec.shift, 128u);
  EXPECT_EQ(spec.offset, 0u);
}

TEST(RowPlan, SuccessiveRowsHitSuccessiveControllers) {
  const arch::AddressMap map;
  const RowPlan plan = plan_row_layout(map);
  // Row s starts at s*(512 + ...) hmm: aligned to 512 then shifted s*128;
  // relative controller of row s's start = s mod 4.
  for (unsigned s = 0; s < 8; ++s) {
    const arch::Addr start = arch::Addr{s} * plan.segment_align + s * plan.shift;
    EXPECT_EQ(map.controller_of(start), s % 4) << "row " << s;
  }
}

TEST(Diagnose, FullyAliasedStreams) {
  const arch::AddressMap map;
  const std::vector<arch::Addr> bases = {0, 512, 1024};
  const AliasReport report = diagnose_streams(bases, map);
  EXPECT_TRUE(report.fully_aliased);
  EXPECT_DOUBLE_EQ(report.balance, 0.25);
  EXPECT_EQ(report.base_controller, (std::vector<unsigned>{0, 0, 0}));
  EXPECT_NE(report.summary.find("FULLY-ALIASED"), std::string::npos);
}

TEST(Diagnose, BalancedStreams) {
  const arch::AddressMap map;
  const std::vector<arch::Addr> bases = {0, 128, 256, 384};
  const AliasReport report = diagnose_streams(bases, map);
  EXPECT_FALSE(report.fully_aliased);
  EXPECT_DOUBLE_EQ(report.balance, 1.0);
  EXPECT_EQ(report.base_controller, (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(Diagnose, EmptyInputIsNotAliased) {
  const arch::AddressMap map;
  EXPECT_THROW(diagnose_streams({}, map), std::invalid_argument);
}

TEST(StreamPlanDegraded, OffsetsLandOnTheGivenSurvivors) {
  const arch::AddressMap map;
  const std::vector<unsigned> surviving = {1, 3};
  const StreamPlan plan = plan_stream_offsets(4, map, surviving);
  // Stream k lands on surviving[k % 2].
  EXPECT_EQ(plan.offsets, (std::vector<std::size_t>{128, 384, 128, 384}));
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_EQ(map.controller_of(plan.offsets[k]), surviving[k % 2]);
}

TEST(StreamPlanDegraded, RejectsBadSurvivorSets) {
  const arch::AddressMap map;
  EXPECT_THROW(plan_stream_offsets(2, map, std::vector<unsigned>{}),
               std::invalid_argument);
  EXPECT_THROW(plan_stream_offsets(2, map, std::vector<unsigned>{0, 9}),
               std::invalid_argument);
  EXPECT_THROW(plan_stream_offsets(2, map, std::vector<unsigned>{1, 1}),
               std::invalid_argument);
}

// Property: for EVERY non-empty subset of surviving controllers and every
// stream count <= |subset|, the planned bases map to pairwise-distinct
// surviving controllers — no two concurrent streams may collide on a
// healthy controller.
TEST(StreamPlanDegraded, ConcurrentStreamsNeverShareASurvivor) {
  const arch::AddressMap map;
  for (unsigned mask = 1; mask < 16; ++mask) {
    std::vector<unsigned> surviving;
    for (unsigned c = 0; c < 4; ++c)
      if (mask & (1u << c)) surviving.push_back(c);
    for (std::size_t streams = 1; streams <= surviving.size(); ++streams) {
      const StreamPlan plan = plan_stream_offsets(streams, map, surviving);
      std::set<unsigned> used;
      for (std::size_t k = 0; k < streams; ++k) {
        const arch::Addr base = arch::Addr{8192} * (k + 5) + plan.offsets[k];
        const unsigned mc = map.controller_of(base);
        EXPECT_TRUE(used.insert(mc).second)
            << "mask " << mask << ": streams " << streams
            << " collide on controller " << mc;
        EXPECT_NE(std::find(surviving.begin(), surviving.end(), mc),
                  surviving.end())
            << "mask " << mask << ": stream " << k << " on dead controller";
      }
    }
  }
}

TEST(StreamPlanDegraded, PropertyHoldsOnCustomInterleave) {
  // 8 controllers, 64 B lines: same invariant on a non-T2 map.
  const arch::InterleaveSpec il{6, 1, 3};
  const arch::AddressMap map(il);
  const std::vector<unsigned> surviving = {0, 2, 5, 7};
  const StreamPlan plan =
      plan_stream_offsets(surviving.size(), map, surviving);
  std::set<unsigned> used;
  for (std::size_t k = 0; k < surviving.size(); ++k)
    used.insert(map.controller_of(plan.offsets[k]));
  EXPECT_EQ(used, std::set<unsigned>(surviving.begin(), surviving.end()));
}

TEST(RowPlanDegraded, ShiftCycleWalksTheSurvivors) {
  const arch::AddressMap map;
  const std::vector<unsigned> surviving = {0, 2, 3};
  const RowPlan plan = plan_row_layout(map, surviving);
  EXPECT_EQ(plan.shift_cycle, (std::vector<std::size_t>{0, 256, 384}));
  const LayoutSpec spec = plan.spec();
  EXPECT_EQ(spec.shift, 0u);
  EXPECT_EQ(spec.shift_cycle, plan.shift_cycle);
  // Row s (512-aligned + cycle displacement) lands on surviving[s % 3].
  for (unsigned s = 0; s < 9; ++s) {
    const arch::Addr start =
        arch::Addr{s} * 8192 + plan.shift_cycle[s % surviving.size()];
    EXPECT_EQ(map.controller_of(start), surviving[s % surviving.size()])
        << "row " << s;
  }
}

TEST(RowPlanDegraded, FullComplementMatchesHealthyRecipe) {
  // With all controllers alive the cycle is {0,128,256,384} — the same orbit
  // the healthy s*128 shift produces modulo the 512 B period.
  const arch::AddressMap map;
  const RowPlan plan = plan_row_layout(map, std::vector<unsigned>{0, 1, 2, 3});
  EXPECT_EQ(plan.shift_cycle, (std::vector<std::size_t>{0, 128, 256, 384}));
}

TEST(Planner, CustomInterleave) {
  // 2 controllers, 128 B lines: stride = period/2 = 512 B.
  const arch::InterleaveSpec spec{7, 2, 1};
  const arch::AddressMap map(spec);
  const StreamPlan plan = plan_stream_offsets(2, map);
  EXPECT_EQ(plan.offsets, (std::vector<std::size_t>{0, 512}));
  const RowPlan rows = plan_row_layout(map);
  EXPECT_EQ(rows.segment_align, 1024u);
  EXPECT_EQ(rows.shift, 512u);
}

TEST(Planner, FullSetIsTheSurvivingSetOfAllControllers) {
  // k*stride mod period == (k mod C)*stride when period == C*stride, so the
  // healthy planner is the degraded one over every controller.
  for (const arch::InterleaveSpec spec :
       {arch::InterleaveSpec{}, arch::InterleaveSpec{7, 2, 1}}) {
    const arch::AddressMap map(spec);
    std::vector<unsigned> all(spec.num_controllers());
    for (unsigned c = 0; c < all.size(); ++c) all[c] = c;
    for (std::size_t k = 1; k <= 9; ++k) {
      const StreamPlan full = plan_stream_offsets(k, map);
      const StreamPlan subset = plan_stream_offsets(k, map, all);
      EXPECT_EQ(full.base_align, subset.base_align) << "k=" << k;
      EXPECT_EQ(full.offsets, subset.offsets) << "k=" << k;
    }
  }
}

}  // namespace
}  // namespace mcopt::seg
