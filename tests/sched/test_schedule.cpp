#include "sched/schedule.h"

#include <gtest/gtest.h>

#include <vector>

namespace mcopt::sched {
namespace {

TEST(Schedule, Describe) {
  EXPECT_EQ(Schedule::static_block().describe(), "static");
  EXPECT_EQ(Schedule::static_chunk(1).describe(), "static,1");
  EXPECT_EQ((Schedule{ScheduleKind::kDynamic, 4}).describe(), "dynamic,4");
}

TEST(StaticBlock, LibgompSplit) {
  // n=10, T=4: libgomp gives 3,3,2,2 contiguous.
  const Schedule s = Schedule::static_block();
  EXPECT_EQ(chunks_for_thread(10, 4, 0, s), (std::vector<IterRange>{{0, 3}}));
  EXPECT_EQ(chunks_for_thread(10, 4, 1, s), (std::vector<IterRange>{{3, 6}}));
  EXPECT_EQ(chunks_for_thread(10, 4, 2, s), (std::vector<IterRange>{{6, 8}}));
  EXPECT_EQ(chunks_for_thread(10, 4, 3, s), (std::vector<IterRange>{{8, 10}}));
}

TEST(StaticBlock, FewerIterationsThanThreads) {
  const Schedule s = Schedule::static_block();
  EXPECT_EQ(chunks_for_thread(2, 4, 0, s), (std::vector<IterRange>{{0, 1}}));
  EXPECT_EQ(chunks_for_thread(2, 4, 1, s), (std::vector<IterRange>{{1, 2}}));
  EXPECT_TRUE(chunks_for_thread(2, 4, 2, s).empty());
  EXPECT_TRUE(chunks_for_thread(2, 4, 3, s).empty());
}

TEST(StaticChunk, RoundRobin) {
  const Schedule s = Schedule::static_chunk(1);
  EXPECT_EQ(chunks_for_thread(7, 3, 0, s),
            (std::vector<IterRange>{{0, 1}, {3, 4}, {6, 7}}));
  EXPECT_EQ(chunks_for_thread(7, 3, 1, s),
            (std::vector<IterRange>{{1, 2}, {4, 5}}));
  EXPECT_EQ(chunks_for_thread(7, 3, 2, s),
            (std::vector<IterRange>{{2, 3}, {5, 6}}));
}

TEST(StaticChunk, ChunkLargerThanOne) {
  const Schedule s = Schedule::static_chunk(3);
  EXPECT_EQ(chunks_for_thread(10, 2, 0, s),
            (std::vector<IterRange>{{0, 3}, {6, 9}}));
  EXPECT_EQ(chunks_for_thread(10, 2, 1, s),
            (std::vector<IterRange>{{3, 6}, {9, 10}}));
}

TEST(StaticChunk, ZeroChunkTreatedAsOne) {
  const Schedule s{ScheduleKind::kStaticChunk, 0};
  EXPECT_EQ(chunks_for_thread(2, 2, 0, s), (std::vector<IterRange>{{0, 1}}));
}

TEST(Schedule, ZeroIterations) {
  for (const Schedule& s :
       {Schedule::static_block(), Schedule::static_chunk(2)}) {
    EXPECT_TRUE(chunks_for_thread(0, 4, 0, s).empty());
  }
}

TEST(Schedule, InvalidArguments) {
  const Schedule s = Schedule::static_block();
  EXPECT_THROW(chunks_for_thread(10, 0, 0, s), std::invalid_argument);
  EXPECT_THROW(chunks_for_thread(10, 4, 4, s), std::invalid_argument);
}

struct PartitionCase {
  std::size_t n;
  unsigned threads;
  Schedule schedule;
};

class PartitionProperty : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionProperty, DisjointAndCovering) {
  const auto& param = GetParam();
  const auto parts = partition(param.n, param.threads, param.schedule);
  ASSERT_EQ(parts.size(), param.threads);
  std::vector<int> covered(param.n, 0);
  for (const auto& chunks : parts)
    for (const IterRange& r : chunks) {
      ASSERT_LE(r.begin, r.end);
      ASSERT_LE(r.end, param.n);
      for (std::size_t i = r.begin; i < r.end; ++i) ++covered[i];
    }
  for (std::size_t i = 0; i < param.n; ++i)
    ASSERT_EQ(covered[i], 1) << "iteration " << i;
}

// Constant-initialized, so every padding byte is zero. The test names print
// the parameter's raw bytes and must not change from build to build.
constexpr PartitionCase kPartitionCases[] = {
    {100, 7, Schedule::static_block()},   {64, 64, Schedule::static_block()},
    {63, 64, Schedule::static_block()},   {1000, 3, Schedule::static_chunk(1)},
    {1000, 3, Schedule::static_chunk(17)}, {5, 8, Schedule::static_chunk(2)},
    {998, 64, {ScheduleKind::kDynamic, 4}}, {1, 1, Schedule::static_block()}};

INSTANTIATE_TEST_SUITE_P(Cases, PartitionProperty, ::testing::ValuesIn(kPartitionCases));

TEST(Collapse2, RoundTrips) {
  const Collapse2 c{7, 13};
  EXPECT_EQ(c.size(), 91u);
  for (std::size_t i = 0; i < c.n_outer; ++i)
    for (std::size_t j = 0; j < c.n_inner; ++j) {
      const std::size_t flat = c.flatten(i, j);
      EXPECT_EQ(c.outer(flat), i);
      EXPECT_EQ(c.inner(flat), j);
    }
}

TEST(Collapse2, FlatIndexIsRowMajor) {
  const Collapse2 c{3, 4};
  EXPECT_EQ(c.flatten(0, 0), 0u);
  EXPECT_EQ(c.flatten(0, 3), 3u);
  EXPECT_EQ(c.flatten(1, 0), 4u);
  EXPECT_EQ(c.flatten(2, 3), 11u);
}

}  // namespace
}  // namespace mcopt::sched
