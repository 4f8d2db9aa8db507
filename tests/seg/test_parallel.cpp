#include "seg/parallel.h"

#include <gtest/gtest.h>

#include "seg/algorithms.h"

namespace mcopt::seg {
namespace {

LayoutSpec spec512() {
  LayoutSpec spec;
  spec.base_align = 8192;
  spec.segment_align = 512;
  return spec;
}

TEST(ParFill, FillsEverything) {
  auto a = seg_array<double>::even(10001, 16, spec512());
  par_fill(a, 3.5);
  for (double v : a) ASSERT_DOUBLE_EQ(v, 3.5);
}

TEST(ParForEach, AppliesToEveryElement) {
  auto a = seg_array<double>::even(999, 7, spec512());
  par_fill(a, 1.0);
  par_for_each(a, [](double& v) { v *= 2.0; });
  EXPECT_DOUBLE_EQ(par_sum(a), 2.0 * 999);
}

TEST(ParTransform, MatchesSerial) {
  auto in = seg_array<double>::even(5000, 8, spec512());
  auto out = seg_array<double>::even(5000, 8, spec512());
  double v = 0.0;
  for (auto it = in.begin(); it != in.end(); ++it) *it = v++;
  par_transform(in, out, [](double x) { return x * x; },
                sched::Schedule::static_chunk(1));
  for (std::size_t i = 0; i < in.size(); ++i)
    ASSERT_DOUBLE_EQ(out[i], in[i] * in[i]);
}

TEST(ParTransform, RejectsMismatchedSegmentation) {
  auto in = seg_array<double>::even(100, 4, spec512());
  auto out = seg_array<double>::even(100, 5, spec512());
  EXPECT_THROW(par_transform(in, out, [](double x) { return x; }),
               std::invalid_argument);
}

TEST(ParSum, MatchesSerialAccumulate) {
  auto a = seg_array<double>::even(12345, 64, spec512());
  double v = 1.0;
  for (auto it = a.begin(); it != a.end(); ++it) *it = v++;
  EXPECT_DOUBLE_EQ(par_sum(a), accumulate(a.begin(), a.end(), 0.0));
}

class ParScheduleTest : public ::testing::TestWithParam<sched::Schedule> {};

TEST_P(ParScheduleTest, SumIndependentOfSchedule) {
  auto a = seg_array<double>::even(4096, 16, spec512());
  par_fill(a, 0.5);
  EXPECT_DOUBLE_EQ(par_sum(a, GetParam()), 2048.0);
}

// Constant-initialized, so the padding after `kind` is zero. The test names
// print the parameter's raw bytes and must not change from build to build.
constexpr sched::Schedule kSchedules[] = {
    sched::Schedule::static_block(), sched::Schedule::static_chunk(1),
    sched::Schedule::static_chunk(3), sched::Schedule{sched::ScheduleKind::kDynamic, 2}};

INSTANTIATE_TEST_SUITE_P(Schedules, ParScheduleTest, ::testing::ValuesIn(kSchedules));

}  // namespace
}  // namespace mcopt::seg
