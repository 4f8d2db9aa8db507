#include "arch/address_map.h"

#include <gtest/gtest.h>

#include <vector>

namespace mcopt::arch {
namespace {

TEST(InterleaveSpec, T2Defaults) {
  EXPECT_EQ(kT2Interleave.line_size(), 64u);
  EXPECT_EQ(kT2Interleave.num_controllers(), 4u);
  EXPECT_EQ(kT2Interleave.banks_per_controller(), 2u);
  EXPECT_EQ(kT2Interleave.num_banks(), 8u);
  EXPECT_EQ(kT2Interleave.period_bytes(), 512u);
}

TEST(AddressMap, ControllerIsBits8To7) {
  const AddressMap map;
  // Bits 8:7 select the controller (Sect. 1 of the paper).
  EXPECT_EQ(map.controller_of(0x000), 0u);
  EXPECT_EQ(map.controller_of(0x080), 1u);
  EXPECT_EQ(map.controller_of(0x100), 2u);
  EXPECT_EQ(map.controller_of(0x180), 3u);
  EXPECT_EQ(map.controller_of(0x200), 0u);  // 512-byte period
}

TEST(AddressMap, BankIsBit6) {
  const AddressMap map;
  EXPECT_EQ(map.bank_within_controller(0x00), 0u);
  EXPECT_EQ(map.bank_within_controller(0x40), 1u);
  EXPECT_EQ(map.bank_within_controller(0x80), 0u);
}

TEST(AddressMap, ConsecutiveLinesWalkConsecutiveGlobalBanks) {
  const AddressMap map;
  for (Addr line = 0; line < 32; ++line)
    EXPECT_EQ(map.global_bank_of(line * 64), line % 8);
}

TEST(AddressMap, LineHelpers) {
  const AddressMap map;
  EXPECT_EQ(map.line_of(0), 0u);
  EXPECT_EQ(map.line_of(63), 0u);
  EXPECT_EQ(map.line_of(64), 1u);
  EXPECT_EQ(map.line_base(0x1234), 0x1200u);
}

TEST(AddressMap, OffsetsWithinLineShareController) {
  const AddressMap map;
  for (Addr base : {Addr{0}, Addr{1} << 20, Addr{123} * 512}) {
    for (Addr byte = 0; byte < 64; ++byte)
      EXPECT_EQ(map.controller_of(base + byte), map.controller_of(base));
  }
}

// Property: the controller pattern repeats with exactly period_bytes().
class PeriodicityTest : public ::testing::TestWithParam<Addr> {};

TEST_P(PeriodicityTest, FullPeriodIsInvariant) {
  const AddressMap map;
  const Addr a = GetParam();
  EXPECT_EQ(map.controller_of(a), map.controller_of(a + 512));
  EXPECT_EQ(map.controller_of(a), map.controller_of(a + 512 * 1000));
  EXPECT_EQ(map.global_bank_of(a), map.global_bank_of(a + 512));
}

INSTANTIATE_TEST_SUITE_P(AddressSweep, PeriodicityTest,
                         ::testing::Values(0, 64, 100, 127, 128, 255, 256, 384,
                                           511, 4096, 65536, (Addr{1} << 32) + 192));

TEST(LockstepBalance, CongruentBasesAreWorstCase) {
  const AddressMap map;
  // Three streams, all congruent mod 512: every step lands on one MC.
  const std::vector<Addr> bases = {0, 512 * 100, 512 * 999};
  EXPECT_DOUBLE_EQ(map.lockstep_balance(bases, 8), 0.25);
}

TEST(LockstepBalance, PlannedOffsetsAreOptimal) {
  const AddressMap map;
  // The paper's optimal vector-triad offsets: 0/128/256/384 bytes.
  const std::vector<Addr> bases = {0, 128, 256, 384};
  EXPECT_DOUBLE_EQ(map.lockstep_balance(bases, 8), 1.0);
}

TEST(LockstepBalance, TwoControllersIsHalf) {
  const AddressMap map;
  const std::vector<Addr> bases = {0, 256};  // bit 8 differs: MCs 0 and 2
  EXPECT_DOUBLE_EQ(map.lockstep_balance(bases, 8), 0.5);
}

TEST(LockstepBalance, SingleStreamIsQuarter) {
  const AddressMap map;
  // One stream can only address one controller at a time.
  const std::vector<Addr> bases = {0};
  EXPECT_DOUBLE_EQ(map.lockstep_balance(bases, 8), 0.25);
}

TEST(LockstepBalance, RejectsDegenerateInput) {
  const AddressMap map;
  EXPECT_THROW((void)map.lockstep_balance({}, 8), std::invalid_argument);
  const std::vector<Addr> bases = {0};
  EXPECT_THROW((void)map.lockstep_balance(bases, 0), std::invalid_argument);
}

// Property: balance is invariant under global translation by the period.
class BalanceTranslationTest : public ::testing::TestWithParam<Addr> {};

TEST_P(BalanceTranslationTest, TranslationInvariant) {
  const AddressMap map;
  const Addr shift = GetParam();
  const std::vector<Addr> a = {0, 128, 4096, 8192 + 256};
  std::vector<Addr> b;
  for (Addr base : a) b.push_back(base + shift * 512);
  EXPECT_DOUBLE_EQ(map.lockstep_balance(a, 16), map.lockstep_balance(b, 16));
}

INSTANTIATE_TEST_SUITE_P(Shifts, BalanceTranslationTest,
                         ::testing::Values(1, 2, 7, 100, 12345));

TEST(AddressMap, CustomInterleave) {
  // Hypothetical chip: 2 controllers, 128-byte lines, 4 banks each.
  const InterleaveSpec spec{7, 2, 1};
  const AddressMap map(spec);
  EXPECT_EQ(spec.line_size(), 128u);
  EXPECT_EQ(spec.num_controllers(), 2u);
  EXPECT_EQ(spec.period_bytes(), 1024u);
  EXPECT_EQ(map.controller_of(0), 0u);
  EXPECT_EQ(map.controller_of(512), 1u);
  EXPECT_EQ(map.controller_of(1024), 0u);
}

}  // namespace
}  // namespace mcopt::arch
