#include "runtime/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "kernels/jacobi.h"
#include "util/prng.h"

namespace mcopt::runtime {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mcopt_ckpt_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  fs::path dir_;
};

Checkpoint sample_checkpoint() {
  Checkpoint ckpt;
  ckpt.kind = 77;
  ckpt.iteration = 123456789;
  ckpt.user = {1, 2, 3, 4};
  ckpt.sections.push_back({0x00, 0xFF, 0x10, 0x20});
  ckpt.sections.push_back({});  // empty sections are legal
  std::vector<std::uint8_t> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31);
  ckpt.sections.push_back(std::move(big));
  return ckpt;
}

std::vector<std::uint8_t> read_file(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& p, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST_F(CheckpointTest, RoundTripPreservesEverything) {
  const Checkpoint ckpt = sample_checkpoint();
  const std::string p = path("ck");
  ASSERT_TRUE(save_checkpoint(p, ckpt).ok());
  EXPECT_FALSE(fs::exists(p + ".tmp")) << "temp file must be renamed away";
  auto loaded = load_checkpoint(p);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_EQ(loaded.value().kind, ckpt.kind);
  EXPECT_EQ(loaded.value().iteration, ckpt.iteration);
  EXPECT_EQ(loaded.value().user, ckpt.user);
  EXPECT_EQ(loaded.value().sections, ckpt.sections);
}

TEST_F(CheckpointTest, SaveOverwritesAtomically) {
  const std::string p = path("ck");
  Checkpoint first = sample_checkpoint();
  ASSERT_TRUE(save_checkpoint(p, first).ok());
  Checkpoint second = sample_checkpoint();
  second.iteration = 42;
  ASSERT_TRUE(save_checkpoint(p, second).ok());
  auto loaded = load_checkpoint(p);
  ASSERT_TRUE(loaded.has_value()) << loaded.error().message;
  EXPECT_EQ(loaded.value().iteration, 42u);
}

TEST_F(CheckpointTest, MissingFileIsTypedFailure) {
  auto loaded = load_checkpoint(path("nope"));
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().message.find("cannot open"), std::string::npos);
}

TEST_F(CheckpointTest, ForeignFileIsRejected) {
  const std::string p = path("notes.txt");
  write_file(p, {'h', 'e', 'l', 'l', 'o', ' ', 'w', 'o', 'r', 'l', 'd', '!',
                 ' ', 't', 'h', 'i', 's', ' ', 'i', 's', ' ', 'n', 'o', 't',
                 ' ', 'a', ' ', 'c', 'h', 'e', 'c', 'k', 'p', 'o', 'i', 'n',
                 't', ' ', 'f', 'i', 'l', 'e', ' ', 'a', 't', ' ', 'a', 'l',
                 'l', ',', ' ', 's', 'o', 'r', 'r', 'y', '.', '.', '.', '.',
                 '.', '.', '.', '.'});
  auto loaded = load_checkpoint(p);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().message.find("bad magic"), std::string::npos);
}

// The torn-write guarantee: truncating the file at ANY byte offset must
// produce a typed refusal, never a crash or a successful load.
TEST_F(CheckpointTest, TruncationAtEveryOffsetIsDetected) {
  const std::string p = path("ck");
  ASSERT_TRUE(save_checkpoint(p, sample_checkpoint()).ok());
  const std::vector<std::uint8_t> good = read_file(p);
  ASSERT_GT(good.size(), 100u);
  const std::string torn = path("torn");
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    write_file(torn, {good.begin(), good.begin() + cut});
    auto loaded = load_checkpoint(torn);
    ASSERT_FALSE(loaded.has_value()) << "load succeeded at cut=" << cut;
    ASSERT_FALSE(loaded.error().message.empty());
  }
}

// ... and so must a single flipped bit anywhere in the file (fuzz over a
// seeded sample of offsets plus every byte of header and section table).
TEST_F(CheckpointTest, BitFlipAtAnyOffsetIsDetected) {
  const std::string p = path("ck");
  ASSERT_TRUE(save_checkpoint(p, sample_checkpoint()).ok());
  const std::vector<std::uint8_t> good = read_file(p);
  auto roundtrips = load_checkpoint(p);
  ASSERT_TRUE(roundtrips.has_value()) << roundtrips.error().message;

  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < 108 && i < good.size(); ++i)
    offsets.push_back(i);  // header + table, exhaustively
  util::Xoshiro256 rng(2026);
  for (int i = 0; i < 200; ++i)
    offsets.push_back(rng.below(good.size()));

  const std::string flipped = path("flipped");
  for (const std::size_t at : offsets) {
    std::vector<std::uint8_t> bad = good;
    bad[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    write_file(flipped, bad);
    auto loaded = load_checkpoint(flipped);
    ASSERT_FALSE(loaded.has_value()) << "flip at byte " << at << " undetected";
    ASSERT_FALSE(loaded.error().message.empty());
  }
}

TEST_F(CheckpointTest, SectionLengthLiesAreRejectedNotTrusted) {
  // Even if an attacker-style edit fixes no CRCs, a section length pointing
  // past EOF must fail with a range diagnostic, not an out-of-bounds read.
  const std::string p = path("ck");
  ASSERT_TRUE(save_checkpoint(p, sample_checkpoint()).ok());
  std::vector<std::uint8_t> bad = read_file(p);
  bad[60] = 0xFF;  // low byte of section 0's u64 length
  bad[61] = 0xFF;
  bad[62] = 0xFF;
  write_file(p, bad);
  auto loaded = load_checkpoint(p);
  ASSERT_FALSE(loaded.has_value());
}

TEST_F(CheckpointTest, JacobiRoundTripIsBitwiseExact) {
  const std::size_t n = 16;
  auto src = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
  auto dst = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
  kernels::init_jacobi(src);
  kernels::init_jacobi(dst);
  for (int sweep = 0; sweep < 9; ++sweep) {
    kernels::jacobi_sweep_seconds(src, dst, sched::Schedule::static_block());
    std::swap(src, dst);
  }
  const std::string p = path("jacobi");
  ASSERT_TRUE(save_jacobi_checkpoint(p, src, 9).ok());

  auto state = load_jacobi_checkpoint(p);
  ASSERT_TRUE(state.has_value()) << state.error().message;
  EXPECT_EQ(state.value().n, n);
  EXPECT_EQ(state.value().sweeps, 9u);

  auto restored = kernels::make_jacobi_grid(n, kernels::jacobi_plain_spec());
  kernels::init_jacobi(restored);
  ASSERT_TRUE(apply_jacobi_state(state.value(), restored).ok());
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_EQ(restored.segment(i)[j], src.segment(i)[j]);

  auto wrong_size = kernels::make_jacobi_grid(8, kernels::jacobi_plain_spec());
  EXPECT_FALSE(apply_jacobi_state(state.value(), wrong_size).ok());
}

kernels::lbm::Solver::Params lbm_params(std::size_t n) {
  kernels::lbm::Solver::Params p;
  p.geometry = kernels::lbm::Geometry{n, n, n, 0,
                                      kernels::lbm::DataLayout::kIJKv};
  p.force = {1e-5, 0.0, 0.0};
  return p;
}

TEST_F(CheckpointTest, LbmResumeContinuesBitwiseIdentically) {
  const auto params = lbm_params(6);
  kernels::lbm::Solver a(params);
  a.make_channel_walls_z();
  a.initialize(1.0);
  for (int step = 0; step < 6; ++step) a.step();

  const std::string p = path("lbm");
  ASSERT_TRUE(save_lbm_checkpoint(p, a).ok());
  for (int step = 0; step < 4; ++step) a.step();

  kernels::lbm::Solver b(params);
  b.make_channel_walls_z();
  const auto status = load_lbm_checkpoint(p, b);
  ASSERT_TRUE(status.ok()) << status.error().message;
  EXPECT_EQ(b.steps_taken(), 6u);
  for (int step = 0; step < 4; ++step) b.step();
  EXPECT_EQ(a.distributions(), b.distributions());
}

TEST_F(CheckpointTest, LbmRefusesMismatchedGeometryAndKind) {
  kernels::lbm::Solver small(lbm_params(4));
  small.initialize(1.0);
  small.step();
  const std::string p = path("lbm4");
  ASSERT_TRUE(save_lbm_checkpoint(p, small).ok());

  kernels::lbm::Solver big(lbm_params(6));
  const auto mismatch = load_lbm_checkpoint(p, big);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_NE(mismatch.error().message.find("4x4x4"), std::string::npos);

  auto layout = lbm_params(4);
  layout.geometry.layout = kernels::lbm::DataLayout::kIvJK;
  kernels::lbm::Solver other_layout(layout);
  EXPECT_FALSE(load_lbm_checkpoint(p, other_layout).ok());

  // A Jacobi checkpoint must be refused by the LBM loader and vice versa.
  auto grid = kernels::make_jacobi_grid(8, kernels::jacobi_plain_spec());
  kernels::init_jacobi(grid);
  const std::string jp = path("jacobi");
  ASSERT_TRUE(save_jacobi_checkpoint(jp, grid, 1).ok());
  kernels::lbm::Solver s(lbm_params(4));
  EXPECT_FALSE(load_lbm_checkpoint(jp, s).ok());
  auto cross = load_jacobi_checkpoint(p);
  EXPECT_FALSE(cross.has_value());
}

TEST_F(CheckpointTest, UnwritableDirectoryIsTypedFailure) {
  const auto status =
      save_checkpoint((dir_ / "no" / "such" / "dir" / "ck").string(),
                      sample_checkpoint());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("cannot create"), std::string::npos);
}

}  // namespace
}  // namespace mcopt::runtime
