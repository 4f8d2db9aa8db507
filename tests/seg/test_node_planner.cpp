// Tests of the NUMA stream sharder: local placement when a socket's own
// memory survives, priced remote rehoming when it doesn't, load spreading
// over equidistant survivors, distance-matrix awareness, and controller
// rotation between co-homed shards.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "seg/planner.h"

namespace mcopt::seg {
namespace {

const arch::AddressMap kMap;

TEST(NodePlanner, HealthyNodePlacesEveryShardLocally) {
  arch::NodeTopology node;
  node.num_sockets = 4;
  const std::vector<unsigned> all = {0, 1, 2, 3};
  const NodeStreamPlan plan = plan_node_stream_shards(3, kMap, node, all, all);
  ASSERT_EQ(plan.shards.size(), 4u);
  EXPECT_DOUBLE_EQ(plan.remote_fraction, 0.0);
  for (unsigned s = 0; s < 4; ++s) {
    const auto& shard = plan.shards[s];
    EXPECT_EQ(shard.compute_socket, s);
    EXPECT_EQ(shard.home_socket, s);
    EXPECT_FALSE(shard.remote());
    EXPECT_EQ(shard.link_cycles, 0u);
    ASSERT_EQ(shard.bases.size(), 3u);
    for (const arch::Addr b : shard.bases)
      EXPECT_EQ(node.home_socket_of(b), s);
  }
  // Local shards carry the classic stream offsets: 0, 128, 256.
  EXPECT_EQ(plan.shards[0].streams.offsets,
            (std::vector<std::size_t>{0, 128, 256}));
}

TEST(NodePlanner, DeadMemoryRehomesToSurvivorAtLinkPrice) {
  arch::NodeTopology node;  // 2 sockets
  const std::vector<unsigned> compute = {0, 1};
  const std::vector<unsigned> memory = {0};  // socket 1's memory is gone
  const NodeStreamPlan plan =
      plan_node_stream_shards(3, kMap, node, compute, memory);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_FALSE(plan.shards[0].remote());
  EXPECT_TRUE(plan.shards[1].remote());
  EXPECT_EQ(plan.shards[1].home_socket, 0u);
  EXPECT_EQ(plan.shards[1].link_cycles, node.link_line_cycles);
  EXPECT_DOUBLE_EQ(plan.remote_fraction, 0.5);
  for (const arch::Addr b : plan.shards[1].bases)
    EXPECT_EQ(node.home_socket_of(b), 0u);
}

TEST(NodePlanner, OrphanedSocketsSpreadOverEquidistantSurvivors) {
  arch::NodeTopology node;
  node.num_sockets = 4;
  const std::vector<unsigned> compute = {0, 1, 2, 3};
  const std::vector<unsigned> memory = {0, 1};
  const NodeStreamPlan plan =
      plan_node_stream_shards(2, kMap, node, compute, memory);
  // Sockets 2 and 3 are equidistant from both survivors: the load tie-break
  // must split them instead of stacking both onto domain 0.
  EXPECT_EQ(plan.shards[2].home_socket, 0u);
  EXPECT_EQ(plan.shards[3].home_socket, 1u);
  EXPECT_DOUBLE_EQ(plan.remote_fraction, 0.5);
}

TEST(NodePlanner, DistanceMatrixSteersRemotePlacement) {
  arch::NodeTopology node;
  node.num_sockets = 4;
  // Make socket 2's link to 1 four times cheaper than to 0.
  node.latency_matrix.assign(16, node.remote_latency);
  node.link_cycle_matrix.assign(16, 32);
  for (unsigned i = 0; i < 4; ++i) {
    node.latency_matrix[i * 4 + i] = 0;
    node.link_cycle_matrix[i * 4 + i] = 0;
  }
  node.link_cycle_matrix[2 * 4 + 1] = 8;
  node.validate();
  const std::vector<unsigned> compute = {2};
  const std::vector<unsigned> memory = {0, 1};
  const NodeStreamPlan plan =
      plan_node_stream_shards(2, kMap, node, compute, memory);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.shards[0].home_socket, 1u);
  EXPECT_EQ(plan.shards[0].link_cycles, 8u);
}

TEST(NodePlanner, CoHomedShardsRotateOffControllerZero) {
  arch::NodeTopology node;  // 2 sockets, only domain 0 survives
  const std::vector<unsigned> compute = {0, 1};
  const std::vector<unsigned> memory = {0};
  const NodeStreamPlan plan =
      plan_node_stream_shards(2, kMap, node, compute, memory);
  // Second shard on the same domain is rotated by one controller stride, so
  // the two shards' arrays do not alias pairwise.
  EXPECT_EQ(plan.shards[0].streams.offsets,
            (std::vector<std::size_t>{0, 128}));
  EXPECT_EQ(plan.shards[1].streams.offsets,
            (std::vector<std::size_t>{128, 256}));
  std::vector<arch::Addr> all;
  for (const auto& shard : plan.shards)
    all.insert(all.end(), shard.bases.begin(), shard.bases.end());
  const AliasReport report = diagnose_streams(all, kMap);
  EXPECT_FALSE(report.fully_aliased);
  // Unrotated, both shards would sit on {mc0, mc1} for balance 0.25; the
  // rotation yields {0,1} + {1,2} = one shared controller, balance 0.5.
  EXPECT_GE(report.balance, 0.5);
}

TEST(NodePlanner, ComposableOverloadRotatesAgainstCarriedLoad) {
  // Per-job planner calls must rotate against node-wide allocation state:
  // two successive one-socket plans sharing a domain_load vector get
  // distinct controller rotations, exactly as one combined plan would.
  arch::NodeTopology node;  // 2 sockets, only domain 0 survives
  const std::vector<unsigned> memory = {0};
  const std::vector<unsigned> job0 = {0};
  const std::vector<unsigned> job1 = {1};
  std::vector<unsigned> load(2, 0);
  const NodeStreamPlan first =
      plan_node_stream_shards(2, kMap, node, job0, memory, load);
  const NodeStreamPlan second =
      plan_node_stream_shards(2, kMap, node, job1, memory, load);
  EXPECT_EQ(load[0], 2u);
  EXPECT_EQ(first.shards[0].streams.offsets,
            (std::vector<std::size_t>{0, 128}));
  EXPECT_EQ(second.shards[0].streams.offsets,
            (std::vector<std::size_t>{128, 256}));
  // A fresh load vector would repeat the first rotation (the aliasing the
  // carried state exists to prevent).
  std::vector<unsigned> fresh(2, 0);
  const NodeStreamPlan repeat =
      plan_node_stream_shards(2, kMap, node, job1, memory, fresh);
  EXPECT_EQ(repeat.shards[0].streams.offsets, first.shards[0].streams.offsets);
  // The vector must match the node width.
  std::vector<unsigned> wrong(3, 0);
  EXPECT_THROW(
      (void)plan_node_stream_shards(2, kMap, node, job0, memory, wrong),
      std::invalid_argument);
}

TEST(NodePlanner, SplitShardCountsCoverAndBalance) {
  // total/parts with the remainder spread over the leading shards.
  EXPECT_EQ(split_shard_counts(10, 3),
            (std::vector<std::size_t>{4, 3, 3}));
  EXPECT_EQ(split_shard_counts(9, 3), (std::vector<std::size_t>{3, 3, 3}));
  EXPECT_EQ(split_shard_counts(1, 1), (std::vector<std::size_t>{1}));
  // parts clamps to total: no empty shards.
  EXPECT_EQ(split_shard_counts(2, 5), (std::vector<std::size_t>{1, 1}));
  // Exact cover, max spread 1 — for any draw.
  for (std::size_t total = 1; total < 40; ++total)
    for (std::size_t parts = 1; parts < 8; ++parts) {
      const auto counts = split_shard_counts(total, parts);
      std::size_t sum = 0;
      for (const std::size_t c : counts) sum += c;
      EXPECT_EQ(sum, total);
      const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
      EXPECT_LE(*hi - *lo, 1u);
    }
  EXPECT_THROW((void)split_shard_counts(0, 3), std::invalid_argument);
  EXPECT_THROW((void)split_shard_counts(3, 0), std::invalid_argument);
}

TEST(NodePlanner, RejectsDegenerateInput) {
  arch::NodeTopology node;
  const std::vector<unsigned> ok = {0};
  const std::vector<unsigned> empty;
  const std::vector<unsigned> oob = {2};
  const std::vector<unsigned> dup = {0, 0};
  EXPECT_THROW((void)plan_node_stream_shards(0, kMap, node, ok, ok),
               std::invalid_argument);
  EXPECT_THROW((void)plan_node_stream_shards(1, kMap, node, empty, ok),
               std::invalid_argument);
  EXPECT_THROW((void)plan_node_stream_shards(1, kMap, node, ok, oob),
               std::invalid_argument);
  EXPECT_THROW((void)plan_node_stream_shards(1, kMap, node, dup, ok),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcopt::seg
