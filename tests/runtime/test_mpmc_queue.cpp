#include "runtime/executor/mpmc_queue.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/prng.h"

namespace mcopt::runtime::exec {
namespace {

struct Item {
  int id = 0;
  std::uint64_t tag = 0;
};

constexpr auto kNoReserve = [](Item&) {};

TEST(MpmcQueue, PopsHighestLaneFirstThenFifoWithinLane) {
  LaneQueue<Item> q({4, 4, 4});
  ASSERT_TRUE(q.try_push(Priority::kLow, {1}));
  ASSERT_TRUE(q.try_push(Priority::kNormal, {2}));
  ASSERT_TRUE(q.try_push(Priority::kHigh, {3}));
  ASSERT_TRUE(q.try_push(Priority::kHigh, {4}));
  ASSERT_TRUE(q.try_push(Priority::kNormal, {5}));
  q.close();
  std::vector<int> order;
  while (auto item = q.pop(kNoReserve)) order.push_back(item->id);
  EXPECT_EQ(order, (std::vector<int>{3, 4, 2, 5, 1}));
}

TEST(MpmcQueue, FullLaneIsTypedBackpressureNotBlocking) {
  LaneQueue<Item> q({1, 2, 1});
  EXPECT_TRUE(q.try_push(Priority::kNormal, {1}));
  EXPECT_TRUE(q.try_push(Priority::kNormal, {2}));
  EXPECT_FALSE(q.try_push(Priority::kNormal, {3}));  // lane full
  // Other lanes are bounded independently.
  EXPECT_TRUE(q.try_push(Priority::kHigh, {4}));
  EXPECT_FALSE(q.try_push(Priority::kHigh, {5}));
  EXPECT_EQ(q.lane_size(Priority::kNormal), 2u);
  EXPECT_EQ(q.size(), 3u);
}

TEST(MpmcQueue, RejectsZeroCapacityLanes) {
  EXPECT_THROW(LaneQueue<Item>({0, 1, 1}), std::invalid_argument);
}

TEST(MpmcQueue, CloseDrainsRemainingItemsThenReturnsNullopt) {
  LaneQueue<Item> q({4, 4, 4});
  ASSERT_TRUE(q.try_push(Priority::kNormal, {1}));
  ASSERT_TRUE(q.try_push(Priority::kNormal, {2}));
  q.close();
  EXPECT_FALSE(q.try_push(Priority::kNormal, {3}));  // closed: no new work
  EXPECT_TRUE(q.pop(kNoReserve).has_value());
  EXPECT_TRUE(q.pop(kNoReserve).has_value());
  EXPECT_FALSE(q.pop(kNoReserve).has_value());  // drained
}

TEST(MpmcQueue, ShedAllRemovesEverythingHighestLaneFirst) {
  LaneQueue<Item> q({4, 4, 4});
  ASSERT_TRUE(q.try_push(Priority::kLow, {1}));
  ASSERT_TRUE(q.try_push(Priority::kHigh, {2}));
  ASSERT_TRUE(q.try_push(Priority::kNormal, {3}));
  const auto shed = q.shed_all();
  ASSERT_EQ(shed.size(), 3u);
  EXPECT_EQ(shed[0].id, 2);
  EXPECT_EQ(shed[1].id, 3);
  EXPECT_EQ(shed[2].id, 1);
  EXPECT_EQ(q.size(), 0u);
}

TEST(MpmcQueue, ForEachMutatesQueuedItemsInPlace) {
  // The executor's repricing path: visit every queued item under the lock.
  LaneQueue<Item> q({4, 4, 4});
  ASSERT_TRUE(q.try_push(Priority::kNormal, {1, 10}));
  ASSERT_TRUE(q.try_push(Priority::kLow, {2, 20}));
  q.for_each([](Item& item) { item.tag *= 7; });
  q.close();
  std::vector<std::uint64_t> tags;
  while (auto item = q.pop(kNoReserve)) tags.push_back(item->tag);
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{70, 140}));
}

TEST(MpmcQueue, ReserveHookSerializesInExactPopOrder) {
  // The hook runs inside the dequeue critical section, so appending to a
  // plain vector from four racing consumers is safe and must observe the
  // exact FIFO order — this is the property the executor's virtual-time
  // reservation depends on (and what TSan checks here).
  constexpr int kItems = 200;
  LaneQueue<Item> q({8, static_cast<std::size_t>(kItems), 8});
  std::vector<int> reserved_order;  // guarded by the queue lock only
  std::vector<std::thread> consumers;
  std::atomic<int> popped{0};
  for (int t = 0; t < 4; ++t)
    consumers.emplace_back([&] {
      while (q.pop([&reserved_order](Item& item) {
        reserved_order.push_back(item.id);
      }))
        popped.fetch_add(1, std::memory_order_relaxed);
    });
  for (int i = 0; i < kItems; ++i)
    while (!q.try_push(Priority::kNormal, {i})) std::this_thread::yield();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), kItems);
  std::vector<int> expected(kItems);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(reserved_order, expected);
}

TEST(MpmcQueue, ConcurrentProducersAndConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  LaneQueue<Item> q({8, 8, 8});  // small bounds: backpressure exercised
  std::atomic<std::uint64_t> pushed_sum{0};
  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<int> popped_count{0};

  std::vector<std::thread> consumers;
  for (int t = 0; t < 3; ++t)
    consumers.emplace_back([&] {
      while (auto item = q.pop([](Item&) {})) {
        popped_sum.fetch_add(item->tag, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t)
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        const Item item{t * kPerProducer + i,
                        static_cast<std::uint64_t>(t * kPerProducer + i)};
        const auto lane = static_cast<Priority>(i % 3);
        while (!q.try_push(lane, item)) std::this_thread::yield();
        pushed_sum.fetch_add(item.tag, std::memory_order_relaxed);
      }
    });

  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped_count.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

TEST(MpmcQueueWfq, BackloggedFlowsShareDequeueServiceByWeight) {
  // Three flows, weights 1:2:4, equal item cost, all backlogged from the
  // start: at every prefix of the pop order the popped counts must track
  // the weights (within one item per flow — SFQ's per-step granularity).
  LaneQueue<Item> q({8, 256, 8}, QueuePolicy::kWeightedFair);
  constexpr int kPerFlow = 40;
  const double weight[3] = {1.0, 2.0, 4.0};
  for (int i = 0; i < kPerFlow; ++i)
    for (std::uint64_t f = 0; f < 3; ++f)
      ASSERT_TRUE(q.try_push(Priority::kNormal, f + 1, weight[f], 700,
                             {static_cast<int>(f)}));
  q.close();
  int popped[3] = {0, 0, 0};
  int total = 0;
  while (auto item = q.pop(kNoReserve)) {
    ++popped[item->id];
    ++total;
    // While every flow is still backlogged, flow f's share of the pops
    // stays within one item of weight-proportional.
    if (popped[0] < kPerFlow && popped[1] < kPerFlow && popped[2] < kPerFlow)
      for (int f = 0; f < 3; ++f)
        EXPECT_NEAR(static_cast<double>(popped[f]),
                    static_cast<double>(total) * weight[f] / 7.0, 1.5)
            << "after " << total << " pops";
  }
  EXPECT_EQ(total, 3 * kPerFlow);
}

TEST(MpmcQueueWfq, StarvationFreedomHoldsForSeededRandomCostsAndWeights) {
  // Property test (start-time fair queuing): for any two flows that are
  // both still backlogged, the difference in *normalized* service (ticks =
  // cost/weight) is bounded by one maximum item of each — no flow can fall
  // further behind its weight-proportional share than the lumpiness of
  // single jobs forces, i.e. nobody starves.
  util::Xoshiro256 rng(2024);
  constexpr std::uint64_t kFlows = 6;
  constexpr int kPerFlow = 150;
  const double weights[kFlows] = {0.5, 1.0, 1.0, 2.0, 4.0, 8.0};
  LaneQueue<Item> q({8, kFlows * kPerFlow, 8}, QueuePolicy::kWeightedFair);

  std::map<std::uint64_t, double> max_norm_cost;  // per flow, in ticks
  std::vector<int> remaining(kFlows, kPerFlow);
  for (int i = 0; i < kPerFlow; ++i)
    for (std::uint64_t f = 0; f < kFlows; ++f) {
      const auto cost = 1000 + rng.below(100000);
      max_norm_cost[f] = std::max(
          max_norm_cost[f], static_cast<double>(cost) * 256.0 / weights[f]);
      ASSERT_TRUE(q.try_push(Priority::kNormal, f + 1, weights[f], cost,
                             {static_cast<int>(f), cost}));
    }
  q.close();

  std::vector<double> served_ticks(kFlows, 0.0);
  while (auto item = q.pop(kNoReserve)) {
    const auto f = static_cast<std::uint64_t>(item->id);
    served_ticks[f] += static_cast<double>(item->tag) * 256.0 / weights[f];
    --remaining[f];
    for (std::uint64_t a = 0; a < kFlows; ++a)
      for (std::uint64_t b = a + 1; b < kFlows; ++b) {
        if (remaining[a] == 0 || remaining[b] == 0) continue;
        EXPECT_LE(std::abs(served_ticks[a] - served_ticks[b]),
                  max_norm_cost[a] + max_norm_cost[b])
            << "flows " << a << " vs " << b;
      }
  }
}

TEST(MpmcQueueWfq, TiesOnVirtualStartBreakByLaneThenSequence) {
  // Three flows' first items all stamp vstart 0 (fresh flows at vtime 0):
  // the high lane wins regardless of push order, then lower sequence.
  LaneQueue<Item> q({4, 4, 4}, QueuePolicy::kWeightedFair);
  ASSERT_TRUE(q.try_push(Priority::kLow, 1, 1.0, 100, {1}));     // seq 0
  ASSERT_TRUE(q.try_push(Priority::kHigh, 2, 1.0, 100, {2}));    // seq 1
  ASSERT_TRUE(q.try_push(Priority::kNormal, 3, 1.0, 100, {3}));  // seq 2
  ASSERT_TRUE(q.try_push(Priority::kNormal, 4, 1.0, 100, {4}));  // seq 3
  q.close();
  std::vector<int> order;
  while (auto item = q.pop(kNoReserve)) order.push_back(item->id);
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 1}));
}

TEST(MpmcQueueWfq, IdenticalPushSequencesReplayTheIdenticalPopOrder) {
  // Bit-stable replay is what seeded service soaks stand on: same pushes,
  // same pops, no dependence on map iteration order or anything resident.
  const auto run = [] {
    util::Xoshiro256 rng(77);
    LaneQueue<Item> q({512, 512, 512}, QueuePolicy::kWeightedFair);
    for (int i = 0; i < 400; ++i) {
      const auto flow = rng.below(12);
      const auto lane = static_cast<Priority>(rng.below(3));
      const double weight = static_cast<double>(1 + rng.below(8));
      EXPECT_TRUE(
          q.try_push(lane, flow, weight, 1 + rng.below(5000), {i}));
    }
    q.close();
    std::vector<int> order;
    while (auto item = q.pop(kNoReserve)) order.push_back(item->id);
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(MpmcQueue, HoldGatesDequeueUntilRelease) {
  // The deterministic-soak hook: while held, pushes land but pops block,
  // so a submitter can publish a whole batch atomically with respect to
  // pop order.
  LaneQueue<Item> q({4, 4, 4});
  q.hold();
  ASSERT_TRUE(q.try_push(Priority::kNormal, {1}));  // pushes unaffected
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    const auto item = q.pop(kNoReserve);
    ASSERT_TRUE(item.has_value());
    popped.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(popped.load(std::memory_order_acquire));
  q.release();
  consumer.join();
  EXPECT_TRUE(popped.load(std::memory_order_acquire));
}

TEST(MpmcQueue, CloseOverridesAHoldSoDrainingNeverWedges) {
  LaneQueue<Item> q({4, 4, 4});
  q.hold();
  ASSERT_TRUE(q.try_push(Priority::kNormal, {1}));
  q.close();
  EXPECT_TRUE(q.pop(kNoReserve).has_value());  // drains despite the hold
  EXPECT_FALSE(q.pop(kNoReserve).has_value());
}

TEST(MpmcQueue, HeldPushesWakeNobodyAndReleaseLosesNoWakeUp) {
  // A push into a held queue notifies no worker; release() (or close())
  // must then wake the parked poppers, or the batch sits unpopped forever.
  constexpr int kRounds = 200;
  constexpr int kPerRound = 48;
  constexpr int kItems = (kRounds + 1) * kPerRound;  // + the close() round
  LaneQueue<Item> q({64, 64, 64}, QueuePolicy::kWeightedFair);
  std::vector<std::atomic<int>> seen(kItems);
  std::atomic<int> popped{0};

  std::vector<std::thread> poppers;
  for (int t = 0; t < 3; ++t)
    poppers.emplace_back([&] {
      while (const auto item = q.pop(kNoReserve)) {
        seen[static_cast<std::size_t>(item->id)].fetch_add(1);
        popped.fetch_add(1);
      }
    });

  const auto publish = [&](int round) {
    q.hold();
    for (int i = 0; i < kPerRound; ++i) {
      const int id = round * kPerRound + i;
      const std::uint64_t flow = static_cast<std::uint64_t>(id % 5);
      ASSERT_TRUE(q.try_push(static_cast<Priority>(id % 3), flow,
                             1.0 + static_cast<double>(flow),
                             1 + static_cast<std::uint64_t>(id % 7), {id}));
    }
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool timed_out = false;
  for (int round = 0; round < kRounds && !timed_out; ++round) {
    publish(round);
    q.release();
    while (popped.load() < (round + 1) * kPerRound && !timed_out) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      timed_out = std::chrono::steady_clock::now() > deadline;
    }
  }
  const int popped_in_time = popped.load();
  if (!timed_out) publish(kRounds);
  q.close();  // overrides the last round's hold: the poppers drain and exit
  for (auto& t : poppers) t.join();
  ASSERT_FALSE(timed_out) << "only " << popped_in_time
                          << " items popped within 10 s";
  EXPECT_EQ(popped.load(), kItems);
  for (int id = 0; id < kItems; ++id)
    ASSERT_EQ(seen[static_cast<std::size_t>(id)].load(), 1) << "item " << id;
}

}  // namespace
}  // namespace mcopt::runtime::exec
