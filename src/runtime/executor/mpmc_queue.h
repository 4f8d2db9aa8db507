#pragma once
// Bounded multi-producer / multi-consumer queue with priority lanes and an
// optional weighted-fair (WFQ) pop policy.
//
// The executor's admission gate pushes priced jobs into one of kNumLanes
// lanes (high / normal / low). Each lane is individually bounded — a full
// lane is typed backpressure (the caller sheds with ShedReason::kQueueFull),
// never a blocking producer.
//
// ## Pop policies
//
// kStrictPriority (default): worker threads pop the front of the highest
// non-empty lane, FIFO within a lane — the PR-4 executor semantics.
//
// kWeightedFair: every push names a *flow* (the service layer uses the
// tenant id), a weight, and a cost (the service layer uses the pricing
// quote's bytes, so fairness is measured in bytes of bandwidth, not job
// counts). The queue runs start-time fair queuing on one virtual-service
// clock: a pushed item is stamped
//
//   vstart  = max(queue virtual time, flow's last virtual finish)
//   vfinish = vstart + cost/weight          (fixed-point, kWfqCostScale)
//
// and pop always removes the item with the smallest vstart; the queue's
// virtual time advances to each popped item's vstart. Backlogged flows
// therefore share dequeue bandwidth in proportion to their weights,
// regardless of how bursty any one flow's arrivals are.
//
// Ties on vstart are broken by (lane, sequence): the lane index first (a
// high-priority item beats a normal one stamped at the same virtual
// instant), then the queue-global push sequence number. The tie-break is
// total — two runs that push the same items in the same order pop them in
// the same order, bit-stably, which is what makes seeded service soaks
// replayable. (Without the sequence tie-break, equal-vstart heads would pop
// in map-iteration order of whichever flows happened to be resident —
// nondeterministic across runs.)
//
// Concurrency is deliberately boring: one mutex, one condition variable.
// Pop passes a `reserve` hook that runs UNDER the queue lock after the item
// is chosen but before it is released to the caller. The executor uses this
// to stamp the job's virtual service window against the bandwidth-server
// tail (executor.h): because reservation and removal are one critical
// section, the virtual start order equals the dequeue order exactly, which
// is what makes the shed-lag bound provable. Mutex + condvar also makes the
// queue ThreadSanitizer-clean by construction — there is no lock-free
// cleverness to annotate or suppress.

#include <array>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/executor/job.h"

namespace mcopt::runtime::exec {

enum class QueuePolicy {
  kStrictPriority,  ///< highest non-empty lane first, FIFO within a lane
  kWeightedFair     ///< min virtual start across flows; lanes break ties
};

/// Fixed-point scale of the WFQ virtual clock: one cost unit of a weight-1
/// flow advances the flow's virtual finish by kWfqCostScale ticks, so
/// fractional weights keep resolution without floating-point drift in the
/// comparisons themselves.
inline constexpr std::uint64_t kWfqCostScale = 256;

template <typename T>
class LaneQueue {
 public:
  /// `capacity[lane]` bounds each lane; every lane must hold at least one
  /// item or the queue could never accept work on that lane.
  explicit LaneQueue(std::array<std::size_t, kNumLanes> capacity,
                     QueuePolicy policy = QueuePolicy::kStrictPriority)
      : capacity_(capacity), policy_(policy) {
    for (const std::size_t cap : capacity_)
      if (cap == 0)
        throw std::invalid_argument("LaneQueue: lane capacity must be >= 1");
  }

  LaneQueue(const LaneQueue&) = delete;
  LaneQueue& operator=(const LaneQueue&) = delete;

  /// Enqueues onto `lane` for the default flow (flow 0, weight 1, cost 1).
  /// Under kStrictPriority flows never matter; under kWeightedFair this is
  /// a plain unweighted flow.
  [[nodiscard]] bool try_push(Priority lane, T item) {
    return try_push(lane, /*flow=*/0, /*weight=*/1.0, /*cost=*/1,
                    std::move(item));
  }

  /// Enqueues onto `lane` as flow `flow` with the given WFQ weight and
  /// cost (ignored under kStrictPriority). Returns false (typed
  /// backpressure) when the lane is at capacity or the queue is closed; the
  /// item is untouched then. Throws on weight <= 0.
  [[nodiscard]] bool try_push(Priority lane, std::uint64_t flow, double weight,
                              std::uint64_t cost, T item) {
    if (!(weight > 0.0))
      throw std::invalid_argument("LaneQueue: flow weight must be > 0");
    const auto l = static_cast<std::size_t>(lane);
    bool wake = false;
    {
      const std::lock_guard<std::mutex> guard(mu_);
      if (closed_ || lane_sizes_[l] >= capacity_[l]) return false;
      Entry e;
      e.item = std::move(item);
      e.seq = next_seq_++;
      if (policy_ == QueuePolicy::kWeightedFair) {
        std::uint64_t& tail = flow_tails_[flow];
        e.primary = std::max(vtime_, tail);
        tail = e.primary + cost_ticks(cost, weight);
      } else {
        e.primary = 0;  // strict: order is (lane, seq) alone
      }
      std::deque<Entry>& fq = lanes_[l][flow];
      const bool was_empty = fq.empty();
      fq.push_back(std::move(e));
      ++lane_sizes_[l];
      ++total_;
      if (was_empty)
        heads_.insert({fq.front().primary, static_cast<unsigned>(l),
                       fq.front().seq, flow});
      wake = !held_;
    }
    // A push into a held queue wakes nobody: the woken worker would see
    // held_ and park again. release() and close() wake every worker, so no
    // item pushed under a hold waits past the hold.
    if (wake) cv_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  /// Pops the item with the smallest ordering key — (lane, sequence) under
  /// kStrictPriority, (virtual start, lane, sequence) under kWeightedFair.
  /// `reserve` runs under the queue lock with a mutable reference to the
  /// chosen item — keep it short (it is the serialization point for
  /// virtual-time reservations). Returns nullopt only when closed and empty.
  template <typename Reserve>
  [[nodiscard]] std::optional<T> pop(Reserve&& reserve) {
    std::unique_lock<std::mutex> guard(mu_);
    cv_.wait(guard, [this] { return closed_ || (!held_ && total_ != 0); });
    if (total_ == 0) return std::nullopt;  // closed and drained
    const HeadKey key = *heads_.begin();
    heads_.erase(heads_.begin());
    std::deque<Entry>& fq = lanes_[key.lane][key.flow];
    if (policy_ == QueuePolicy::kWeightedFair)
      vtime_ = std::max(vtime_, key.primary);
    reserve(fq.front().item);
    T item = std::move(fq.front().item);
    fq.pop_front();
    --lane_sizes_[key.lane];
    --total_;
    if (fq.empty())
      lanes_[key.lane].erase(key.flow);
    else
      heads_.insert({fq.front().primary, key.lane, fq.front().seq, key.flow});
    return item;
  }

  /// Visits every queued item under the lock: lanes highest first, flows in
  /// ascending flow id, FIFO within a flow. (With only default-flow pushes
  /// this is exactly "highest lane first, FIFO within a lane".) The
  /// executor uses this to re-price queued jobs after a fault diagnosis;
  /// `fn` must not call back into the queue.
  template <typename Fn>
  void for_each(Fn&& fn) {
    const std::lock_guard<std::mutex> guard(mu_);
    for (auto& lane : lanes_)
      for (auto& [flow, fq] : lane)
        for (Entry& e : fq) fn(e.item);
  }

  /// Removes and returns everything still queued (lanes highest first,
  /// flows in ascending flow id, FIFO within a flow). Used by non-draining
  /// shutdown so every job is accounted for.
  [[nodiscard]] std::vector<T> shed_all() {
    std::vector<T> out;
    const std::lock_guard<std::mutex> guard(mu_);
    for (auto& lane : lanes_) {
      for (auto& [flow, fq] : lane)
        for (Entry& e : fq) out.push_back(std::move(e.item));
      lane.clear();
    }
    heads_.clear();
    lane_sizes_.fill(0);
    total_ = 0;
    return out;
  }

  /// Holds dequeue: pops block (pushes are unaffected) until release().
  /// A producer can publish a whole batch atomically with respect to pop
  /// order — the pick sequence then depends only on the batch content,
  /// never on the push/pop interleaving, which is what lets a seeded soak
  /// make every WFQ reservation a pure function of its job stream.
  /// close() overrides a hold, so a draining shutdown can never wedge.
  /// Pushes under a hold wake no worker; release() wakes every worker.
  void hold() {
    const std::lock_guard<std::mutex> guard(mu_);
    held_ = true;
  }

  void release() {
    {
      const std::lock_guard<std::mutex> guard(mu_);
      held_ = false;
    }
    cv_.notify_all();
  }

  /// Closes the queue: pushes start failing, pops drain what remains and
  /// then return nullopt. Idempotent.
  void close() {
    {
      const std::lock_guard<std::mutex> guard(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> guard(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> guard(mu_);
    return total_;
  }

  [[nodiscard]] std::size_t lane_size(Priority lane) const {
    const std::lock_guard<std::mutex> guard(mu_);
    return lane_sizes_[static_cast<std::size_t>(lane)];
  }

  [[nodiscard]] QueuePolicy policy() const noexcept { return policy_; }

  /// Current WFQ virtual time (always 0 under kStrictPriority). Test hook.
  [[nodiscard]] std::uint64_t virtual_time() const {
    const std::lock_guard<std::mutex> guard(mu_);
    return vtime_;
  }

 private:
  struct Entry {
    T item;
    std::uint64_t primary = 0;  ///< WFQ virtual start (0 under strict)
    std::uint64_t seq = 0;      ///< queue-global push sequence
  };

  /// Total order over the per-flow head items. primary is the WFQ virtual
  /// start (0 under strict priority, making the order (lane, seq) — the
  /// legacy strict semantics); ties break by (lane, seq), which is what
  /// keeps seeded soak replays bit-stable.
  struct HeadKey {
    std::uint64_t primary;
    unsigned lane;
    std::uint64_t seq;
    std::uint64_t flow;
    bool operator<(const HeadKey& o) const noexcept {
      if (primary != o.primary) return primary < o.primary;
      if (lane != o.lane) return lane < o.lane;
      return seq < o.seq;  // seq is unique: flow never needs comparing
    }
  };

  [[nodiscard]] static std::uint64_t cost_ticks(std::uint64_t cost,
                                                double weight) {
    const double ticks = static_cast<double>(cost) *
                         static_cast<double>(kWfqCostScale) / weight;
    if (ticks >= 9.2e18)
      throw std::overflow_error("LaneQueue: WFQ cost/weight overflows");
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(ticks));
  }

  const std::array<std::size_t, kNumLanes> capacity_;
  const QueuePolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Per-lane, per-flow FIFO sub-queues (std::map: deterministic order).
  std::array<std::map<std::uint64_t, std::deque<Entry>>, kNumLanes> lanes_;
  /// Heads of every non-empty (lane, flow) sub-queue, pop order.
  std::set<HeadKey> heads_;
  /// Last virtual finish per flow. Kept across idle periods — the max()
  /// against vtime_ in push re-syncs a returning flow, so an idle flow
  /// banks no credit and owes no debt.
  std::map<std::uint64_t, std::uint64_t> flow_tails_;
  std::uint64_t vtime_ = 0;
  std::uint64_t next_seq_ = 0;
  std::array<std::size_t, kNumLanes> lane_sizes_{};
  std::size_t total_ = 0;
  bool closed_ = false;
  bool held_ = false;  ///< dequeue gate (hold/release); close() overrides
};

}  // namespace mcopt::runtime::exec
