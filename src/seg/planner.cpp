#include "seg/planner.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <tuple>

#include "util/table.h"

namespace mcopt::seg {
namespace {

/// Shared validation of a surviving-controller subset against the map.
void require_valid_subset(std::span<const unsigned> surviving,
                          const arch::AddressMap& map, const char* who) {
  if (surviving.empty())
    throw std::invalid_argument(std::string(who) +
                                ": surviving controller set is empty");
  std::set<unsigned> seen;
  for (unsigned c : surviving) {
    if (c >= map.spec().num_controllers())
      throw std::invalid_argument(std::string(who) + ": controller " +
                                  std::to_string(c) + " out of range");
    if (!seen.insert(c).second)
      throw std::invalid_argument(std::string(who) + ": duplicate controller " +
                                  std::to_string(c));
  }
}

}  // namespace

LayoutSpec StreamPlan::spec_for(std::size_t k) const {
  LayoutSpec spec;
  spec.base_align = base_align;
  spec.segment_align = 0;
  spec.shift = 0;
  spec.offset = offsets.at(k);
  return spec;
}

StreamPlan plan_stream_offsets(std::size_t num_arrays,
                               const arch::AddressMap& map) {
  // period == C * stride, so k * stride mod period == (k mod C) * stride: the
  // healthy plan is the surviving-set plan over every controller.
  std::vector<unsigned> all(map.spec().num_controllers());
  for (unsigned c = 0; c < all.size(); ++c) all[c] = c;
  return plan_stream_offsets(num_arrays, map, all);
}

StreamPlan plan_stream_offsets(std::size_t num_arrays,
                               const arch::AddressMap& map,
                               std::span<const unsigned> surviving) {
  require_valid_subset(surviving, map, "plan_stream_offsets");
  const std::size_t period = map.spec().period_bytes();
  const std::size_t stride = period / map.spec().num_controllers();
  StreamPlan plan;
  plan.base_align = std::max<std::size_t>(8192, period);
  plan.offsets.resize(num_arrays);
  // A page-aligned base sits on controller 0, so an offset of c*stride lands
  // the array on controller c; cycle through the healthy subset only.
  for (std::size_t k = 0; k < num_arrays; ++k)
    plan.offsets[k] = surviving[k % surviving.size()] * stride;
  return plan;
}

LayoutSpec RowPlan::spec() const {
  LayoutSpec spec;
  spec.base_align = base_align;
  spec.segment_align = segment_align;
  spec.shift = shift_cycle.empty() ? shift : 0;
  spec.shift_cycle = shift_cycle;
  spec.offset = 0;
  return spec;
}

RowPlan plan_row_layout(const arch::AddressMap& map) {
  RowPlan plan;
  plan.segment_align = map.spec().period_bytes();
  plan.shift = map.spec().period_bytes() / map.spec().num_controllers();
  plan.base_align = std::max<std::size_t>(8192, plan.segment_align);
  return plan;
}

RowPlan plan_row_layout(const arch::AddressMap& map,
                        std::span<const unsigned> surviving) {
  require_valid_subset(surviving, map, "plan_row_layout");
  RowPlan plan = plan_row_layout(map);
  const std::size_t stride =
      map.spec().period_bytes() / map.spec().num_controllers();
  // Row s lands on controller surviving[s % size]; with the paper's static,1
  // schedule, T <= surviving.size() concurrent rows stay on distinct healthy
  // controllers.
  plan.shift_cycle.reserve(surviving.size());
  for (unsigned c : surviving) plan.shift_cycle.push_back(c * stride);
  return plan;
}

namespace {

/// Validation of a socket subset against the node topology.
void require_valid_sockets(std::span<const unsigned> sockets,
                           const arch::NodeTopology& node, const char* what) {
  if (sockets.empty())
    throw std::invalid_argument(std::string("plan_node_stream_shards: ") +
                                what + " socket set is empty");
  std::set<unsigned> seen;
  for (unsigned s : sockets) {
    if (s >= node.num_sockets)
      throw std::invalid_argument(std::string("plan_node_stream_shards: ") +
                                  what + " socket " + std::to_string(s) +
                                  " out of range");
    if (!seen.insert(s).second)
      throw std::invalid_argument(std::string("plan_node_stream_shards: duplicate ") +
                                  what + " socket " + std::to_string(s));
  }
}

}  // namespace

NodeStreamPlan plan_node_stream_shards(std::size_t num_arrays,
                                       const arch::AddressMap& map,
                                       const arch::NodeTopology& node,
                                       std::span<const unsigned> compute_sockets,
                                       std::span<const unsigned> memory_sockets,
                                       std::vector<unsigned>& domain_load) {
  if (num_arrays == 0)
    throw std::invalid_argument("plan_node_stream_shards: num_arrays == 0");
  require_valid_sockets(compute_sockets, node, "compute");
  require_valid_sockets(memory_sockets, node, "memory");
  if (domain_load.size() != node.num_sockets)
    throw std::invalid_argument(
        "plan_node_stream_shards: domain_load size != num_sockets");

  const std::size_t period = map.spec().period_bytes();
  const std::size_t stride = period / map.spec().num_controllers();

  NodeStreamPlan plan;
  plan.shards.reserve(compute_sockets.size());
  unsigned remote = 0;
  for (const unsigned c : compute_sockets) {
    NodeStreamPlan::Shard shard;
    shard.compute_socket = c;
    // Priced placement: per-line link cycles first, then current domain load
    // (spread orphans over equidistant survivors), then index for
    // determinism. A surviving local domain always wins at price 0.
    unsigned best = memory_sockets.front();
    for (const unsigned m : memory_sockets) {
      const auto price = [&](unsigned d) {
        return std::tuple(node.link_cycles(c, d), domain_load[d], d);
      };
      if (price(m) < price(best)) best = m;
    }
    shard.home_socket = best;
    shard.link_cycles = node.link_cycles(c, best);
    if (shard.remote()) ++remote;

    // Co-homed shards rotate through the controller stride so their streams
    // land on different controllers of the shared domain.
    const unsigned rotation = domain_load[best];
    ++domain_load[best];
    shard.streams = plan_stream_offsets(num_arrays, map);
    for (std::size_t k = 0; k < num_arrays; ++k)
      shard.streams.offsets[k] = (shard.streams.offsets[k] +
                                  static_cast<std::size_t>(rotation) * stride) %
                                 period;
    shard.bases.reserve(num_arrays);
    for (std::size_t k = 0; k < num_arrays; ++k)
      shard.bases.push_back(node.socket_base(shard.home_socket) +
                            shard.streams.offsets[k]);
    plan.shards.push_back(std::move(shard));
  }
  plan.remote_fraction =
      static_cast<double>(remote) / static_cast<double>(plan.shards.size());
  plan.summary = "shards=" + std::to_string(plan.shards.size()) +
                 " remote=" + std::to_string(remote) + "/" +
                 std::to_string(plan.shards.size());
  return plan;
}

NodeStreamPlan plan_node_stream_shards(std::size_t num_arrays,
                                       const arch::AddressMap& map,
                                       const arch::NodeTopology& node,
                                       std::span<const unsigned> compute_sockets,
                                       std::span<const unsigned> memory_sockets) {
  std::vector<unsigned> domain_load(node.num_sockets, 0);
  return plan_node_stream_shards(num_arrays, map, node, compute_sockets,
                                 memory_sockets, domain_load);
}

std::vector<std::size_t> split_shard_counts(std::size_t total,
                                            std::size_t parts) {
  if (total == 0) throw std::invalid_argument("split_shard_counts: total == 0");
  if (parts == 0) throw std::invalid_argument("split_shard_counts: parts == 0");
  parts = std::min(parts, total);
  std::vector<std::size_t> counts(parts, total / parts);
  for (std::size_t i = 0; i < total % parts; ++i) ++counts[i];
  return counts;
}

AliasReport diagnose_streams(std::span<const arch::Addr> bases,
                             const arch::AddressMap& map) {
  AliasReport report;
  report.base_controller.reserve(bases.size());
  for (arch::Addr b : bases)
    report.base_controller.push_back(map.controller_of(b));
  // One full period of lock-stepped lines captures the repeating pattern.
  const auto lines =
      static_cast<std::uint64_t>(map.spec().period_bytes() / map.spec().line_size());
  report.balance = map.lockstep_balance(bases, lines);
  report.fully_aliased =
      !bases.empty() &&
      std::all_of(report.base_controller.begin(), report.base_controller.end(),
                  [&](unsigned c) { return c == report.base_controller.front(); });
  report.summary = "streams=" + std::to_string(bases.size()) +
                   " balance=" + util::fmt_fixed(report.balance, 3) +
                   (report.fully_aliased ? " FULLY-ALIASED" : "");
  return report;
}

}  // namespace mcopt::seg
