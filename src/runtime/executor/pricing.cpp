#include "runtime/executor/pricing.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "kernels/triad.h"
#include "seg/planner.h"

namespace mcopt::runtime::exec {
namespace {

/// Logical operand streams of a kind: count and which are written.
struct StreamShape {
  std::size_t num_streams;
  std::size_t write_index;  // exactly one written stream per kernel
};

StreamShape shape_of(JobKind kind) {
  switch (kind) {
    case JobKind::kTriad:
      return {4, 0};  // A = B + C*D: A written, B/C/D read
    case JobKind::kJacobi:
      return {2, 1};  // src read, dst written
    case JobKind::kLbm:
      return {2, 1};  // f_src read, f_dst written
  }
  throw std::invalid_argument("pricing: unknown job kind");
}

/// Out of line, so the checked products in traffic_bytes stay cheap.
[[noreturn]] void refuse_wrapping_traffic(const JobSpec& job) {
  throw std::invalid_argument(
      std::string("pricing: traffic of a ") + to_string(job.kind) +
      " job with n=" + std::to_string(job.n) +
      " iterations=" + std::to_string(job.iterations) +
      " does not fit in 64 bits");
}

/// A job's quote at `bandwidth` bytes/s: its traffic in service cycles at
/// `hz`.
util::Expected<Quote> quote_at(const JobSpec& job, double bandwidth, double hz,
                               std::vector<unsigned> plan_set) {
  if (!(bandwidth > 0.0))
    return util::Expected<Quote>::failure(
        "pricing: analytic model returned non-positive bandwidth");
  Quote q;
  q.bandwidth = bandwidth;
  q.bytes = PricingModel::traffic_bytes(job);
  q.service_cycles = static_cast<arch::Cycles>(
      std::ceil(static_cast<double>(q.bytes) / q.bandwidth * hz));
  if (q.service_cycles == 0) q.service_cycles = 1;  // nothing is free
  q.plan_set = std::move(plan_set);
  return q;
}

}  // namespace

PricingModel::PricingModel(PricingConfig cfg)
    : cfg_(cfg),
      healthy_set_(sim::FaultSpec{}.surviving_controllers(cfg_.map.spec())) {
  if (!(cfg_.clock_ghz > 0.0))
    throw std::invalid_argument("PricingModel: clock_ghz must be positive");
  if (cfg_.pricing_threads == 0)
    throw std::invalid_argument("PricingModel: pricing_threads must be >= 1");
  for (const JobKind kind : {JobKind::kTriad, JobKind::kJacobi, JobKind::kLbm})
    healthy_.push_back(model_estimate(kind, sim::FaultSpec{}));
}

std::uint64_t PricingModel::traffic_bytes(const JobSpec& job) {
  // Every product is checked: traffic that wraps would price a huge job as
  // nearly free and charge nothing against its tenant's quota.
  const auto mul = [&job](std::uint64_t a, std::uint64_t b) {
    std::uint64_t product = 0;
    if (__builtin_mul_overflow(a, b, &product)) refuse_wrapping_traffic(job);
    return product;
  };
  const auto n = static_cast<std::uint64_t>(job.n);
  const auto iters = static_cast<std::uint64_t>(job.iterations);
  switch (job.kind) {
    case JobKind::kTriad:
      // 3 reads + RFO + write-back = 5 words per element (Fig. 4 convention).
      return mul(mul(kernels::triad_actual_bytes(1), n), iters);
    case JobKind::kJacobi:
      // Per updated cell of the n x n grid: source read + destination
      // RFO + write-back = 3 doubles. (Stencil neighbours come from cache;
      // the self-consistent convention counts each grid once per sweep.)
      return mul(mul(mul(24, n), n), iters);
    case JobKind::kLbm:
      // D3Q19 on an n^3 box: 19 distributions read, 19 written with RFO
      // = 57 doubles = 456 B per cell-step.
      return mul(mul(mul(mul(456, n), n), n), iters);
  }
  throw std::invalid_argument("pricing: unknown job kind");
}

const util::Expected<sim::AnalyticEstimate>* PricingModel::healthy_entry(
    JobKind kind, const sim::FaultSpec& faults) const noexcept {
  const auto k = static_cast<std::size_t>(kind);
  return !faults.any() && k < healthy_.size() ? &healthy_[k] : nullptr;
}

util::Expected<sim::AnalyticEstimate> PricingModel::estimate(
    JobKind kind, const sim::FaultSpec& faults) const {
  if (const auto* healthy = healthy_entry(kind, faults)) return *healthy;
  return model_estimate(kind, faults);
}

util::Expected<sim::AnalyticEstimate> PricingModel::model_estimate(
    JobKind kind, const sim::FaultSpec& faults) const {
  using Result = util::Expected<sim::AnalyticEstimate>;
  const std::vector<unsigned> surviving =
      faults.surviving_controllers(cfg_.map.spec());
  if (surviving.empty())
    return Result::failure(
        "pricing: no surviving memory controller to plan a layout on");

  const StreamShape shape = shape_of(kind);
  try {
    const seg::StreamPlan plan =
        seg::plan_stream_offsets(shape.num_streams, cfg_.map, surviving);
    std::vector<sim::AnalyticStream> logical;
    logical.reserve(shape.num_streams);
    for (std::size_t k = 0; k < shape.num_streams; ++k)
      logical.push_back({(arch::Addr{1} << 32) + plan.offsets[k],
                         k == shape.write_index});
    return sim::estimate_bandwidth(sim::expand_rfo(logical),
                                   cfg_.pricing_threads, cfg_.calibration,
                                   cfg_.map, cfg_.clock_ghz, faults);
  } catch (const std::invalid_argument& e) {
    return Result::failure(std::string("pricing: ") + e.what());
  }
}

util::Expected<Quote> PricingModel::price(const JobSpec& job,
                                          const sim::FaultSpec& faults) const {
  if (const auto* healthy = healthy_entry(job.kind, faults)) {
    if (!*healthy) return util::Expected<Quote>::failure(healthy->error().message);
    return quote_at(job, healthy->value().bandwidth, clock_hz(), healthy_set_);
  }
  const auto est = model_estimate(job.kind, faults);
  if (!est) return util::Expected<Quote>::failure(est.error().message);
  return quote_at(job, est.value().bandwidth, clock_hz(),
                  faults.surviving_controllers(cfg_.map.spec()));
}

double PricingModel::roofline_bandwidth(JobKind kind) const {
  JobSpec probe;
  probe.kind = kind;
  probe.n = 4096;
  probe.iterations = 1;
  // Healthy fault state: every controller survives, planned offsets spread
  // the kernel's streams across all of them.
  return price(probe, sim::FaultSpec{}).value().bandwidth;
}

}  // namespace mcopt::runtime::exec
