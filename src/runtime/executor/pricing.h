#pragma once
// Bandwidth pricing for admission control.
//
// Every job is priced before it is admitted: its planned layout (the
// paper's planner recipes over the currently-believed surviving controller
// set) is fed to the analytic bandwidth model, and the job's total memory
// traffic is converted into *virtual service cycles* at that bandwidth.
// Service cycles are the currency of the executor's admission gate and
// deadline math — a job "costs" the virtual time the memory subsystem is
// busy serving it, so capacity shrinks automatically when a controller dies
// or derates (the same traffic prices to more cycles).
//
// The pricing convention is deliberately self-consistent rather than
// instruction-exact: each kernel is reduced to its logical operand streams
// (triad: A=B+C*D -> 4 streams, one written; Jacobi and LBM: source grid
// read, destination grid written), RFO-expanded, and priced at the planned
// per-stream offsets. What matters for admission is that quotes are
// monotone in load and degrade exactly like the analytic roofline the soak
// benchmarks assert against.

#include <cstdint>
#include <vector>

#include "runtime/executor/job.h"
#include "sim/analytic.h"
#include "sim/faults.h"
#include "util/expected.h"

namespace mcopt::runtime::exec {

struct PricingConfig {
  arch::AddressMap map{};
  arch::Calibration calibration{};
  double clock_ghz = 1.2;
  /// Thread count the analytic latency bound is evaluated at. The T2 runs
  /// 64 strands; at 64 the service (bandwidth) bound binds, which is the
  /// regime the executor arbitrates.
  unsigned pricing_threads = 64;
};

class PricingModel {
 public:
  explicit PricingModel(PricingConfig cfg = {});

  /// Prices `job` under a fault state: plans the kernel's stream layout
  /// over the surviving controllers, runs the analytic estimator, converts
  /// the job's traffic to service cycles. Fails (recoverably) when no
  /// controller survives — the executor maps that to ShedReason::kNoCapacity.
  [[nodiscard]] util::Expected<Quote> price(const JobSpec& job,
                                            const sim::FaultSpec& faults) const;

  /// The raw analytic estimate for a kind's planned streams under `faults`
  /// (bandwidth + per-controller utilization). The executor's workers use
  /// the utilization vector as the supervisor's measurement stand-in,
  /// evaluated under the ground-truth fault state. A fault-free state reads
  /// the healthy table built at construction.
  [[nodiscard]] util::Expected<sim::AnalyticEstimate> estimate(
      JobKind kind, const sim::FaultSpec& faults) const;

  /// Total memory traffic of a job in bytes (reads + RFO + write-backs),
  /// the numerator of every quote and of the soak's goodput accounting.
  /// Throws std::invalid_argument when it does not fit in 64 bits.
  [[nodiscard]] static std::uint64_t traffic_bytes(const JobSpec& job);

  /// Healthy planned-layout bandwidth of a kind (bytes/s): the analytic
  /// roofline the overload soak caps goodput against.
  [[nodiscard]] double roofline_bandwidth(JobKind kind) const;

  /// Clock frequency in Hz (virtual cycles per second).
  [[nodiscard]] double clock_hz() const noexcept { return cfg_.clock_ghz * 1e9; }

  [[nodiscard]] const PricingConfig& config() const noexcept { return cfg_; }

 private:
  /// Plans `kind`'s streams over the controllers surviving `faults` and
  /// runs the analytic model: what estimate() returns, without the table.
  [[nodiscard]] util::Expected<sim::AnalyticEstimate> model_estimate(
      JobKind kind, const sim::FaultSpec& faults) const;

  /// The healthy table's entry for `kind`, or nullptr when `faults` is not
  /// fault-free (or `kind` is unknown) and the model must run.
  [[nodiscard]] const util::Expected<sim::AnalyticEstimate>* healthy_entry(
      JobKind kind, const sim::FaultSpec& faults) const noexcept;

  PricingConfig cfg_;
  /// Every controller: the plan set of a healthy quote.
  std::vector<unsigned> healthy_set_;
  /// model_estimate(kind, {}) per JobKind, indexed by the enum. An estimate
  /// depends on the kind and the fault state only, never on a job's n or
  /// iterations, so the healthy ones are computed once. The table is
  /// immutable after construction: concurrent readers need no lock.
  std::vector<util::Expected<sim::AnalyticEstimate>> healthy_;
};

}  // namespace mcopt::runtime::exec
