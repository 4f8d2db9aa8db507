#pragma once
// Overload-robust concurrent job runtime.
//
// The executor accepts kernel jobs (triad / Jacobi / LBM solves with an
// iteration count, a priority and a deadline), prices each job's bandwidth
// demand with the analytic model over its planned layout and the currently
// *believed* fault state, and admits, queues, sheds or rejects accordingly.
//
// ## The virtual bandwidth timeline
//
// The contended resource is the memory subsystem, modeled as one serialized
// bandwidth server on a virtual cycle clock:
//
//   arrival_clock_  — the largest arrival stamp submitted so far (an
//                     open-loop generator submits with increasing stamps);
//   service_tail_   — the virtual time the bandwidth channel is busy until.
//
// When a worker pops a job, the queue's reserve hook runs UNDER the queue
// lock and stamps the job's service window:
//
//   start  = max(service_tail_, job.arrival)
//   finish = start + quote.service_cycles ;  service_tail_ = finish
//
// unless start already passed the deadline, in which case the job is shed
// (kDeadlineExpiredInQueue) without consuming bandwidth. Because the
// reservation is part of the dequeue critical section, virtual start order
// equals pop order exactly, which yields the *shed-lag bound*: an accepted
// job that runs was dequeued with start < deadline, so its lateness is at
// most its own service quote — the executor never burns bandwidth on work
// that is already hopeless, and never lets an admitted job miss by more
// than one job's worth of service.
//
// Real threads do real kernel work (strictly serial bodies — see the TSan
// note below); all *accounting* lives on the virtual timeline, so admission
// and shed decisions are deterministic for a fixed submission order.
//
// ## Admission control
//
// Admission projects the serialized bandwidth server over the admitted jobs
// in submission order (an atomic admission tail, same recurrence as the
// reserve hook):
//
//   start_est  = max(admit_tail, arrival)
//   finish_est = start_est + own service quote ;  admit_tail = finish_est
//
// A job whose finish_est + margin exceeds its deadline is rejected up front
// (kWouldMissDeadline) — shedding at the door is cheaper than shedding in
// the queue. The projection is exact for the aggregate busy period and
// conservative per job up to priority overtake (a high-priority job
// admitted later serves first); admission_margin absorbs that slip and
// expiry-shedding at dequeue bounds whatever remains. A full lane rejects
// with kQueueFull (typed backpressure). Jobs that cannot be priced because
// no controller survives reject with kNoCapacity.
//
// ## Graceful degradation
//
// The executor owns the ground-truth fault timeline (config.truth, on the
// virtual clock). Workers synthesize per-controller utilization samples
// from the analytic model under the *truth* state at each job's finish and
// push them onto an ingestion queue; whichever worker gets the control
// mutex next drains the queue into the runtime::Supervisor (single-consumer
// by contract — this queue is what the supervisor's threading contract
// refers to). When the supervisor commits a replan, the believed fault
// state updates, every queued job is re-priced in place (committed counters
// adjusted, nothing dropped), and newly-offline controllers arm per-
// controller circuit breakers (util::Backoff): a controller whose breaker
// is still holding stays excluded from admission pricing even after the
// diagnosis clears, and flapping escalates the hold geometrically.
//
// ## ThreadSanitizer
//
// Everything on the executor's path is mutex/condvar/atomic by
// construction — no lock-free structures, no OpenMP. Job bodies for triad
// and Jacobi are strictly serial loops; the LBM body calls
// lbm::Solver::step(), which is OpenMP-parallel inside, so TSan builds
// exercise the executor with triad/Jacobi jobs (the soak's default mix).

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/executor/cancellation.h"
#include "runtime/executor/job.h"
#include "runtime/executor/mpmc_queue.h"
#include "runtime/executor/pricing.h"
#include "runtime/supervisor.h"
#include "sim/fault_schedule.h"
#include "util/backoff.h"

namespace mcopt::runtime::exec {

struct ExecutorConfig {
  PricingConfig pricing{};
  unsigned num_workers = 4;
  /// Per-lane queue bounds (high, normal, low).
  std::array<std::size_t, kNumLanes> lane_capacity = {16, 64, 64};
  /// Queue pop order. kStrictPriority is the PR-4 behavior; the service
  /// layer selects kWeightedFair so per-tenant flows (JobSpec::tenant /
  /// fair_weight, quote bytes as the cost) share dequeue bandwidth in
  /// weight proportion with bit-stable (lane, sequence) tie-breaking.
  QueuePolicy queue_policy = QueuePolicy::kStrictPriority;
  /// Admission slack subtracted from every deadline at the gate.
  arch::Cycles admission_margin = 0;
  /// Ground-truth fault timeline on the virtual clock (what the "hardware"
  /// actually does; must be resolved — no percent bounds).
  sim::FaultSchedule truth{};
  /// Supervisor detector thresholds and seed (equal seeds replay).
  DetectorConfig detector{};
  std::uint64_t seed = 0;
  /// Per-controller circuit-breaker backoff, in virtual cycles.
  util::BackoffConfig breaker{.initial = 50000, .multiplier = 2.0,
                              .cap = 3200000, .jitter = 0.1};
  /// When false, job bodies are skipped (pure virtual-time accounting) —
  /// for queue/admission micro-tests that don't care about kernel output.
  bool run_kernels = true;
};

/// Outcome of submit(): either accepted (queued) or rejected with a typed
/// reason. Rejected jobs still receive a JobReport — nothing is silent.
struct SubmitResult {
  std::uint64_t id = 0;
  bool accepted = false;
  ShedReason rejected = ShedReason::kNone;
};

struct ExecutorStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Indexed by ShedReason (kNone slot unused).
  std::array<std::uint64_t, kNumShedReasons> shed{};
  std::uint64_t goodput_bytes = 0;
  std::uint64_t replans = 0;
  std::uint64_t breaker_trips = 0;
};

class Executor {
 public:
  enum class Drain {
    kDrain,      ///< run everything still queued, then stop
    kShedQueued  ///< stop now; queued jobs report ShedReason::kShutdown
  };

  explicit Executor(ExecutorConfig cfg);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Prices and admits one job. Thread-safe. Advances the arrival clock to
  /// spec.arrival. Every call produces exactly one JobReport eventually
  /// (immediately on rejection, at service/shed time otherwise). A spec
  /// with fair_weight <= 0 or traffic that does not fit in 64 bits throws
  /// std::invalid_argument instead, before an id is minted.
  SubmitResult submit(const JobSpec& spec);

  /// Requests cooperative cancellation of an accepted job. Returns false
  /// for unknown ids. A job cancelled mid-run stops at the next segment
  /// boundary with its field at the last completed generation.
  bool cancel(std::uint64_t id);

  /// Stops the pool. Idempotent; the destructor calls shutdown(kShedQueued)
  /// if nobody did. After shutdown, reports() holds exactly one entry per
  /// submitted job.
  void shutdown(Drain mode);

  /// Snapshot of all finalized job reports, sorted by id.
  [[nodiscard]] std::vector<JobReport> reports() const;

  /// Reports finalized at position >= `from`, in finalization order — an
  /// incremental drain: a caller that remembers how many it has consumed
  /// sees each report exactly once without copying the whole log.
  [[nodiscard]] std::vector<JobReport> reports_tail(std::size_t from) const;

  [[nodiscard]] ExecutorStats stats() const;

  /// Current virtual time: max(arrival clock, service tail).
  [[nodiscard]] arch::Cycles virtual_now() const noexcept;

  /// The three virtual-timeline clocks, for durable state snapshots. Only
  /// meaningful at a quiesced instant (queue empty, no job in flight) —
  /// that is when the clocks fully describe the timeline.
  struct VirtualClocks {
    arch::Cycles arrival = 0;
    arch::Cycles service_tail = 0;
    arch::Cycles admit_tail = 0;
  };
  [[nodiscard]] VirtualClocks virtual_clocks() const noexcept;

  /// Restores clocks captured by virtual_clocks() into a fresh executor,
  /// BEFORE any submission: a restarted process continues the virtual
  /// timeline where the snapshot left it, so admission projections and WFQ
  /// virtual time replay deterministically across the restart.
  void restore_virtual_clocks(const VirtualClocks& c) noexcept;

  /// The fault state admission currently prices against (supervisor
  /// diagnosis; healthy until a replan commits).
  [[nodiscard]] sim::FaultSpec believed_fault() const;

  /// Believed state merged with breaker-held exclusions at virtual `now` —
  /// what a submission at `now` is actually priced under.
  [[nodiscard]] sim::FaultSpec effective_fault(arch::Cycles now) const;

  /// Controllers excluded by a still-holding circuit breaker at `now`.
  [[nodiscard]] std::vector<unsigned> broken_controllers(arch::Cycles now) const;

  [[nodiscard]] const PricingModel& pricing() const noexcept { return pricing_; }
  [[nodiscard]] std::size_t queued() const { return queue_.size(); }

  /// Gates worker dequeue (LaneQueue::hold/release): while held, accepted
  /// jobs accumulate in the queue unpopped, so a submitter can publish an
  /// arrival batch atomically with respect to reservation order — pops,
  /// and with them the virtual service windows, then depend only on the
  /// batch content, never on push/pop timing. Deterministic-replay hook
  /// for seeded soaks; shutdown overrides a hold.
  void hold_dequeue() { queue_.hold(); }
  void release_dequeue() { queue_.release(); }

 private:
  struct Pending {
    JobSpec spec;
    std::uint64_t id = 0;
    Quote quote;
    CancellationToken token;
    arch::Cycles start = 0;
    arch::Cycles finish = 0;
    bool expired = false;  ///< reserve hook verdict: shed, don't run
  };

  void worker_loop();
  void process(Pending&& job);
  void run_body(Pending& job, JobReport& report);
  void ingest_sample(const Pending& job);
  void control_step();
  void apply_diagnosis(const sim::FaultSpec& diagnosis, arch::Cycles now);
  void reprice_queued(arch::Cycles now);
  void finalize(JobReport report);
  [[nodiscard]] sim::FaultSpec effective_fault_locked(arch::Cycles now) const;
  void advance_arrival_clock(arch::Cycles to) noexcept;

  ExecutorConfig cfg_;
  PricingModel pricing_;
  LaneQueue<Pending> queue_;

  std::atomic<arch::Cycles> arrival_clock_{0};
  std::atomic<arch::Cycles> service_tail_{0};
  /// Admission-control projection of the serialized server over admitted
  /// jobs in submission order (see the header comment).
  std::atomic<arch::Cycles> admit_tail_{0};

  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> stopped_{false};

  // Believed fault state + per-controller circuit breakers.
  mutable std::mutex believed_mu_;
  sim::FaultSpec believed_;
  std::vector<util::Backoff> breakers_;
  std::vector<bool> breaker_open_;  ///< controller currently diagnosed dead

  // Sample ingestion queue: workers push, the control step (one thread at a
  // time, via try-lock on control_mu_) drains into the supervisor.
  std::mutex ingest_mu_;
  std::deque<Sample> ingest_;
  std::mutex control_mu_;
  Supervisor supervisor_;

  mutable std::mutex reports_mu_;
  std::vector<JobReport> reports_;

  std::mutex cancel_mu_;
  std::unordered_map<std::uint64_t, CancellationSource> cancel_sources_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::array<std::atomic<std::uint64_t>, kNumShedReasons> shed_{};
  std::atomic<std::uint64_t> goodput_bytes_{0};
  std::atomic<std::uint64_t> replans_{0};
  std::atomic<std::uint64_t> breaker_trips_{0};

  std::vector<std::thread> workers_;
};

}  // namespace mcopt::runtime::exec
