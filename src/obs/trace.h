#pragma once
// Flight-recorder tracing: lock-free per-thread ring buffers of fixed-size
// binary events with a Chrome trace_event JSON exporter.
//
// Design constraints, in order:
//  * ~zero cost when compiled in but idle: record() is one relaxed atomic
//    load and a branch when the recorder is disabled;
//  * no allocation on the hot path: each thread owns a fixed-capacity ring
//    of 128-byte slots, allocated once on the thread's first event and
//    never freed (so a fatal-signal handler can walk them safely);
//  * TSan-clean with zero suppressions: every slot word is a std::atomic
//    written with release stores and published by a seqlock-style sequence
//    number (odd = in progress, even = committed), so a concurrent reader
//    never races — it re-checks the sequence and skips torn slots;
//  * flight-recorder semantics: the ring overwrites its oldest events and
//    counts what it dropped; on a watchdog trip, invariant failure, or
//    fatal signal the last N events per thread are serialized next to the
//    failing artifact (write_flight_dump / install_flight_recorder).
//
// Event names and categories MUST be string literals (or otherwise have
// static storage duration): slots store the pointers, not copies. Dynamic
// payload goes in the two u64 args or the 32-byte inline message.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/expected.h"

namespace mcopt::obs {

/// Chrome trace_event phases we emit. kBegin/kEnd are duration spans,
/// kInstant a point event, kCounter a sampled value (args.value = a).
/// kFlowStart/kFlowStep/kFlowEnd are flow events ("s"/"t"/"f"): the causal
/// arrows that stitch one job's spans across threads — and, because the
/// flow id is the journaled trace context, across process restarts. The
/// flow id is the event's `a` argument; `b` is free for a correlator
/// (submission id, shard index, ...).
enum class Phase : std::uint8_t {
  kBegin = 0,
  kEnd = 1,
  kInstant = 2,
  kCounter = 3,
  kFlowStart = 4,
  kFlowStep = 5,
  kFlowEnd = 6,
};

[[nodiscard]] char phase_char(Phase p) noexcept;

/// Allocates a fresh nonzero causal trace id. Ids carry a per-process salt
/// in their high bits so two processes (or one process across a restart)
/// never mint colliding ids; replayed jobs keep the journaled original.
[[nodiscard]] std::uint64_t next_trace_id() noexcept;

/// Monotonic nanoseconds since the process-wide trace epoch (first use).
/// Shared with util::log timestamps so log lines and trace events align.
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// One decoded event, as returned by TraceRecorder::snapshot().
struct TraceEvent {
  std::uint64_t ts_ns = 0;
  std::uint32_t tid = 0;   ///< recorder-assigned thread index
  std::uint64_t seq = 0;   ///< per-thread event ordinal (monotone)
  Phase phase = Phase::kInstant;
  const char* name = "";
  const char* cat = "";
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string msg;         ///< inline message (log mirror), possibly empty
};

/// Inline message capacity per event (bytes).
inline constexpr std::size_t kEventMsgBytes = 32;

/// Process-wide trace recorder. All methods are thread-safe; record() is
/// wait-free after a thread's first event.
class TraceRecorder {
 public:
  /// Per-thread ring buffer; definition is internal to trace.cpp but the
  /// type is public so file-local helpers can own and cache pointers.
  struct ThreadBuffer;

  static TraceRecorder& instance() noexcept;

  /// Turns recording on. `capacity_per_thread` (rounded up to a power of
  /// two, min 8) applies to ring buffers created after this call; threads
  /// that already own a buffer keep theirs. Also mirrors util::log lines
  /// into the trace as "log"-category instants.
  void enable(std::size_t capacity_per_thread = kDefaultCapacity);

  /// Turns recording off (buffers and their events are retained for
  /// snapshot/export until reset()).
  void disable();

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's ring. No-op when disabled.
  /// `name`/`cat` must have static storage duration. `msg` (optional) is
  /// copied inline, truncated to kEventMsgBytes.
  void record(Phase phase, const char* name, const char* cat,
              std::uint64_t a = 0, std::uint64_t b = 0,
              const char* msg = nullptr, std::size_t msg_len = 0) noexcept;

  /// Decodes every committed event still resident in the rings, sorted by
  /// timestamp (ties broken by thread id, then per-thread order). Safe to
  /// call concurrently with writers: in-flight or overwritten slots are
  /// skipped, never torn.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Writes the full resident trace as Chrome trace_event JSON (load in
  /// chrome://tracing or https://ui.perfetto.dev). Unmatched begin/end
  /// events at the ring edges are balanced so the file always validates.
  [[nodiscard]] util::Status write_chrome_trace(const std::string& path) const;

  /// Writes only the last `last_n` events per thread (the flight recorder's
  /// post-mortem window), same format.
  [[nodiscard]] util::Status write_flight_dump(
      const std::string& path, std::size_t last_n = kFlightWindow) const;

  /// Async-signal-safe plain-text dump of the last kFlightWindow events per
  /// thread to an open fd: no allocation, no stdio, no locks. Returns 0 on
  /// success. This is what the fatal-signal handler calls.
  int dump_to_fd(int fd) const noexcept;

  /// Events ever recorded / overwritten-or-dropped since the last reset().
  [[nodiscard]] std::uint64_t recorded() const noexcept;
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  /// Threads that have contributed at least one event since the last reset.
  [[nodiscard]] std::uint32_t threads_seen() const noexcept;
  /// Slots a reader skipped because a writer was mid-publish (seqlock
  /// validation failed and the read retried on the next slot). A handful per
  /// snapshot is normal under load; a large number means readers are racing
  /// hot writers and the export window should move off the hot path.
  [[nodiscard]] std::uint64_t seqlock_retries() const noexcept;

  /// Discards all recorded events and thread registrations (buffers are
  /// retired, not freed — a crash handler may still be walking them). The
  /// enabled state and configured capacity are preserved. Test/bench use.
  void reset();

  static constexpr std::size_t kDefaultCapacity = 1 << 16;
  static constexpr std::size_t kFlightWindow = 256;
  static constexpr std::size_t kMaxThreads = 256;

 private:
  TraceRecorder() = default;

  ThreadBuffer* buffer_for_this_thread() noexcept;

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
  /// Bumped by reset(); thread-local cached buffers from older generations
  /// are abandoned and re-acquired.
  std::atomic<std::uint64_t> generation_{0};
  /// Append-only registration slots walked by readers and the signal
  /// handler; cleared only by reset() (count drops, pointers stay valid).
  std::array<std::atomic<ThreadBuffer*>, kMaxThreads> registry_{};
  std::atomic<std::uint32_t> registered_{0};
  /// Events lost because the per-process thread limit was hit.
  std::atomic<std::uint64_t> unregistered_drops_{0};
  /// Torn-slot skips observed by snapshot()/dump_to_fd() readers.
  mutable std::atomic<std::uint64_t> seqlock_retries_{0};
};

/// RAII begin/end span. No-op when the recorder is disabled at
/// construction. set_args() updates the values attached to the end event.
class TraceSpan {
 public:
  TraceSpan(const char* name, const char* cat, std::uint64_t a = 0,
            std::uint64_t b = 0) noexcept
      : name_(name), cat_(cat), a_(a), b_(b),
        live_(TraceRecorder::instance().enabled()) {
    if (live_) TraceRecorder::instance().record(Phase::kBegin, name_, cat_, a_, b_);
  }
  ~TraceSpan() {
    if (live_) TraceRecorder::instance().record(Phase::kEnd, name_, cat_, a_, b_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_args(std::uint64_t a, std::uint64_t b) noexcept {
    a_ = a;
    b_ = b;
  }

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t a_;
  std::uint64_t b_;
  bool live_;
};

inline void trace_instant(const char* name, const char* cat,
                          std::uint64_t a = 0, std::uint64_t b = 0) noexcept {
  TraceRecorder::instance().record(Phase::kInstant, name, cat, a, b);
}

inline void trace_counter(const char* name, const char* cat,
                          std::uint64_t value) noexcept {
  TraceRecorder::instance().record(Phase::kCounter, name, cat, value);
}

/// Causal flow markers. `flow_id` is the 64-bit trace context allocated at
/// the service door and carried through WFQ, the executor, and the journal;
/// every event sharing a flow id renders as one connected arrow chain in
/// the Chrome/Perfetto UI. `corr` is a free correlator (submission id).
inline void trace_flow_start(const char* name, const char* cat,
                             std::uint64_t flow_id,
                             std::uint64_t corr = 0) noexcept {
  TraceRecorder::instance().record(Phase::kFlowStart, name, cat, flow_id, corr);
}

inline void trace_flow_step(const char* name, const char* cat,
                            std::uint64_t flow_id,
                            std::uint64_t corr = 0) noexcept {
  TraceRecorder::instance().record(Phase::kFlowStep, name, cat, flow_id, corr);
}

inline void trace_flow_end(const char* name, const char* cat,
                           std::uint64_t flow_id,
                           std::uint64_t corr = 0) noexcept {
  TraceRecorder::instance().record(Phase::kFlowEnd, name, cat, flow_id, corr);
}

/// Installs fatal-signal handlers (SIGSEGV, SIGBUS, SIGILL, SIGFPE,
/// SIGABRT) that dump the flight-recorder window to `path` (plain text via
/// dump_to_fd) and then re-raise with the default disposition. The path is
/// copied into static storage; repeated calls replace it.
[[nodiscard]] util::Status install_flight_recorder(const std::string& path);

}  // namespace mcopt::obs
