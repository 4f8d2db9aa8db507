#pragma once
// Deterministic model of OpenMP loop scheduling.
//
// The paper's results hinge on the schedule: STREAM uses "static" (one
// contiguous chunk per thread, which is what makes all chunk base addresses
// congruent), the Jacobi solver needs "static,1" (round-robin rows, Sect.
// 2.3), and the LBM "modulo effect" comes from N not dividing evenly by the
// thread count unless outer loops are coalesced. The simulator replays
// exactly these partitions; the native kernels use real OpenMP with the
// matching schedule clause.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/expected.h"

namespace mcopt::sched {

/// Half-open iteration range [begin, end).
struct IterRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool empty() const noexcept { return begin == end; }
  friend bool operator==(const IterRange&, const IterRange&) = default;
};

enum class ScheduleKind {
  kStatic,       ///< one contiguous chunk per thread (OpenMP default static)
  kStaticChunk,  ///< round-robin chunks of fixed size ("static,c")
  kDynamic,      ///< modeled as round-robin chunks (deterministic stand-in)
};

struct Schedule {
  ScheduleKind kind = ScheduleKind::kStatic;
  std::size_t chunk = 1;  ///< used by kStaticChunk / kDynamic

  [[nodiscard]] static constexpr Schedule static_block() { return {ScheduleKind::kStatic, 0}; }
  [[nodiscard]] static constexpr Schedule static_chunk(std::size_t c) {
    return {ScheduleKind::kStaticChunk, c};
  }
  [[nodiscard]] std::string describe() const;

  /// Non-throwing validation: chunked kinds need an explicit chunk >= 1 and
  /// a sane bound (a chunk of 0 used to be silently coerced to 1).
  [[nodiscard]] util::Status check() const;
  /// Throwing wrapper around check().
  void validate() const;
};

/// Sets the OpenMP runtime schedule to `schedule`, for loops declared
/// `schedule(runtime)`; a no-op without OpenMP.
void apply_omp_schedule(const Schedule& schedule);

/// Chunks executed by thread `t` of `num_threads` over `n` iterations,
/// in execution order. Matches libgomp semantics for the static schedules.
[[nodiscard]] std::vector<IterRange> chunks_for_thread(std::size_t n,
                                                       unsigned num_threads,
                                                       unsigned t,
                                                       const Schedule& schedule);

/// All threads' chunks: result[t] = chunks_for_thread(..., t, ...).
[[nodiscard]] std::vector<std::vector<IterRange>> partition(std::size_t n,
                                                            unsigned num_threads,
                                                            const Schedule& schedule);

/// Index mapping for two coalesced ("collapsed") loop levels: flattening
/// (i in [0,n_outer)) x (j in [0,n_inner)) into one parallel loop of
/// n_outer*n_inner iterations, the paper's fix for the LBM modulo effect.
struct Collapse2 {
  std::size_t n_outer = 0;
  std::size_t n_inner = 0;

  [[nodiscard]] std::size_t size() const noexcept { return n_outer * n_inner; }
  [[nodiscard]] std::size_t outer(std::size_t flat) const noexcept {
    return flat / n_inner;
  }
  [[nodiscard]] std::size_t inner(std::size_t flat) const noexcept {
    return flat % n_inner;
  }
  [[nodiscard]] std::size_t flatten(std::size_t i, std::size_t j) const noexcept {
    return i * n_inner + j;
  }
};

}  // namespace mcopt::sched
