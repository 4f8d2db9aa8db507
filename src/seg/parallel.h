#pragma once
// OpenMP-parallel hierarchical algorithms over segmented containers.
//
// The paper parallelizes "the loop over all segments" (Sect. 2.2); these
// helpers package that pattern: the segment loop is the OpenMP worksharing
// loop, the per-segment body is a tight serial loop over local iterators.
// Segment-to-thread assignment follows the given sched::Schedule, matching
// what the simulator replays.

#include <cstddef>
#include <stdexcept>

#include "seg/seg_array.h"
#include "sched/schedule.h"

namespace mcopt::seg {

/// Applies f(element&) to every element, parallel over segments.
template <typename T, typename F>
void par_for_each(seg_array<T>& a, F f,
                  const sched::Schedule& schedule = sched::Schedule::static_block()) {
  sched::apply_omp_schedule(schedule);
  const auto segments = static_cast<std::ptrdiff_t>(a.num_segments());
#pragma omp parallel for schedule(runtime)
  for (std::ptrdiff_t s = 0; s < segments; ++s) {
    auto& seg = a.segment(static_cast<std::size_t>(s));
    for (T& v : seg) f(v);
  }
}

/// Parallel fill.
template <typename T>
void par_fill(seg_array<T>& a, const T& value,
              const sched::Schedule& schedule = sched::Schedule::static_block()) {
  par_for_each(a, [&](T& v) { v = value; }, schedule);
}

/// out[i] = op(in[i]); both containers must be identically segmented.
template <typename T, typename UnaryOp>
void par_transform(const seg_array<T>& in, seg_array<T>& out, UnaryOp op,
                   const sched::Schedule& schedule = sched::Schedule::static_block()) {
  if (in.num_segments() != out.num_segments())
    throw std::invalid_argument("par_transform: segmentation mismatch");
  sched::apply_omp_schedule(schedule);
  const auto segments = static_cast<std::ptrdiff_t>(in.num_segments());
#pragma omp parallel for schedule(runtime)
  for (std::ptrdiff_t s = 0; s < segments; ++s) {
    const auto us = static_cast<std::size_t>(s);
    const auto& src = in.segment(us);
    auto& dst = out.segment(us);
    if (src.size() != dst.size())
      throw std::invalid_argument("par_transform: segment size mismatch");
    for (std::size_t i = 0; i < src.size(); ++i) dst[i] = op(src[i]);
  }
}

/// Parallel sum reduction (OpenMP reduction over segment partial sums).
template <typename T>
T par_sum(const seg_array<T>& a,
          const sched::Schedule& schedule = sched::Schedule::static_block()) {
  sched::apply_omp_schedule(schedule);
  const auto segments = static_cast<std::ptrdiff_t>(a.num_segments());
  T total{};
#pragma omp parallel for schedule(runtime) reduction(+ : total)
  for (std::ptrdiff_t s = 0; s < segments; ++s) {
    const auto& seg = a.segment(static_cast<std::size_t>(s));
    T partial{};
    for (const T& v : seg) partial += v;
    total += partial;
  }
  return total;
}

}  // namespace mcopt::seg
