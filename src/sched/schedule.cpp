#include "sched/schedule.h"

#include <algorithm>
#include <stdexcept>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace mcopt::sched {

std::string Schedule::describe() const {
  switch (kind) {
    case ScheduleKind::kStatic:
      return "static";
    case ScheduleKind::kStaticChunk:
      return "static," + std::to_string(chunk);
    case ScheduleKind::kDynamic:
      return "dynamic," + std::to_string(chunk);
  }
  return "?";
}

util::Status Schedule::check() const {
  util::Status status;
  if ((kind == ScheduleKind::kStaticChunk || kind == ScheduleKind::kDynamic) &&
      chunk == 0)
    status.note("Schedule: " + describe() + " requires chunk >= 1");
  if (chunk > (std::size_t{1} << 48))
    status.note("Schedule: chunk " + std::to_string(chunk) +
                " is implausibly large (overflow guard)");
  return status;
}

void Schedule::validate() const { check().throw_if_failed(); }

void apply_omp_schedule(const Schedule& schedule) {
#ifdef _OPENMP
  switch (schedule.kind) {
    case ScheduleKind::kStatic:
      omp_set_schedule(omp_sched_static, 0);
      break;
    case ScheduleKind::kStaticChunk:
      omp_set_schedule(omp_sched_static, static_cast<int>(schedule.chunk));
      break;
    case ScheduleKind::kDynamic:
      omp_set_schedule(omp_sched_dynamic, static_cast<int>(schedule.chunk));
      break;
  }
#else
  (void)schedule;
#endif
}

std::vector<IterRange> chunks_for_thread(std::size_t n, unsigned num_threads,
                                         unsigned t, const Schedule& schedule) {
  if (num_threads == 0) throw std::invalid_argument("chunks_for_thread: zero threads");
  if (t >= num_threads) throw std::invalid_argument("chunks_for_thread: t out of range");

  std::vector<IterRange> chunks;
  if (n == 0) return chunks;

  switch (schedule.kind) {
    case ScheduleKind::kStatic: {
      // libgomp: q = n/T iterations each, first n%T threads get one more.
      const std::size_t q = n / num_threads;
      const std::size_t r = n % num_threads;
      const std::size_t begin = t * q + std::min<std::size_t>(t, r);
      const std::size_t len = q + (t < r ? 1 : 0);
      if (len != 0) chunks.push_back({begin, begin + len});
      break;
    }
    case ScheduleKind::kStaticChunk:
    case ScheduleKind::kDynamic: {
      // Dynamic is modeled deterministically as round-robin chunks; with
      // uniform iteration cost this is what a real dynamic schedule converges
      // to, and it keeps simulator runs reproducible.
      const std::size_t c = schedule.chunk == 0 ? 1 : schedule.chunk;
      for (std::size_t start = static_cast<std::size_t>(t) * c; start < n;
           start += static_cast<std::size_t>(num_threads) * c) {
        chunks.push_back({start, std::min(start + c, n)});
      }
      break;
    }
  }
  return chunks;
}

std::vector<std::vector<IterRange>> partition(std::size_t n, unsigned num_threads,
                                              const Schedule& schedule) {
  std::vector<std::vector<IterRange>> result(num_threads);
  for (unsigned t = 0; t < num_threads; ++t)
    result[t] = chunks_for_thread(n, num_threads, t, schedule);
  return result;
}

}  // namespace mcopt::sched
