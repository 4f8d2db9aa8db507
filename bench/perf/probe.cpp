#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace mcopt::perf {

namespace {
/// Keeps the probe's result observable so the loop is not optimized away.
thread_local volatile std::uint64_t probe_sink = 0;
}  // namespace

double probe_slice_seconds() {
  thread_local std::vector<std::uint64_t> table(std::size_t{1} << 17, 1);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap;
  for (std::uint32_t t = 0; t < 64; ++t) heap.emplace_back(t, t);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  // Walk the whole table untimed first. The workload ran just before and
  // evicted some of it; without the walk the slice would time how much, so
  // a change to the workload's cache footprint would move the scale factor.
  std::uint64_t h = probe_sink;
  for (const std::uint64_t v : table) h += v;
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < (1 << 14); ++k) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    auto& [when, id] = heap.back();
    h = (h ^ (when + id)) * 0x9e3779b97f4a7c15ULL;
    std::uint64_t& slot = table[(h >> 40) & (table.size() - 1)];
    slot += h;
    when += 1 + ((slot >> 7) & 31);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const auto t1 = std::chrono::steady_clock::now();
  probe_sink = h;
  return std::chrono::duration<double>(t1 - t0).count();
}

double probe_footprint_ratio(std::size_t evict_mib, int pairs) {
  std::vector<unsigned char> evict(evict_mib << 20);
  std::vector<double> after_evict, plain;
  for (int i = 0; i < pairs; ++i) {
    for (int k = 0; k < 2; ++k) {
      const bool evicting = (k == 0) == (i % 2 == 0);
      if (evicting) {
        std::uint64_t touched = 0;
        for (std::size_t b = 0; b < evict.size(); b += 64) touched += ++evict[b];
        probe_sink = probe_sink + touched;
      }
      (evicting ? after_evict : plain).push_back(probe_slice_seconds());
    }
  }
  const auto median = [](std::vector<double>& v) {
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
  };
  return median(after_evict) / median(plain);
}

}  // namespace mcopt::perf
