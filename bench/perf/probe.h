#pragma once
// Host-speed probe of the wall-clock benchmark.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over seconds to minutes as other tenants load the machine. The probe is a
// fixed block of host work whose duration tracks that drift: a miniature
// event loop (pop the earliest of 64 timers from a binary heap, touch a
// hashed slot of a 1 MiB table, reschedule) — branchy integer work over a
// cache-sized working set, like the simulators' and the service's own loops.
// The table is walked untimed before each slice, so what the workload left
// in the caches does not change how long a slice takes.
//
// It lives in a library of its own that links nothing from the repository,
// so no change to src/ or to the repository's compile options can move it.

#include <cstddef>

namespace mcopt::perf {

/// Wall seconds one probe slice takes right now.
[[nodiscard]] double probe_slice_seconds();

/// Median slice time right after writing `evict_mib` MiB (evicting the
/// caller's caches, as a large workload step would) over the median slice
/// time without that, from `pairs` (>= 1) pairs run in alternating order.
/// Near 1 when the probe measures the host, not the workload's footprint.
[[nodiscard]] double probe_footprint_ratio(std::size_t evict_mib, int pairs);

}  // namespace mcopt::perf
