#include "arch/calibration.h"

#include <cmath>

namespace mcopt::arch {

Calibration t2_calibration() noexcept { return Calibration{}; }

double cycles_to_seconds(Cycles c, double clock_ghz) noexcept {
  return static_cast<double>(c) / (clock_ghz * 1e9);
}

Cycles seconds_to_cycles(double seconds, double clock_ghz) noexcept {
  return static_cast<Cycles>(std::ceil(seconds * clock_ghz * 1e9));
}

double bandwidth_bytes_per_s(std::uint64_t bytes, Cycles c,
                             double clock_ghz) noexcept {
  if (c == 0) return 0.0;
  return static_cast<double>(bytes) / cycles_to_seconds(c, clock_ghz);
}

}  // namespace mcopt::arch
