#include "arch/address_map.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace mcopt::arch {

double AddressMap::lockstep_balance(std::span<const Addr> stream_bases,
                                    std::uint64_t lines_per_stream) const {
  if (stream_bases.empty())
    throw std::invalid_argument("lockstep_balance: no streams");
  if (lines_per_stream == 0)
    throw std::invalid_argument("lockstep_balance: zero lines");

  std::vector<std::uint64_t> step_hist(spec_.num_controllers());
  std::uint64_t cost_sum = 0;
  for (std::uint64_t k = 0; k < lines_per_stream; ++k) {
    std::fill(step_hist.begin(), step_hist.end(), 0);
    for (Addr base : stream_bases)
      ++step_hist[controller_of(base + k * spec_.line_size())];
    cost_sum += *std::max_element(step_hist.begin(), step_hist.end());
  }
  const auto total_lines =
      static_cast<double>(stream_bases.size()) * static_cast<double>(lines_per_stream);
  return total_lines /
         (static_cast<double>(spec_.num_controllers()) * static_cast<double>(cost_sum));
}

}  // namespace mcopt::arch
