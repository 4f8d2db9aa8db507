#include "kernels/jacobi.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/timer.h"

namespace mcopt::kernels {

void relax_line(double* dl, const double* sa, const double* sb,
                const double* sl, std::size_t n) noexcept {
  for (std::size_t j = 1; j + 1 < n; ++j)
    dl[j] = (sa[j] + sb[j] + sl[j - 1] + sl[j + 1]) * 0.25;
}

seg::seg_array<double> make_jacobi_grid(std::size_t n, const seg::LayoutSpec& spec) {
  if (n < 3) throw std::invalid_argument("make_jacobi_grid: n < 3");
  return seg::seg_array<double>(std::vector<std::size_t>(n, n), spec);
}

void init_jacobi(seg::seg_array<double>& grid) {
  const std::size_t n = grid.num_segments();
  for (std::size_t i = 0; i < n; ++i) {
    auto& row = grid.segment(i);
    const bool edge_row = (i == 0 || i + 1 == n);
    for (std::size_t j = 0; j < n; ++j)
      row[j] = (edge_row || j == 0 || j + 1 == n) ? 1.0 : 0.0;
  }
}

double jacobi_sweep_seconds(const seg::seg_array<double>& src,
                            seg::seg_array<double>& dst,
                            const sched::Schedule& schedule) {
  const std::size_t n = src.num_segments();
  if (dst.num_segments() != n)
    throw std::invalid_argument("jacobi_sweep: grid size mismatch");
  sched::apply_omp_schedule(schedule);
  const auto rows = static_cast<std::ptrdiff_t>(n) - 1;
  util::Timer timer;
#pragma omp parallel for schedule(runtime)
  for (std::ptrdiff_t i = 1; i < rows; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    relax_line(dst.segment(ui).begin(), src.segment(ui - 1).begin(),
               src.segment(ui + 1).begin(), src.segment(ui).begin(), n);
  }
  return timer.seconds();
}

void jacobi_rebuild_row(seg::seg_array<double>& field,
                        const seg::seg_array<double>& prev, std::size_t s) {
  const std::size_t n = field.num_segments();
  if (prev.num_segments() != n)
    throw std::invalid_argument("jacobi_rebuild_row: grid size mismatch");
  if (s >= n) throw std::out_of_range("jacobi_rebuild_row: row out of range");
  auto& row = field.segment(s);
  if (s == 0 || s + 1 == n) {
    for (std::size_t j = 0; j < n; ++j) row[j] = 1.0;
    return;
  }
  // Same call the sweep made for this row (relax_line touches only
  // j in [1, n-1)), so the rebuilt values are bit-identical; the boundary
  // columns are the Dirichlet condition.
  row[0] = 1.0;
  row[n - 1] = 1.0;
  relax_line(row.begin(), prev.segment(s - 1).begin(),
             prev.segment(s + 1).begin(), prev.segment(s).begin(), n);
}

double jacobi_max_delta(const seg::seg_array<double>& a,
                        const seg::seg_array<double>& b) {
  if (a.num_segments() != b.num_segments())
    throw std::invalid_argument("jacobi_max_delta: grid size mismatch");
  double delta = 0.0;
  for (std::size_t i = 0; i < a.num_segments(); ++i) {
    const auto& ra = a.segment(i);
    const auto& rb = b.segment(i);
    for (std::size_t j = 0; j < ra.size(); ++j)
      delta = std::max(delta, std::abs(ra[j] - rb[j]));
  }
  return delta;
}

void jacobi_reference_sweep(const std::vector<double>& src,
                            std::vector<double>& dst, std::size_t n) {
  if (src.size() != n * n || dst.size() != n * n)
    throw std::invalid_argument("jacobi_reference_sweep: bad sizes");
  for (std::size_t i = 1; i + 1 < n; ++i)
    for (std::size_t j = 1; j + 1 < n; ++j)
      dst[i * n + j] = (src[(i - 1) * n + j] + src[(i + 1) * n + j] +
                        src[i * n + j - 1] + src[i * n + j + 1]) *
                       0.25;
}

VirtualJacobi make_virtual_jacobi(trace::VirtualArena& arena, std::size_t n,
                                  const seg::LayoutSpec& spec) {
  if (n < 3) throw std::invalid_argument("make_virtual_jacobi: n < 3");
  const std::vector<std::size_t> rows(n, n);
  return VirtualJacobi{
      trace::VirtualSegArray(arena, rows, sizeof(double), spec),
      trace::VirtualSegArray(arena, rows, sizeof(double), spec), n};
}

seg::LayoutSpec jacobi_plain_spec() {
  seg::LayoutSpec spec;
  spec.base_align = 16;  // whatever malloc gives
  spec.segment_align = 0;
  spec.shift = 0;
  spec.offset = 0;
  return spec;
}

seg::LayoutSpec jacobi_optimal_spec(const arch::AddressMap& map) {
  return seg::plan_row_layout(map).spec();
}

}  // namespace mcopt::kernels
