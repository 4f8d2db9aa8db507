#include "kernels/jacobi3d.h"

#include <stdexcept>

#include "util/timer.h"

namespace mcopt::kernels {

void relax_line3d(double* dl, const double* sym, const double* syp,
                  const double* szm, const double* szp, const double* sl,
                  std::size_t n) noexcept {
  constexpr double kSixth = 1.0 / 6.0;
  for (std::size_t j = 1; j + 1 < n; ++j)
    dl[j] = (sym[j] + syp[j] + szm[j] + szp[j] + sl[j - 1] + sl[j + 1]) * kSixth;
}

seg::seg_array<double> make_jacobi3d_grid(std::size_t n,
                                          const seg::LayoutSpec& spec) {
  if (n < 3) throw std::invalid_argument("make_jacobi3d_grid: n < 3");
  return seg::seg_array<double>(std::vector<std::size_t>(n * n, n), spec);
}

void init_jacobi3d(seg::seg_array<double>& grid, std::size_t n) {
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y) {
      auto& row = grid.segment(z * n + y);
      const bool edge_row = z == 0 || z + 1 == n || y == 0 || y + 1 == n;
      for (std::size_t x = 0; x < n; ++x)
        row[x] = (edge_row || x == 0 || x + 1 == n) ? 1.0 : 0.0;
    }
}

double jacobi3d_sweep_seconds(const seg::seg_array<double>& src,
                              seg::seg_array<double>& dst, std::size_t n,
                              const sched::Schedule& schedule) {
  if (src.num_segments() != n * n || dst.num_segments() != n * n)
    throw std::invalid_argument("jacobi3d_sweep: grid/n mismatch");
  sched::apply_omp_schedule(schedule);
  const auto interior = static_cast<std::ptrdiff_t>((n - 2) * (n - 2));
  util::Timer timer;
#pragma omp parallel for schedule(runtime)
  for (std::ptrdiff_t k = 0; k < interior; ++k) {
    const std::size_t z = static_cast<std::size_t>(k) / (n - 2) + 1;
    const std::size_t y = static_cast<std::size_t>(k) % (n - 2) + 1;
    relax_line3d(dst.segment(z * n + y).begin(),
                 src.segment(z * n + y - 1).begin(),
                 src.segment(z * n + y + 1).begin(),
                 src.segment((z - 1) * n + y).begin(),
                 src.segment((z + 1) * n + y).begin(),
                 src.segment(z * n + y).begin(), n);
  }
  return timer.seconds();
}

void jacobi3d_reference_sweep(const std::vector<double>& src,
                              std::vector<double>& dst, std::size_t n) {
  if (src.size() != n * n * n || dst.size() != n * n * n)
    throw std::invalid_argument("jacobi3d_reference_sweep: bad sizes");
  const auto at = [n](std::size_t x, std::size_t y, std::size_t z) {
    return (z * n + y) * n + x;
  };
  for (std::size_t z = 1; z + 1 < n; ++z)
    for (std::size_t y = 1; y + 1 < n; ++y)
      for (std::size_t x = 1; x + 1 < n; ++x)
        dst[at(x, y, z)] =
            (src[at(x, y - 1, z)] + src[at(x, y + 1, z)] + src[at(x, y, z - 1)] +
             src[at(x, y, z + 1)] + src[at(x - 1, y, z)] + src[at(x + 1, y, z)]) /
            6.0;
}

std::uint64_t jacobi3d_updates_per_sweep(std::size_t n) {
  const std::uint64_t m = n - 2;
  return m * m * m;
}

VirtualJacobi3d make_virtual_jacobi3d(trace::VirtualArena& arena, std::size_t n,
                                      const seg::LayoutSpec& spec) {
  if (n < 3) throw std::invalid_argument("make_virtual_jacobi3d: n < 3");
  const std::vector<std::size_t> rows(n * n, n);
  return VirtualJacobi3d{
      trace::VirtualSegArray(arena, rows, sizeof(double), spec),
      trace::VirtualSegArray(arena, rows, sizeof(double), spec), n};
}

Jacobi3dProgram::Jacobi3dProgram(const VirtualJacobi3d& grids,
                                 std::vector<sched::IterRange> row_chunks,
                                 unsigned sweeps)
    : source_(&grids.source),
      dest_(&grids.dest),
      n_(grids.n),
      chunks_(std::move(row_chunks)),
      sweeps_(sweeps) {
  if (n_ < 3) throw std::invalid_argument("Jacobi3dProgram: n < 3");
  reset();
}

void Jacobi3dProgram::reset() {
  sweep_ = 0;
  chunk_ = 0;
  iter_ = chunks_.empty() ? 0 : chunks_.front().begin;
  col_ = 1;
  phase_ = 0;
}

std::uint64_t Jacobi3dProgram::total_accesses() const {
  std::uint64_t rows = 0;
  for (const auto& c : chunks_) rows += c.size();
  return rows * (n_ - 2) * 7 * sweeps_;
}

std::size_t Jacobi3dProgram::next_batch(std::span<sim::Access> out) {
  std::size_t produced = 0;
  while (produced < out.size()) {
    if (sweep_ >= sweeps_ || chunks_.empty()) break;
    const sched::IterRange& chunk = chunks_[chunk_];
    if (iter_ >= chunk.end) {
      if (++chunk_ >= chunks_.size()) {
        chunk_ = 0;
        if (++sweep_ >= sweeps_) break;
      }
      iter_ = chunks_[chunk_].begin;
      col_ = 1;
      phase_ = 0;
      continue;
    }
    const std::size_t z = iter_ / (n_ - 2) + 1;
    const std::size_t y = iter_ % (n_ - 2) + 1;

    sim::Access a;
    switch (phase_) {
      case 0:
        a = {src().address_of(row_id(z, y - 1), col_), sim::Op::kLoad, true, 0};
        break;
      case 1:
        a = {src().address_of(row_id(z, y + 1), col_), sim::Op::kLoad, false, 0};
        break;
      case 2:
        a = {src().address_of(row_id(z - 1, y), col_), sim::Op::kLoad, false, 0};
        break;
      case 3:
        a = {src().address_of(row_id(z + 1, y), col_), sim::Op::kLoad, false, 0};
        break;
      case 4:
        a = {src().address_of(row_id(z, y), col_ - 1), sim::Op::kLoad, false, 0};
        break;
      case 5:
        a = {src().address_of(row_id(z, y), col_ + 1), sim::Op::kLoad, false, 0};
        break;
      default:
        // Five adds + one multiply before the store retires.
        a = {dst().address_of(row_id(z, y), col_), sim::Op::kStore, false, 6};
        break;
    }
    out[produced++] = a;
    if (++phase_ == 7) {
      phase_ = 0;
      if (++col_ == n_ - 1) {
        col_ = 1;
        ++iter_;
      }
    }
  }
  return produced;
}

sim::Workload make_jacobi3d_workload(const VirtualJacobi3d& grids,
                                     unsigned num_threads,
                                     const sched::Schedule& schedule,
                                     unsigned sweeps) {
  const std::size_t rows = (grids.n - 2) * (grids.n - 2);
  sim::Workload workload;
  workload.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    workload.push_back(std::make_unique<Jacobi3dProgram>(
        grids, sched::chunks_for_thread(rows, num_threads, t, schedule), sweeps));
  }
  return workload;
}

}  // namespace mcopt::kernels
