#include "kernels/lbm/solver.h"

#include <stdexcept>

#include "util/timer.h"

namespace mcopt::kernels::lbm {

Solver::Solver(Params params) : p_(std::move(params)) {
  p_.geometry.validate();
  if (p_.tau <= 0.5) throw std::invalid_argument("Solver: tau must exceed 0.5");
  f_.assign(p_.geometry.f_elems(), 0.0);
  solid_.assign(p_.geometry.cells(), 0);
  fluid_cells_ = p_.geometry.interior_cells();
}

void Solver::set_solid(std::size_t x, std::size_t y, std::size_t z) {
  const Geometry& g = p_.geometry;
  if (x < 1 || x > g.nx || y < 1 || y > g.ny || z < 1 || z > g.nz)
    throw std::out_of_range("Solver::set_solid: not an interior cell");
  std::uint8_t& cell = solid_[g.cell_index(x, y, z)];
  if (cell == 0) {
    cell = 1;
    --fluid_cells_;
  }
}

void Solver::make_channel_walls_z() {
  const Geometry& g = p_.geometry;
  for (std::size_t y = 1; y <= g.ny; ++y)
    for (std::size_t x = 1; x <= g.nx; ++x) {
      set_solid(x, y, 1);
      set_solid(x, y, g.nz);
    }
}

void Solver::initialize(double rho, std::array<double, 3> u) {
  const Geometry& g = p_.geometry;
  steps_ = 0;
  for (std::size_t z = 1; z <= g.nz; ++z)
    for (std::size_t y = 1; y <= g.ny; ++y)
      for (std::size_t x = 1; x <= g.nx; ++x)
        for (std::size_t v = 0; v < kQ; ++v) {
          const double feq =
              is_solid(x, y, z) ? 0.0 : equilibrium(v, rho, u[0], u[1], u[2]);
          f_[g.f_index(x, y, z, v, 0)] = feq;
          f_[g.f_index(x, y, z, v, 1)] = 0.0;
        }
}

std::size_t Solver::wrap(long coord, std::size_t n, bool periodic) const {
  if (!periodic) return static_cast<std::size_t>(coord);  // ghost write
  if (coord < 1) return n;
  if (coord > static_cast<long>(n)) return 1;
  return static_cast<std::size_t>(coord);
}

void Solver::update_cell(std::size_t x, std::size_t y, std::size_t z,
                         std::size_t read_toggle, std::size_t write_toggle) {
  const Geometry& g = p_.geometry;
  double fv[kQ];
  double rho = 0.0;
  double mx = 0.0, my = 0.0, mz = 0.0;
  for (std::size_t v = 0; v < kQ; ++v) {
    fv[v] = f_[g.f_index(x, y, z, v, read_toggle)];
    rho += fv[v];
    mx += fv[v] * kVelocity[v][0];
    my += fv[v] * kVelocity[v][1];
    mz += fv[v] * kVelocity[v][2];
  }
  // Shan-Chen force incorporation: equilibrium velocity shifted by tau*F/rho
  // (exactly mass-conserving; adds F per step to the cell's momentum).
  const double inv_rho = 1.0 / rho;
  const double ux = (mx + p_.tau * p_.force[0]) * inv_rho;
  const double uy = (my + p_.tau * p_.force[1]) * inv_rho;
  const double uz = (mz + p_.tau * p_.force[2]) * inv_rho;

  const double omega = 1.0 / p_.tau;
  for (std::size_t v = 0; v < kQ; ++v) {
    const double post = fv[v] + omega * (equilibrium(v, rho, ux, uy, uz) - fv[v]);
    const std::size_t tx =
        wrap(static_cast<long>(x) + kVelocity[v][0], g.nx, p_.periodic_x);
    const std::size_t ty =
        wrap(static_cast<long>(y) + kVelocity[v][1], g.ny, p_.periodic_y);
    const std::size_t tz =
        wrap(static_cast<long>(z) + kVelocity[v][2], g.nz, p_.periodic_z);
    if (solid_[g.cell_index(tx, ty, tz)] != 0) {
      // Half-way bounce-back: the population returns to the source cell in
      // the opposite direction.
      f_[g.f_index(x, y, z, kOpposite[v], write_toggle)] = post;
    } else {
      f_[g.f_index(tx, ty, tz, v, write_toggle)] = post;
    }
  }
}

double Solver::step() {
  const Geometry& g = p_.geometry;
  const std::size_t read_toggle = steps_ % 2;
  const std::size_t write_toggle = 1 - read_toggle;

  sched::apply_omp_schedule(p_.schedule);

  util::Timer timer;
  if (p_.fused_zy) {
    const auto zy = static_cast<std::ptrdiff_t>(g.nz * g.ny);
#pragma omp parallel for schedule(runtime)
    for (std::ptrdiff_t i = 0; i < zy; ++i) {
      const std::size_t z = static_cast<std::size_t>(i) / g.ny + 1;
      const std::size_t y = static_cast<std::size_t>(i) % g.ny + 1;
      for (std::size_t x = 1; x <= g.nx; ++x)
        if (solid_[g.cell_index(x, y, z)] == 0)
          update_cell(x, y, z, read_toggle, write_toggle);
    }
  } else {
    const auto nz = static_cast<std::ptrdiff_t>(g.nz);
#pragma omp parallel for schedule(runtime)
    for (std::ptrdiff_t zi = 1; zi <= nz; ++zi) {
      const auto z = static_cast<std::size_t>(zi);
      for (std::size_t y = 1; y <= g.ny; ++y)
        for (std::size_t x = 1; x <= g.nx; ++x)
          if (solid_[g.cell_index(x, y, z)] == 0)
            update_cell(x, y, z, read_toggle, write_toggle);
    }
  }
  ++steps_;
  return timer.seconds();
}

double Solver::total_mass() const {
  const Geometry& g = p_.geometry;
  const std::size_t toggle = steps_ % 2;
  double mass = 0.0;
  for (std::size_t z = 1; z <= g.nz; ++z)
    for (std::size_t y = 1; y <= g.ny; ++y)
      for (std::size_t x = 1; x <= g.nx; ++x) {
        if (is_solid(x, y, z)) continue;
        for (std::size_t v = 0; v < kQ; ++v)
          mass += f_[g.f_index(x, y, z, v, toggle)];
      }
  return mass;
}

std::array<double, 3> Solver::total_momentum() const {
  const Geometry& g = p_.geometry;
  const std::size_t toggle = steps_ % 2;
  std::array<double, 3> mom{};
  for (std::size_t z = 1; z <= g.nz; ++z)
    for (std::size_t y = 1; y <= g.ny; ++y)
      for (std::size_t x = 1; x <= g.nx; ++x) {
        if (is_solid(x, y, z)) continue;
        for (std::size_t v = 0; v < kQ; ++v) {
          const double fval = f_[g.f_index(x, y, z, v, toggle)];
          mom[0] += fval * kVelocity[v][0];
          mom[1] += fval * kVelocity[v][1];
          mom[2] += fval * kVelocity[v][2];
        }
      }
  return mom;
}

double Solver::density(std::size_t x, std::size_t y, std::size_t z) const {
  const Geometry& g = p_.geometry;
  const std::size_t toggle = steps_ % 2;
  double rho = 0.0;
  for (std::size_t v = 0; v < kQ; ++v) rho += f_[g.f_index(x, y, z, v, toggle)];
  return rho;
}

std::array<double, 3> Solver::velocity(std::size_t x, std::size_t y,
                                       std::size_t z) const {
  const Geometry& g = p_.geometry;
  const std::size_t toggle = steps_ % 2;
  double rho = 0.0;
  std::array<double, 3> m{};
  for (std::size_t v = 0; v < kQ; ++v) {
    const double fval = f_[g.f_index(x, y, z, v, toggle)];
    rho += fval;
    m[0] += fval * kVelocity[v][0];
    m[1] += fval * kVelocity[v][1];
    m[2] += fval * kVelocity[v][2];
  }
  if (rho != 0.0)
    for (double& c : m) c /= rho;
  return m;
}

bool Solver::is_solid(std::size_t x, std::size_t y, std::size_t z) const {
  return solid_[p_.geometry.cell_index(x, y, z)] != 0;
}

double Solver::f_at(std::size_t x, std::size_t y, std::size_t z,
                    std::size_t v) const {
  return f_[p_.geometry.f_index(x, y, z, v, steps_ % 2)];
}

void Solver::restore(std::vector<double> f, unsigned steps) {
  if (f.size() != p_.geometry.f_elems())
    throw std::invalid_argument(
        "Solver::restore: state holds " + std::to_string(f.size()) +
        " values, geometry needs " + std::to_string(p_.geometry.f_elems()));
  f_ = std::move(f);
  steps_ = steps;
}

void Solver::restream_slab(std::size_t z) {
  const Geometry& g = p_.geometry;
  if (steps_ == 0)
    throw std::logic_error(
        "Solver::restream_slab: no prior field before the first step");
  if (z < 1 || z > g.nz)
    throw std::out_of_range("Solver::restream_slab: slab out of range");
  // The step that produced the current field read toggle steps_-1 and wrote
  // toggle steps_. A push-style update writes only to z±1 neighbors, so
  // re-running every source slab that can reach `z` regenerates the whole
  // slab; the spill into adjacent slabs rewrites identical values (same
  // inputs, same arithmetic).
  const std::size_t read_toggle = (steps_ - 1) % 2;
  const std::size_t write_toggle = 1 - read_toggle;
  for (long dz = -1; dz <= 1; ++dz) {
    const long raw = static_cast<long>(z) + dz;
    std::size_t src_z;
    if (raw < 1 || raw > static_cast<long>(g.nz)) {
      if (!p_.periodic_z) continue;
      src_z = wrap(raw, g.nz, true);
    } else {
      src_z = static_cast<std::size_t>(raw);
    }
    for (std::size_t y = 1; y <= g.ny; ++y)
      for (std::size_t x = 1; x <= g.nx; ++x)
        if (solid_[g.cell_index(x, y, src_z)] == 0)
          update_cell(x, y, src_z, read_toggle, write_toggle);
  }
}

}  // namespace mcopt::kernels::lbm
