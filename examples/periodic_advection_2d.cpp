// 2D linear advection on a periodic (torus) domain — the first workload the
// library can run that is impossible with frozen halos: a blob carried by a
// constant wind leaves one edge and re-enters the opposite one.
//
// First-order upwind discretization of  u_t + a u_x + b u_y = 0  with
// positive wind (a, b):
//
//   u_new = (1 - cx - cy) * u + cx * u[x-1] + cy * u[y-1]
//
// where cx = a*dt/dx, cy = b*dt/dy are the CFL numbers (stable for
// cx + cy <= 1). The tap structure is an ASYMMETRIC 2-row stencil — built
// directly from Row2D, not a Table-1 factory — which every vector kernel
// handles: x-taps become shifted vectors, the y-offset row a strided load.
//
// Periodic boundaries come from Options::boundary. The tessellated plan
// keeps a deep temporal block: each tile writes the wrapped ghost images
// of the cells it advances, and both axes are tiled as rings so every
// image is written before a tile reads it (core/halo.hpp, tiling/tess.hpp).
// The interior kernels never see the boundary. Upwind advection on a
// torus conserves total mass EXACTLY (every cell's outflow is another
// cell's inflow) — the example checks that, and checks the result against
// the boundary-aware scalar oracle.
//
//   ./examples/periodic_advection_2d [n] [steps]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace {

double total_mass(const tsv::Grid2D<double>& g) {
  double m = 0;
  for (tsv::index y = 0; y < g.ny(); ++y)
    for (tsv::index x = 0; x < g.nx(); ++x) m += g.at(x, y);
  return m;
}

void print_midline(const tsv::Grid2D<double>& g, const char* label) {
  std::printf("%-8s|", label);
  const tsv::index step = g.nx() / 48;
  for (tsv::index x = 0; x < g.nx(); x += step) {
    const double v = g.at(x, g.ny() / 2);
    const char c = v > 0.6 ? '#' : v > 0.3 ? '*' : v > 0.1 ? ':' : v > 0.02 ? '.' : ' ';
    std::putchar(c);
  }
  std::printf("|\n");
}

}  // namespace

int main(int argc, char** argv) {
  const tsv::index n = tsv::round_up(argc > 1 ? std::atoll(argv[1]) : 512, 256);
  const tsv::index ny = n / 2;
  const tsv::index steps = argc > 2 ? std::atoll(argv[2]) : 600;
  const double cx = 0.4, cy = 0.2;  // CFL numbers, cx + cy <= 1

  std::printf("2D upwind advection on a %td x %td torus, %td steps, "
              "cx=%.2f cy=%.2f\n\n", n, ny, steps, cx, cy);

  // The asymmetric upwind stencil: row dy=-1 carries the y inflow, row dy=0
  // the x inflow and the center.
  tsv::Stencil2D<1, 2> wind;
  wind.rows[0] = {.dy = -1, .xlo = 0, .xhi = 0, .w = {cy}};
  wind.rows[1] = {.dy = 0, .xlo = -1, .xhi = 0, .w = {cx, 1.0 - cx - cy}};
  wind.flops_per_point = 2 * 3 - 1;

  // A Gaussian blob near the domain edge, so the wrap happens immediately.
  tsv::Grid2D<double> u(n, ny, 1);
  u.fill([&](tsv::index x, tsv::index y) {
    const double dx = double(x - 7 * n / 8) / double(n / 16);
    const double dy = double(y - ny / 2) / double(ny / 8);
    return std::exp(-(dx * dx + dy * dy));
  });
  tsv::Grid2D<double> oracle = u;

  tsv::Options o;
  o.method = tsv::Method::kTranspose;
  o.tiling = tsv::Tiling::kTessellate;
  o.steps = steps / 3;
  o.boundary = tsv::BoundarySpec::uniform(tsv::Boundary::kPeriodic);
  o.threads = static_cast<int>(tsv::cpu_info().logical_cores);
  auto plan = tsv::make_plan(tsv::shape_of(u), wind, o);
  std::printf("plan: %s + %s, boundary=%s, threads=%d (bt=%td steps per "
              "time block, ghost images written through)\n\n",
              tsv::method_name(plan.config().method),
              tsv::tiling_name(plan.config().tiling),
              tsv::boundary_name(plan.config().boundary.x),
              plan.config().threads, plan.config().bt);

  const double mass0 = total_mass(u);
  print_midline(u, "t=0");
  tsv::Timer total;
  for (int phase = 1; phase <= 3; ++phase) {
    plan.execute(u);
    char label[32];
    std::snprintf(label, sizeof label, "t=%td", (steps / 3) * phase);
    print_midline(u, label);
  }
  const double sec = total.seconds();
  const double mass1 = total_mass(u);

  std::printf("\n%.1f M cell-updates/s (%d threads)\n",
              1e-6 * double(n) * double(ny) * double(3 * (steps / 3)) / sec,
              plan.config().threads);
  std::printf("mass: %.12g -> %.12g (relative drift %.2e)\n", mass0, mass1,
              std::abs(mass1 - mass0) / mass0);

  // Cross-check against the boundary-aware scalar oracle.
  tsv::reference_run(oracle, wind, 3 * (steps / 3), o.boundary);
  const double diff = tsv::max_abs_diff(oracle, u);
  std::printf("max |oracle - vectorized| = %.3e\n", diff);

  const bool ok = std::abs(mass1 - mass0) / mass0 < 1e-9 &&
                  diff < tsv::accuracy_tolerance<double>(steps);
  std::printf(ok ? "OK: mass conserved on the torus, oracle matched\n"
                 : "FAILED\n");
  return ok ? 0 : 1;
}
