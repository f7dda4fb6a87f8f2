// 3D groundwater/pressure diffusion in a porous block — the paper's
// "3D-Heat" (7-point) workload in an application costume.
//
// A pressure pulse is injected at a well in the middle of the domain; fixed
// far-field pressure on the boundary. We march the 7-point diffusion stencil
// with the paper's tessellated transpose scheme and track how the pulse
// spreads (radius where pressure falls to half of the peak).
//
//   ./examples/groundwater_3d [n] [steps]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tsv/tsv.hpp"

int main(int argc, char** argv) {
  const tsv::index n = tsv::round_up(argc > 1 ? std::atoll(argv[1]) : 128, 64);
  const tsv::index ny = argc > 1 ? n : 96, nz = ny;
  const tsv::index steps = argc > 2 ? std::atoll(argv[2]) : 60;
  const double c = 0.1;  // diffusion number per axis (stable: 6c <= 1)

  std::printf("3D groundwater diffusion, %td x %td x %td, %td steps\n", n, ny,
              nz, steps);

  tsv::Grid3D<double> p(n, ny, nz, 1);
  p.fill([&](tsv::index x, tsv::index y, tsv::index z) {
    const bool well = std::abs(x - n / 2) < 2 && std::abs(y - ny / 2) < 2 &&
                      std::abs(z - nz / 2) < 2;
    return well ? 1000.0 : 0.0;
  });
  const auto stencil = tsv::make_3d7p(1.0 - 6.0 * c, c, c, c);

  tsv::Options o;
  o.method = tsv::Method::kTranspose;
  o.tiling = tsv::Tiling::kTessellate;
  o.isa = tsv::best_isa();
  o.steps = steps;  // blocks left at 0: the plan sizes them from the L2
  o.threads = static_cast<int>(tsv::cpu_info().logical_cores);

  tsv::Timer timer;
  tsv::run(p, stencil, o);
  const double sec = timer.seconds();

  // Peak and half-width along x through the well.
  const double peak = p.at(n / 2, ny / 2, nz / 2);
  tsv::index radius = 0;
  while (n / 2 + radius + 1 < n &&
         p.at(n / 2 + radius + 1, ny / 2, nz / 2) > 0.5 * peak)
    ++radius;

  const double gflops = 1e-9 * static_cast<double>(n) * ny * nz * steps *
                        static_cast<double>(stencil.flops_per_point) / sec;
  std::printf("peak pressure %.3f, half-width %td cells after %td steps\n",
              peak, radius, steps);
  std::printf("%.3f s -> %.1f GFLOP/s (transpose + tessellate, %d "
              "threads)\n",
              sec, gflops, o.threads);

  // Diffusion must conserve positivity and spread the pulse.
  return (peak > 0 && peak < 1000.0 && radius >= 1) ? 0 : 1;
}
