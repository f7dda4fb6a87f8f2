// 3D groundwater/pressure diffusion in a porous block — the paper's
// "3D-Heat" (7-point) workload in an application costume.
//
// A pressure pulse is injected at a well in the middle of the domain; fixed
// far-field pressure on the boundary. We march the 7-point diffusion stencil
// with the paper's tessellated transpose scheme and track how the pulse
// spreads (radius where pressure falls to half of the peak). Three 16^3
// windows of the result (the well and two opposite corners) are checked
// against reference_run on a sub-grid around each; the program exits
// nonzero on a mismatch.
//
//   ./examples/groundwater_3d [n] [steps]

#include <algorithm>
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

  auto initial = [&](tsv::index x, tsv::index y, tsv::index z) {
    const bool well = std::abs(x - n / 2) < 2 && std::abs(y - ny / 2) < 2 &&
                      std::abs(z - nz / 2) < 2;
    return well ? 1000.0 : 0.0;
  };
  tsv::Grid3D<double> p(n, ny, nz, 1);
  p.fill(initial);
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

  // Cone-window oracle: reference_run on a sub-grid holding a 16^3 window
  // plus steps cells around it (values entering through a cut face travel
  // one cell per step); where the sub-grid meets the domain its ghosts hold
  // the frozen zero boundary, as in the solve.
  const tsv::index w = 16, extent[3] = {n, ny, nz};
  auto window_error = [&](const tsv::index (&at)[3]) {
    tsv::index lo[3], hi[3];
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::max<tsv::index>(0, at[d] - steps);
      hi[d] = std::min(extent[d], at[d] + w + steps);
    }
    tsv::Grid3D<double> sub(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2], 1);
    sub.fill([&](tsv::index x, tsv::index y, tsv::index z) {
      return initial(lo[0] + x, lo[1] + y, lo[2] + z);
    });
    tsv::reference_run(sub, stencil, steps);
    double err = 0.0;
    for (tsv::index z = at[2]; z < at[2] + w; ++z)
      for (tsv::index y = at[1]; y < at[1] + w; ++y)
        for (tsv::index x = at[0]; x < at[0] + w; ++x)
          err = std::max(err, std::abs(p.at(x, y, z) - sub.at(x - lo[0],
                                                               y - lo[1],
                                                               z - lo[2])));
    return err;
  };
  const tsv::index windows[3][3] = {
      {n / 2 - w / 2, ny / 2 - w / 2, nz / 2 - w / 2},  // the well
      {0, 0, 0},
      {n - w, ny - w, nz - w}};
  double err = 0.0;
  for (const auto& at : windows) err = std::max(err, window_error(at));
  const double tol = 1000.0 * tsv::accuracy_tolerance<double>(steps);
  std::printf("max |plan - reference_run| over 3 windows: %.3g (tol %.3g)\n",
              err, tol);

  // Diffusion must conserve positivity and spread the pulse, and the plan
  // must match the reference.
  return (peak > 0 && peak < 1000.0 && radius >= 1 && err <= tol) ? 0 : 1;
}
