// 2D heat diffusion on a plate with fixed-temperature edges — the classic
// workload behind the paper's "2D-Heat" (5-point) benchmark.
//
// A hot spot in the middle of a cold plate diffuses under
//   u' = u + alpha * laplacian(u)
// discretized as the 5-point stencil  u_new = (1-4c)*u + c*(N+S+E+W).
// The simulation runs multicore with tessellate tiling + the paper's
// transpose-layout scheme, and prints the temperature profile along
// the plate's horizontal midline as it evolves.
//
//   ./examples/heat_diffusion_2d [n] [steps]

#include <cstdio>
#include <cstdlib>

#include "tsv/tsv.hpp"

namespace {

void print_midline(const tsv::Grid2D<double>& g, const char* label) {
  std::printf("%-10s|", label);
  const tsv::index step = g.nx() / 32;
  for (tsv::index x = 0; x < g.nx(); x += step) {
    const double v = g.at(x, g.ny() / 2);
    // Crude heat map: space . : * # for increasing temperature.
    const char c = v > 75 ? '#' : v > 25 ? '*' : v > 5 ? ':' : v > 0.5 ? '.' : ' ';
    std::putchar(c);
  }
  std::printf("|\n");
}

}  // namespace

int main(int argc, char** argv) {
  const tsv::index n = tsv::round_up(argc > 1 ? std::atoll(argv[1]) : 1024, 64);
  const tsv::index steps = argc > 2 ? std::atoll(argv[2]) : 400;
  const double c = 0.2;  // alpha*dt/dx^2, stable for c <= 0.25

  std::printf("2D heat diffusion, %td x %td plate, %td steps, c = %.2f\n\n",
              n, n, steps, c);

  tsv::Grid2D<double> plate(n, n, 1);
  // Cold plate (0 degrees), edges held at 0, hot square in the center.
  plate.fill([&](tsv::index x, tsv::index y) {
    const bool hot = std::abs(x - n / 2) < n / 8 && std::abs(y - n / 2) < n / 8;
    return hot ? 100.0 : 0.0;
  });
  const auto stencil = tsv::make_2d5p(1.0 - 4.0 * c, c, c);

  tsv::Options o;
  o.method = tsv::Method::kTranspose;
  o.tiling = tsv::Tiling::kTessellate;
  o.isa = tsv::best_isa();
  o.bx = std::min<tsv::index>(n, 256);
  o.by = std::min<tsv::index>(n, 128);
  o.bt = 16;
  o.threads = static_cast<int>(tsv::cpu_info().logical_cores);

  print_midline(plate, "t=0");
  tsv::Timer total;
  const tsv::index chunk = steps / 4;
  for (int phase = 1; phase <= 4; ++phase) {
    o.steps = chunk;
    tsv::run(plate, stencil, o);
    char label[32];
    std::snprintf(label, sizeof label, "t=%td", chunk * phase);
    print_midline(plate, label);
  }
  const double sec = total.seconds();

  const double gflops = 1e-9 * static_cast<double>(n) * n * (4 * chunk) *
                        static_cast<double>(stencil.flops_per_point) / sec;
  std::printf(
      "\n%td cell-updates in %.3f s -> %.1f GFLOP/s "
      "(transpose + tessellate, %d threads)\n",
      n * n * 4 * chunk, sec, gflops, o.threads);

  // Sanity: total heat only leaves through the cold edges, so the center
  // must have cooled and nothing can be hotter than the initial 100.
  double maxv = 0;
  for (tsv::index y = 0; y < n; ++y)
    for (tsv::index x = 0; x < n; ++x) maxv = std::max(maxv, plate.at(x, y));
  std::printf("max temperature now %.2f (started at 100.00)\n", maxv);
  return maxv <= 100.0 ? 0 : 1;
}
