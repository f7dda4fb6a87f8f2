// Quickstart: the 1D 3-point heat stencil from the paper's Figure 1, run
// with every vectorization scheme, timed and cross-checked.
//
//   ./examples/quickstart [nx] [steps] [--dtype float|double]
//                         [--boundary zero|dirichlet|periodic|neumann]
//
// Expected output: identical results from every method, with the transpose
// scheme (and its 2-step variant) fastest once the problem spills L2 — and
// the float runs roughly twice as fast as the double runs (2x lanes).
// Under --boundary periodic|neumann every method advances single steps with
// a ghost refresh between them (see docs/TUNING.md) and must still agree
// with the scalar reference executed under the same condition.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tsv/tsv.hpp"

namespace {

template <typename T>
int run_quickstart(tsv::index nx, tsv::index steps, tsv::BoundarySpec bc) {
  // Transpose layout needs nx % W^2; 256 conforms for every width and dtype.
  const tsv::index nx_pad = tsv::round_up(nx, 256);

  std::printf(
      "1D heat (3-point), nx = %td (padded from %td), T = %td, %s %s, "
      "boundary %s\n\n",
      nx_pad, nx, steps, tsv::isa_name(tsv::best_isa()),
      tsv::dtype_name(tsv::dtype_of<T>()), tsv::boundary_name(bc.x));

  const auto stencil = tsv::make_1d3p<T>(1.0 / 3.0);
  auto initial = [](tsv::index x) { return T(x % 97) * T(0.01); };

  // Ground truth for the cross-check, under the same boundary condition.
  tsv::Grid1D<T> ref(nx_pad, 1);
  ref.fill(initial);
  tsv::run(ref, stencil, {.method = tsv::Method::kScalar, .steps = steps,
                          .boundary = bc});

  std::printf("%-14s %10s %10s %12s\n", "method", "time[s]", "GFLOP/s",
              "max|diff|");
  // Every untiled method the capability registry claims for 1D grids —
  // a method added to the library shows up here automatically.
  const double tol = tsv::accuracy_tolerance<T>(steps);
  bool ok = true;
  for (tsv::Method m : tsv::supported_methods(tsv::Tiling::kNone, 1)) {
    if (m == tsv::Method::kScalar) continue;  // that's the reference above
    tsv::Grid1D<T> g(nx_pad, 1);
    g.fill(initial);
    tsv::Timer timer;
    tsv::run(g, stencil, {.method = m, .isa = tsv::best_isa(), .steps = steps,
                          .boundary = bc});
    const double sec = timer.seconds();
    const double gflops = 1e-9 * static_cast<double>(nx_pad) *
                          static_cast<double>(steps) *
                          static_cast<double>(stencil.flops_per_point) / sec;
    const double diff = tsv::max_abs_diff(ref, g);
    std::printf("%-14s %10.3f %10.2f %12.2e\n", tsv::method_name(m), sec,
                gflops, diff);
    ok &= diff <= tol;
  }
  if (ok)
    std::printf("\nAll methods agree with the scalar reference (tol %.1e).\n",
                tol);
  else
    std::printf("\nERROR: a method diverged beyond the %.1e tolerance.\n", tol);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  tsv::index nx = 1 << 20, steps = 100;
  tsv::Dtype dtype = tsv::Dtype::kF64;
  tsv::BoundarySpec bc;  // default: frozen Dirichlet halo
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--dtype") && i + 1 < argc) {
      if (auto d = tsv::dtype_from_name(argv[++i])) {
        dtype = *d;
      } else {
        std::fprintf(stderr, "unknown --dtype %s (want float|double)\n",
                     argv[i]);
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--boundary") && i + 1 < argc) {
      if (auto b = tsv::boundary_from_name(argv[++i])) {
        bc = tsv::BoundarySpec::uniform(*b);
      } else {
        std::fprintf(stderr,
                     "unknown --boundary %s "
                     "(want zero|dirichlet|periodic|neumann)\n",
                     argv[i]);
        return 2;
      }
    } else if (positional == 0) {
      nx = std::atoll(argv[i]);
      ++positional;
    } else if (positional == 1) {
      steps = std::atoll(argv[i]);
      ++positional;
    }
  }
  return dtype == tsv::Dtype::kF32 ? run_quickstart<float>(nx, steps, bc)
                                   : run_quickstart<double>(nx, steps, bc);
}
