// Ablation D (paper §3.4, Fig. 5(d)) — cost of tile-boundary handling in the
// tiled transpose scheme.
//
// Inside a tessellation tile the update range shrinks/expands by r cells per
// step, so partial vector sets at the rims are computed through the layout
// tsv::index map (scalar). The deeper the temporal block bt, the more rim work per
// tile round — this sweep quantifies that overhead by varying bt at a fixed
// tile size, and compares against the tessellation baseline whose kernels
// have no layout rims. bt = 1 has no shrinking at all (pure full sets).

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Ablation: tile-boundary (partial vector set) overhead");

  const auto ladder = storage_ladder(cfg.smoke);
  const tsv::index nx = cfg.paper_scale ? 10240000 : ladder.back().nx;
  const tsv::index steps = cfg.smoke ? 16 : cfg.paper_scale ? 1000 : 256;
  const tsv::index bx = 2048;
  CsvSink csv(cfg.csv_path, "ablation,bt,method,gflops");

  std::printf("1D heat, nx=%td, T=%td, bx=%td, %d threads\n", nx, steps, bx,
              cfg.threads);
  std::printf("%6s | %12s %14s\n", "bt", "our", "tess-autovec");
  for (tsv::index bt : {1, 2, 8, 32, 128, 512}) {
    if (bx < 2 * bt) continue;
    tsv::Problem p{.name = "1d3p", .kind = tsv::StencilKind::k1d3p,
                   .nx = nx, .ny = 1, .nz = 1, .steps = steps,
                   .bx = bx, .by = 1, .bz = 1, .bt = bt};
    const double our = run_problem_best(p, tsv::Method::kTranspose,
                                   tsv::Tiling::kTessellate, tsv::best_isa(),
                                   cfg.threads);
    const double base = run_problem_best(p, tsv::Method::kAutoVec,
                                    tsv::Tiling::kTessellate, tsv::best_isa(),
                                    cfg.threads);
    std::printf("%6td | %12.1f %14.1f\n", bt, our, base);
    csv.row("boundary,%td,our,%.3f", bt, our);
    csv.row("boundary,%td,tess-autovec,%.3f", bt, base);
  }
  std::printf("\n(deeper bt = more rim work per tile, but more in-cache "
              "time-step reuse; the paper's Fig. 5(d) trick trades these)\n");
  return 0;
}
