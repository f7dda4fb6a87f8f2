// Table 3 — speedups over SDSL per storage level and blocking level in the
// multicore cache-blocking experiments (paper §4.3). Columns mirror the
// paper's first two:   | Tessellation | Our |   (its "Our (two time steps)"
// column has no contender: see bench_common.hpp's contenders()).
//
// Expected shape (paper): means of 1.56x / 2.69x with L1 blocking and
// 1.32x / 2.79x with L2 blocking.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Table 3: multicore speedups over SDSL (1D heat, tiled)");

  const tsv::index steps = cfg.smoke ? 16 : cfg.paper_scale ? 1000 : 240;
  struct Blocking {
    const char* name;
    tsv::index bx, bt;
  };
  const Blocking blockings[] = {{"L1", 2048, 128}, {"L2", 16384, 512}};
  const auto ladder = storage_ladder(cfg.smoke);
  const std::vector<SizeRung> rungs =  // L3 cache / memory
      cfg.smoke ? ladder : std::vector<SizeRung>{ladder[2], ladder[3]};

  CsvSink csv(cfg.csv_path, "table,level,blocking,method,speedup_vs_sdsl");
  std::printf("%-7s %-4s | %13s %8s\n", "level", "blk", "Tessellation",
              "Our");

  double mean[2][kContenders] = {{0}};
  int cnt[2] = {0, 0};
  for (int b = 0; b < 2; ++b)
    for (const SizeRung& rung : rungs) {
      const tsv::index nx = cfg.paper_scale ? 10240000 : rung.nx;
      tsv::Problem p{.name = "1d3p", .kind = tsv::StencilKind::k1d3p,
                     .nx = nx, .ny = 1, .nz = 1, .steps = steps,
                     .bx = blockings[b].bx, .by = 1, .bz = 1,
                     .bt = blockings[b].bt};
      double gf[kContenders];
      int i = 0;
      for (const auto& c : contenders())
        gf[i++] = run_problem_best(p, c.method, c.tiling, tsv::best_isa(),
                              cfg.threads);
      std::printf("%-7s %-4s |", rung.level, blockings[b].name);
      for (int k = 1; k < kContenders; ++k) {
        const double sp = gf[k] / gf[0];
        mean[b][k] += sp;
        std::printf(" %s%7.2fx", k == 1 ? "      " : "", sp);
        csv.row("3,%s,%s,%s,%.3f", rung.level, blockings[b].name,
                contenders()[k].name, sp);
      }
      std::printf("\n");
      ++cnt[b];
    }
  for (int b = 0; b < 2; ++b) {
    std::printf("%-7s %-4s |", "mean", blockings[b].name);
    for (int k = 1; k < kContenders; ++k)
      std::printf(" %s%7.2fx", k == 1 ? "      " : "", mean[b][k] / cnt[b]);
    std::printf("\n");
  }
  std::printf("(paper means: L1 -> 1.56x 2.69x ; L2 -> 1.32x 2.79x)\n");
  return 0;
}
