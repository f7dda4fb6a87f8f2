// Table 2 — performance improvements per storage level, single thread,
// block-free (paper §4.2). Speedups are normalized to the multiple-loads
// method, exactly as the paper's Table 2 columns:
//     | Data Reorganization | DLT | Our | Our (2 steps) |
//
// Expected shape (paper): reorg ~1.1x, DLT ~1.35x (strong in L1, <1 in L3),
// Our ~2x, Our-2step ~2.8x on average.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Table 2: speedup over multiload per storage level");

  const tsv::index steps =
      cfg.smoke ? 8 : cfg.paper_scale ? 1000 : (cfg.long_t ? 1000 : 100);
  const auto s = tsv::make_1d3p(1.0 / 3.0);

  // Registry-enumerated method list, normalized to multiload (the paper's
  // baseline column): every untiled vectorized method the registry claims,
  // with multiload moved to the front.
  std::vector<tsv::Method> methods = {tsv::Method::kMultiLoad};
  for (tsv::Method m : tsv::supported_methods(tsv::Tiling::kNone, 1))
    if (m != tsv::Method::kScalar && m != tsv::Method::kAutoVec &&
        m != tsv::Method::kMultiLoad)
      methods.push_back(m);
  const std::size_t n = methods.size();

  CsvSink csv(cfg.csv_path, "table,level,method,speedup_vs_multiload");
  std::printf("%-7s |", "level");
  for (std::size_t k = 1; k < n; ++k)
    std::printf(" %12s", tsv::method_name(methods[k]));
  std::printf("\n");

  std::vector<double> mean(n, 0.0);
  int nlev = 0;
  for (const SizeRung& rung : storage_ladder(cfg.smoke)) {
    std::vector<double> gf(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      tsv::Grid1D<double> g(rung.nx, 1);
      g.fill([](tsv::index x) { return 0.25 + 1e-4 * static_cast<double>(x % 101); });
      tsv::Options o;
      o.method = methods[i];
      o.isa = tsv::best_isa();
      o.steps = steps;
      gf[i] = time_run(g, s, o, rung.nx);
    }
    std::printf("%-7s |", rung.level);
    for (std::size_t k = 1; k < n; ++k) {
      const double sp = gf[k] / gf[0];
      mean[k] += sp;
      std::printf(" %11.2fx", sp);
      csv.row("2,%s,%s,%.3f", rung.level, tsv::method_name(methods[k]), sp);
    }
    std::printf("\n");
    ++nlev;
  }
  std::printf("%-7s |", "mean");
  for (std::size_t k = 1; k < n; ++k) std::printf(" %11.2fx", mean[k] / nlev);
  std::printf("\n");
  // Keyed by method name so registry additions/reorders cannot misalign it.
  std::printf("(paper means: reorg 1.11x, dlt 1.35x, transpose 1.98x, "
              "transpose-uj2 2.81x)\n");
  return 0;
}
