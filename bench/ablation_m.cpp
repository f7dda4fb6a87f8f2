// Ablation C (paper §3.2) — block row size m.
//
// m interpolates between the data-reorganization extreme (m = 1: every
// vector set needs assembled neighbours), the paper's choice (m = vl) and
// DLT (m = nx/vl: one global block, no locality). The paper argues m >= 3
// suffices to hide the 4r assembly instructions and fixes m = vl so the
// layout transform stays in registers. This sweep measures the compute
// phase's GFLOP/s against m at two working-set sizes.

#include "bench_common.hpp"
#include "tsv/vectorize/blocked_m.hpp"

namespace {

using namespace bench;

template <typename V>
void sweep(const char* isa, const Config& cfg) {
  constexpr int W = V::width;
  const auto s = tsv::make_1d3p(1.0 / 3.0);
  const auto ladder = storage_ladder(cfg.smoke);
  const std::vector<SizeRung> rungs =
      cfg.smoke ? ladder : std::vector<SizeRung>{ladder[1], ladder[3]};
  CsvSink csv(cfg.csv_path, "ablation,isa,level,nx,m,gflops");

  for (const SizeRung& r : rungs) {
    // nx must divide by W*m for every m in the sweep (and by nx/W itself).
    const tsv::index nx = tsv::round_up(r.nx, W * 64);
    const tsv::index steps = cfg.smoke ? 4 : cfg.paper_scale ? 1000 : 100;
    std::printf("[%s] %-4s nx=%td T=%td\n  %8s %10s\n", isa, r.level, nx,
                steps, "m", "GFLOP/s");
    std::vector<tsv::index> ms = {1, 2, 4, W, 16, 64, nx / W};
    std::sort(ms.begin(), ms.end());
    ms.erase(std::unique(ms.begin(), ms.end()), ms.end());
    for (tsv::index m : ms) {
      if (m > nx / W || nx % (W * m) != 0) continue;
      tsv::Grid1D<double> g(nx, 1);
      g.fill([](tsv::index x) { return 0.25 + 1e-4 * static_cast<double>(x % 101); });
      tsv::Workspace ws;  // parity buffer created outside the timed region
      tsv::ws_grid_like(ws, tsv::kWsTmpGrid, g);
      tsv::Timer t;
      tsv::blocked_m_run<V, 1>(g, s, steps, m, ws);
      const double gf = 1e-9 * static_cast<double>(nx) *
                        static_cast<double>(steps) *
                        static_cast<double>(s.flops_per_point) / t.seconds();
      std::printf("  %8td %10.2f%s\n", m, gf,
                  m == W ? "   <- paper's m = vl" : (m == nx / W ? "   <- DLT" : ""));
      csv.row("m,%s,%s,%td,%td,%.3f", isa, r.level, nx, m, gf);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Ablation: block row size m (1D heat, single thread)");
#if defined(__AVX2__)
  sweep<tsv::Vec<double, 4>>("avx2", cfg);
#endif
#if defined(__AVX512F__)
  sweep<tsv::Vec<double, 8>>("avx512", cfg);
#endif
  return 0;
}
