// Ablation B (paper §3.3) — time-loop unroll factor K.
//
// The paper fixes K = 2 by a register-file argument ((vl+1)*k registers plus
// coefficients must fit vl*4 registers). This sweep runs the 1D pipeline
// with K = 1, 2, 3, 4 at an L3-resident and a memory-resident size: the
// flops/byte ratio grows with K, so memory-bound sizes should improve up to
// the point where the register window spills.

#include "bench_common.hpp"
#include "tsv/vectorize/unroll_jam.hpp"

namespace {

using namespace bench;

template <typename V, int K>
double run_k(tsv::index nx, tsv::index steps) {
  const auto s = tsv::make_1d3p(1.0 / 3.0);
  tsv::Grid1D<double> g(nx, 1);
  g.fill([](tsv::index x) { return 0.25 + 1e-4 * static_cast<double>(x % 101); });
  tsv::Workspace ws;  // parity buffer created outside the timed region
  tsv::ws_grid_like(ws, tsv::kWsTmpGrid, g);
  tsv::Timer t;
  tsv::unroll_jam_run<V, 1, K>(g, s, steps, ws);
  return 1e-9 * static_cast<double>(nx) * static_cast<double>(steps) *
         static_cast<double>(s.flops_per_point) / t.seconds();
}

template <typename V>
void sweep(const char* isa, const Config& cfg) {
  const auto ladder = storage_ladder(cfg.smoke);
  const std::vector<SizeRung> rungs =
      cfg.smoke ? ladder
                : std::vector<SizeRung>{ladder[1], ladder[2], ladder[3]};
  std::printf("[%s]\n%-5s %10s | %9s %9s %9s %9s\n", isa, "level", "nx",
              "K=1", "K=2", "K=3", "K=4");
  CsvSink csv(cfg.csv_path, "ablation,isa,level,nx,k,gflops");
  for (const SizeRung& r : rungs) {
    const tsv::index steps = cfg.smoke ? 8 : cfg.paper_scale ? 1000 : 120;
    std::printf("%-5s %10td |", r.level, r.nx);
    const double g1 = run_k<V, 1>(r.nx, steps);
    const double g2 = run_k<V, 2>(r.nx, steps);
    const double g3 = run_k<V, 3>(r.nx, steps);
    const double g4 = run_k<V, 4>(r.nx, steps);
    std::printf(" %9.2f %9.2f %9.2f %9.2f\n", g1, g2, g3, g4);
    csv.row("unroll,%s,%s,%td,1,%.3f", isa, r.level, r.nx, g1);
    csv.row("unroll,%s,%s,%td,2,%.3f", isa, r.level, r.nx, g2);
    csv.row("unroll,%s,%s,%td,3,%.3f", isa, r.level, r.nx, g3);
    csv.row("unroll,%s,%s,%td,4,%.3f", isa, r.level, r.nx, g4);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Ablation: unroll-and-jam factor K (1D heat, single thread)");
#if defined(__AVX2__)
  sweep<tsv::Vec<double, 4>>("avx2", cfg);
#endif
#if defined(__AVX512F__)
  sweep<tsv::Vec<double, 8>>("avx512", cfg);
#endif
  return 0;
}
