// Figure 9 — scalability of all six stencils with AVX2 and AVX-512
// instructions (paper §4.4): GFLOP/s vs core count for SDSL, Tessellation
// and Our, on the Table-1 problems (no tiled Our (2 steps): see
// contenders()).
//
// Expected shape (paper): near-linear scaling in 1D for every method; the
// ordering Our > Tessellation > SDSL at every core count;
// scalability flattens with growing dimensionality/order; AVX-512 curves sit
// above AVX-2 for the same method.
//
// --json emits one record per (stencil, isa, method, cores) measurement
// with the same schema fields as fig7/fig8 (method/tiling/dtype/boundary
// plus the harness-config fields), so scaling runs join the CI regression
// gate against bench/baseline.json. The record's "cores" rung label is the
// identity; the actual team lands in the non-identity "threads" field. In
// --smoke mode the problems shrink to smoke scale and the rung set is
// pinned to {1, 2} regardless of the host's core count, so the records are
// machine-independent and baseline coverage cannot depend on the runner.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Figure 9: scalability across stencils and ISAs");

  const int maxc = cfg.threads;
  std::vector<int> cores;
  if (cfg.smoke) {
    cores = {1, 2};  // fixed rungs: identity must not depend on the host
  } else {
    for (int c = 1; c < maxc; c *= 2) cores.push_back(c);
    cores.push_back(maxc);
  }

  CsvSink csv(cfg.csv_path, "fig,stencil,isa,method,cores,gflops");
  JsonSink json(cfg.json_path);
  bool ok = true;

  for (tsv::Problem p : tsv::table1_problems(cfg.paper_scale)) {
    if (cfg.smoke) p = smoke_problem(p);
    for (tsv::Isa isa : tsv::runnable_isas()) {
      if (isa == tsv::Isa::kScalar) continue;  // the paper compares vector ISAs
      std::printf("%s (%s), %tdx%tdx%td, T=%td, block %tdx%tdx%td/bt=%td\n",
                  p.name.c_str(), tsv::isa_name(isa), p.nx, p.ny, p.nz,
                  p.steps, p.bx, p.by, p.bz, p.bt);
      std::printf("  %-13s", "cores:");
      for (int c : cores) std::printf(" %8d", c);
      std::printf("\n");
      for (const auto& con : contenders()) {
        std::printf("  %-13s", con.name);
        for (int c : cores) {
          try {
            tsv::ResolvedOptions rc;
            const double gf = run_problem_best(p, con.method, con.tiling, isa,
                                               c, 3, 0, tsv::Dtype::kF64,
                                               cfg.tune, &rc);
            std::printf(" %8.1f", gf);
            std::fflush(stdout);
            csv.row("9,%s,%s,%s,%d,%.3f", p.name.c_str(), tsv::isa_name(isa),
                    con.name, c, gf);
            json.record(
                "{\"bench\":\"fig9\",\"stencil\":\"%s\",\"isa\":\"%s\","
                "\"method\":\"%s\",\"tiling\":\"%s\",\"dtype\":\"f64\","
                "\"boundary\":\"%s\",\"cores\":\"c%d\",\"gflops\":%.3f%s}",
                p.name.c_str(), tsv::isa_name(isa),
                tsv::method_name(con.method), tsv::tiling_name(con.tiling),
                boundary_field_name(), c, gf, json_cfg_fields(rc).c_str());
          } catch (const std::exception& e) {
            ok = false;
            std::printf(" %8s", "ERROR");
            std::fprintf(stderr, "\nfig9 %s %s/%s c=%d failed: %s\n",
                         p.name.c_str(), con.name, tsv::isa_name(isa), c,
                         e.what());
            json.record(
                "{\"bench\":\"fig9\",\"stencil\":\"%s\",\"isa\":\"%s\","
                "\"method\":\"%s\",\"tiling\":\"%s\",\"dtype\":\"f64\","
                "\"boundary\":\"%s\",\"cores\":\"c%d\",\"error\":true}",
                p.name.c_str(), tsv::isa_name(isa),
                tsv::method_name(con.method), tsv::tiling_name(con.tiling),
                boundary_field_name(), c);
          }
        }
        std::printf("\n");
      }
      std::printf("\n");
    }
  }
  return ok ? 0 : 1;
}
