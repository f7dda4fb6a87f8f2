// Table 4 — average performance improvement per stencil and ISA (paper
// §4.4), plus the many-core speedup over a single core, for every requested
// element type (--dtype f64|f32|both).
//
// Rows (paper): speedup over SDSL (AVX-2 columns) / over Tessellation
// (AVX-512 columns, where SDSL has no implementation) for Tessellation and
// Our (the paper's Our* — two time steps — has no tiled kernel here: see
// contenders()); and per-method speedup of the full machine over one core.
//
// Expected shape (paper): Our* 3.52x (1D3P/AVX2) tapering to 1.76x
// (3D27P/AVX2); AVX-512 gains 1.24x-1.98x over Tessellation; near-ideal
// many-core scaling for 1D, degrading with dimension.

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bench;
  setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Table 4: average speedups per stencil and ISA");

  const int maxc = cfg.threads;
  CsvSink csv(cfg.csv_path, "table,stencil,isa,dtype,method,metric,value");
  JsonSink json(cfg.json_path);
  bool ok = true;

  // Registry-enumerated: every vector ISA this binary can actually run.
  for (tsv::Isa isa : tsv::runnable_isas()) {
    if (isa == tsv::Isa::kScalar) continue;  // the paper compares vector ISAs
    const char* base_name = (isa == tsv::Isa::kAvx2) ? "SDSL" : "Tessellation";
    const int base_idx = (isa == tsv::Isa::kAvx2) ? 0 : 1;
    for (tsv::Dtype dt : cfg.dtypes) {
      std::printf(
          "[%s/%s] speedup over %s at %d cores / scaling vs 1 core\n",
          tsv::isa_name(isa), tsv::dtype_name(dt), base_name, maxc);
      std::printf("  %-8s", "stencil");
      for (const auto& c : contenders()) std::printf(" %12s", c.name);
      std::printf("   | scaling:");
      for (const auto& c : contenders()) std::printf(" %10s", c.name);
      std::printf("\n");

      for (tsv::Problem p : tsv::table1_problems(cfg.paper_scale)) {
        if (cfg.smoke) p = smoke_problem(p);
        double gf_max[kContenders], gf_one[kContenders];
        tsv::ResolvedOptions rcfg[kContenders];
        bool cok[kContenders];  // per-contender: a failure must not zero its siblings
        for (int k = 0; k < kContenders; ++k) {
          const auto& c = contenders()[k];
          cok[k] = true;
          try {
            gf_max[k] = run_problem_best(p, c.method, c.tiling, isa, maxc, 3,
                                         0, dt, cfg.tune, &rcfg[k]);
            gf_one[k] =
                maxc == 1 ? gf_max[k]
                          : run_problem_best(p, c.method, c.tiling, isa, 1, 3,
                                             0, dt, cfg.tune);
          } catch (const std::exception& e) {
            ok = cok[k] = false;
            gf_max[k] = gf_one[k] = 0;
            std::fprintf(stderr, "table4 %s %s %s/%s failed: %s\n",
                         p.name.c_str(), c.name, tsv::isa_name(isa),
                         tsv::dtype_name(dt), e.what());
            json.record(
                "{\"bench\":\"table4\",\"stencil\":\"%s\",\"method\":\"%s\","
                "\"isa\":\"%s\",\"dtype\":\"%s\",\"boundary\":\"%s\","
                "\"error\":true}",
                p.name.c_str(), c.name, tsv::isa_name(isa),
                tsv::dtype_name(dt), boundary_field_name());
          }
        }
        // Speedups are only defined when both the contender and the
        // baseline measured; errors are marked as such in the CSV instead
        // of masquerading as a 0.000 measurement.
        std::printf("  %-8s", p.name.c_str());
        for (int k = 0; k < kContenders; ++k) {
          const bool valid = cok[k] && cok[base_idx] && gf_max[base_idx] > 0;
          const double speedup = valid ? gf_max[k] / gf_max[base_idx] : 0;
          if (valid)
            std::printf(" %11.2fx", speedup);
          else
            std::printf(" %12s", cok[k] ? "n/a" : "ERROR");
          csv.row("4,%s,%s,%s,%s,speedup,%s", p.name.c_str(),
                  tsv::isa_name(isa), tsv::dtype_name(dt),
                  contenders()[k].name,
                  valid ? std::to_string(speedup).c_str()
                        : (cok[k] ? "n/a" : "error"));
          if (cok[k] && valid)
            json.record(
                "{\"bench\":\"table4\",\"stencil\":\"%s\",\"method\":\"%s\","
                "\"isa\":\"%s\",\"dtype\":\"%s\",\"boundary\":\"%s\","
                "\"gflops\":%.3f,\"speedup\":%.3f%s}",
                p.name.c_str(), contenders()[k].name, tsv::isa_name(isa),
                tsv::dtype_name(dt), boundary_field_name(), gf_max[k],
                speedup, json_cfg_fields(rcfg[k]).c_str());
          else if (cok[k])  // measured, but the baseline failed: no speedup
            json.record(
                "{\"bench\":\"table4\",\"stencil\":\"%s\",\"method\":\"%s\","
                "\"isa\":\"%s\",\"dtype\":\"%s\",\"boundary\":\"%s\","
                "\"gflops\":%.3f%s}",
                p.name.c_str(), contenders()[k].name, tsv::isa_name(isa),
                tsv::dtype_name(dt), boundary_field_name(), gf_max[k],
                json_cfg_fields(rcfg[k]).c_str());
        }
        std::printf("   |         ");
        for (int k = 0; k < kContenders; ++k) {
          const bool valid = cok[k] && gf_one[k] > 0;
          const double scaling = valid ? gf_max[k] / gf_one[k] : 0;
          if (valid)
            std::printf(" %9.1fx", scaling);
          else
            std::printf(" %10s", cok[k] ? "n/a" : "ERROR");
          csv.row("4,%s,%s,%s,%s,scaling,%s", p.name.c_str(),
                  tsv::isa_name(isa), tsv::dtype_name(dt),
                  contenders()[k].name,
                  valid ? std::to_string(scaling).c_str()
                        : (cok[k] ? "n/a" : "error"));
        }
        std::printf("\n");
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  std::printf("(paper AVX2 Our* over SDSL: 3.52x 1D3P ... 1.76x 3D27P;\n"
              " paper AVX512 Our* over Tessellation: 1.24x-1.98x)\n");
  return ok ? 0 : 1;
}
