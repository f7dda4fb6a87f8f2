// Figure 8 — multicore cache-blocking experiments (paper §4.3).
//
// 1D 3-point heat with temporal tiling on all cores. Three contenders:
// SDSL (DLT + split tiling), Tessellation (+compiler vectorization),
// Our (transpose layout + tessellation); the paper's Our (2 steps) has no
// tiled kernel of its own here (see contenders()). Blocking rows:
// the plan's fixed-default heuristics, an L1-sized block (paper's 2000,
// here 2048), an L2-sized block (16384) — and, when --tune is passed, a
// "tuned" row where the autotuner picks the blocks (plan-time trials;
// the timer never sees them). Sweeps run across problem sizes in L3 and
// main memory, each requested dtype, for T and 10T (--long for only the
// 10x variant).
//
// Expected shape (paper): Our > Tessellation > SDSL everywhere;
// L1 blocking beats L2 blocking; the gap grows when the problem spills L3.
// The tuned row must match or beat the default row for every contender —
// the CI-facing acceptance check for the autotuner.

#include "bench_common.hpp"

namespace {

using namespace bench;

struct Blocking {
  const char* name;
  tsv::index bx, bt;
  tsv::Tune tune;
};

void sweep(tsv::index steps, const Config& cfg, CsvSink& csv, JsonSink& json,
           tsv::Dtype dt) {
  std::vector<Blocking> blockings = {
      {"dflt", 0, 0, tsv::Tune::kOff},
      {"L1", 2048, 128, tsv::Tune::kOff},
      {"L2", 16384, 512, tsv::Tune::kOff},
  };
  if (cfg.tune != tsv::Tune::kOff)
    blockings.push_back({"tuned", 0, 0, cfg.tune});
  const auto ladder = storage_ladder(cfg.smoke, dt);
  std::vector<SizeRung> rungs;
  if (cfg.nx_override > 0)
    rungs = {{"custom", cfg.nx_override}};
  else if (cfg.smoke)
    rungs = {ladder[0]};
  else
    rungs = {ladder[2], ladder[3]};  // L3 and memory

  std::printf("T = %td, %d threads, dtype = %s\n", steps, cfg.threads,
              tsv::dtype_name(dt));
  std::printf("%-5s %-5s %10s |", "blk", "level", "nx");
  for (const auto& c : contenders()) std::printf(" %12s", c.name);
  std::printf("\n");

  for (const Blocking& blk : blockings)
    for (const SizeRung& rung : rungs) {
      const tsv::index nx = cfg.paper_scale ? 10240000 : rung.nx;
      tsv::Problem p{.name = "1d3p", .kind = tsv::StencilKind::k1d3p,
                     .nx = nx, .ny = 1, .nz = 1, .steps = steps,
                     .bx = blk.bx, .by = 1, .bz = 1, .bt = blk.bt};
      std::printf("%-5s %-5s %10td |", blk.name, rung.level, nx);
      for (const auto& c : contenders()) {
        tsv::ResolvedOptions rc;
        const double gf =
            run_problem_best(p, c.method, c.tiling, tsv::best_isa(),
                             cfg.threads, 3, 0, dt, blk.tune, &rc);
        std::printf(" %12.1f", gf);
        std::fflush(stdout);
        csv.row("8,%td,%s,%s,%td,%s,%s,%.3f", steps, blk.name, rung.level,
                nx, c.name, tsv::dtype_name(dt), gf);
        json.record(
            "{\"bench\":\"fig8\",\"steps\":%td,\"blocking\":\"%s\","
            "\"level\":\"%s\",\"nx\":%td,\"method\":\"%s\",\"isa\":\"%s\","
            "\"dtype\":\"%s\",\"gflops\":%.3f%s}",
            steps, blk.name, rung.level, nx, c.name,
            tsv::isa_name(tsv::best_isa()), tsv::dtype_name(dt), gf,
            json_cfg_fields(rc).c_str());
      }
      std::printf("\n");
    }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::setup_omp();
  const Config cfg = Config::parse(argc, argv);
  print_header("Figure 8: multicore cache-blocking (1D heat, tiled)");
  CsvSink csv(cfg.csv_path,
              "fig,steps,blocking,level,nx,method,dtype,gflops");
  JsonSink json(cfg.json_path);
  const tsv::index base = cfg.smoke ? 8 : cfg.paper_scale ? 1000 : 240;
  for (tsv::Dtype dt : cfg.dtypes) {
    if (cfg.smoke || !cfg.long_t) sweep(base, cfg, csv, json, dt);  // 8(a)
    if (!cfg.smoke) sweep(base * 10, cfg, csv, json, dt);           // 8(b)
  }
  return 0;
}
