// Figure 11 (beyond the paper) — sharded-grid scaling.
//
// Decomposes one 2D heat problem into N outermost-axis shards
// (tsv::ShardedGrid + tsv::ShardedPlan) and compares sustained point-update
// throughput against the 1-shard decomposition of the same plan, with the
// per-shard sweeps fanned out over a Scheduler of N single-threaded gangs:
//
//   strong   fixed global grid, 1 shard vs N shards (ideal speedup = N)
//   weak     ny grows with the shard count (ideal speedup = N, constant
//            per-shard work)
//
// The grid exceeds the LLC so the comparison measures real memory-system
// behaviour, not cache residency. The method is the untiled auto-vectorized
// sweep: per-step slicing (the sharded step loop inserts a ghost exchange
// between steps) costs an untiled method nothing, so the delta is pure
// shard-level parallelism.
//
// Correctness is checked inline: the N-shard result must be BIT-identical
// to the monolithic Plan::execute on the same inputs, else the record is an
// error and the exit nonzero. A 1-core host shows speedup ~1.0 by
// construction — pass --min-speedup 1.0 (the CI bench-smoke job does, on a
// multi-core runner) to turn the N-shard/1-shard ratio into a hard gate.
//
// JSON identity fields (scaling, shards, nx, ny, method, dtype, boundary,
// steps) are machine-independent so records join across runners in the CI
// regression gate; points_per_s is the metric.
//
// Extra flags (on top of bench_common's):
//   --shards N        shard count for the N-shard runs   (default 2)
//   --min-speedup X   fail if strong N/1 ratio < X       (default 0 = report)

#include "bench_common.hpp"

namespace {

using namespace bench;

struct Flags {
  int shards = 2;
  double min_speedup = 0.0;
};

Flags parse_extra(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--shards") && i + 1 < argc)
      f.shards = std::atoi(argv[++i]);
    else if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc)
      f.min_speedup = std::atof(argv[++i]);
  }
  if (f.shards < 1) f.shards = 1;
  return f;
}

void fill_problem(tsv::Grid2D<double>& g) {
  g.fill([](tsv::index x, tsv::index y) {
    return 0.3 + 1e-4 * static_cast<double>((x + 3 * y) % 97);
  });
}

tsv::Options problem_options(tsv::index steps) {
  tsv::Options o;
  o.method = tsv::Method::kAutoVec;
  o.tiling = tsv::Tiling::kNone;
  o.steps = steps;
  o.boundary = g_boundary;
  o.stream = g_stream;
  return o;
}

/// Best-of-N timed sharded execution: scatter is outside the timer (it is
/// setup, not the steady-state step loop the figure measures).
double best_sharded_secs(const tsv::Grid2D<double>& init,
                         const tsv::ShardedPlan<tsv::Grid2D<double>,
                                                tsv::Stencil2D<1, 3, double>>&
                             plan,
                         tsv::ShardedGrid<tsv::Grid2D<double>>& sg,
                         tsv::Scheduler& ex, int reps) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    sg.scatter(init);
    tsv::Timer t;
    plan.execute(sg, ex);
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bench::setup_omp();
  const Config cfg = Config::parse(argc, argv);
  const Flags flags = parse_extra(argc, argv);
  print_header("Figure 11: sharded-grid scaling (overlapped halo exchange)");

  // Above-LLC working set even at smoke scale: 4096 x 512 doubles is 16 MiB
  // per buffer, 32 MiB with the step's write buffer.
  const tsv::index nx = cfg.smoke ? 4096 : 4096;
  const tsv::index ny_base = cfg.smoke ? 512 : 2048;
  const tsv::index steps = cfg.smoke ? 16 : 32;
  const int reps = 3;  // best-of: shared runners stall single shots
  const auto s = tsv::make_2d5p<double>();
  const tsv::Options o = problem_options(steps);

  JsonSink json(cfg.json_path);
  CsvSink csv(cfg.csv_path, "fig,scaling,shards,nx,ny,points_per_s");

  bool ok = true;
  double strong_speedup = 1.0;

  for (const char* scaling : {"strong", "weak"}) {
    const bool weak = !std::strcmp(scaling, "weak");
    std::printf("%s scaling: nx=%td, steps=%td, method=autovec/f64\n",
                scaling, nx, steps);
    double pps1 = 0.0;
    std::vector<int> counts = {1};
    if (flags.shards > 1) counts.push_back(flags.shards);
    for (int count : counts) {
      const tsv::index ny = weak ? ny_base * count : ny_base;
      tsv::Grid2D<double> init(nx, ny, 1);
      fill_problem(init);

      const tsv::ShardSpec spec{.count = count};
      const auto plan =
          tsv::make_sharded_plan(tsv::shape2d(nx, ny), s, spec, o);
      tsv::ShardedGrid<tsv::Grid2D<double>> sg(init, spec);
      tsv::Scheduler ex(fifo_pool(count));

      // In-binary bit-identity vs the monolithic plan, every run.
      {
        tsv::Grid2D<double> mono(nx, ny, 1);
        fill_problem(mono);
        tsv::make_plan(tsv::shape2d(nx, ny), s, o).execute(mono);
        sg.scatter(init);
        plan.execute(sg, ex);  // doubles as the warmup run
        tsv::Grid2D<double> out = init;
        sg.gather(out);
        const double diff = tsv::max_abs_diff(mono, out);
        if (diff != 0.0) {
          ok = false;
          std::fprintf(stderr,
                       "fig11: %s %d-shard result diverged from the "
                       "monolithic plan (|diff| = %g)\n",
                       scaling, count, diff);
          json.record(
              "{\"bench\":\"fig11\",\"kind\":\"sharded-scaling\","
              "\"scaling\":\"%s\",\"shards\":%d,\"error\":true}",
              scaling, count);
          continue;
        }
      }

      const double secs = best_sharded_secs(init, plan, sg, ex, reps);
      const double pps = static_cast<double>(nx) * static_cast<double>(ny) *
                         static_cast<double>(steps) / secs;
      if (count == 1) pps1 = pps;
      const double speedup = pps1 > 0.0 ? pps / pps1 : 1.0;
      if (!weak && count == flags.shards) strong_speedup = speedup;
      std::printf("  %7s  shards=%-2d ny=%-6td %12.1f Mpoints/s  (%.2fx)\n",
                  scaling, count, ny, pps / 1e6, speedup);
      std::fflush(stdout);
      csv.row("11,%s,%d,%td,%td,%.0f", scaling, count, nx, ny, pps);
      json.record(
          "{\"bench\":\"fig11\",\"kind\":\"sharded-scaling\","
          "\"scaling\":\"%s\",\"shards\":%d,\"nx\":%td,\"ny\":%td,"
          "\"method\":\"autovec\",\"dtype\":\"f64\",\"boundary\":\"%s\","
          "\"steps\":%td,\"points_per_s\":%.0f,\"speedup\":%.3f}",
          scaling, count, nx, ny, boundary_field_name(), steps, pps, speedup);
    }
    std::printf("\n");
  }

  if (flags.min_speedup > 0 && strong_speedup < flags.min_speedup) {
    std::fprintf(stderr,
                 "fig11: strong-scaling speedup %.2fx below required %.2fx\n",
                 strong_speedup, flags.min_speedup);
    ok = false;
  }
  return ok ? 0 : 1;
}
