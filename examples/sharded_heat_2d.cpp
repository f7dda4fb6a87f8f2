// 2D heat diffusion on a sharded grid — the sharding subsystem end to end:
// decompose one domain into outermost-axis shards (ShardedGrid), build one
// plan per shard (ShardedPlan), and drive the time loop as waves of
// exchange -> sweep over a Scheduler's gangs, one single-threaded gang per
// shard.
//
// The domain mixes boundary conditions across the shard seam on purpose —
// periodic in x, insulated (Neumann) in y, so the split faces of the first
// and last shard are PHYSICAL Neumann faces while the interior seams are
// refreshed from the neighboring shard every step. The example is
// self-checking twice over (nonzero exit on failure):
//
//   * bit-identity — the gathered sharded result must equal the monolithic
//     Plan::execute on the same inputs, bit for bit, and both must match
//     the boundary-aware scalar oracle;
//   * conservation — an insulated periodic domain neither creates nor
//     destroys heat, so the total must be preserved to rounding.
//
// Finally it prints the scheduler's per-gang busy counters: how the wave
// tasks spread over the gangs and what fraction of the wall time each gang
// computed (ExecutorStats::gangs, utilization()).
//
//   ./examples/sharded_heat_2d [n] [steps] [shards]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace {

double total_heat(const tsv::Grid2D<double>& g) {
  double m = 0;
  for (tsv::index y = 0; y < g.ny(); ++y)
    for (tsv::index x = 0; x < g.nx(); ++x) m += g.at(x, y);
  return m;
}

void fill_hotspots(tsv::Grid2D<double>& g) {
  const tsv::index nx = g.nx(), ny = g.ny();
  g.fill([&](tsv::index x, tsv::index y) {
    const double dx1 = double(x - nx / 4), dy1 = double(y - ny / 3);
    const double dx2 = double(x - 3 * nx / 4), dy2 = double(y - 2 * ny / 3);
    return std::exp(-(dx1 * dx1 + dy1 * dy1) / double(nx)) +
           0.5 * std::exp(-(dx2 * dx2 + dy2 * dy2) / double(nx));
  });
}

}  // namespace

int main(int argc, char** argv) {
  const tsv::index n = argc > 1 ? std::atoll(argv[1]) : 256;
  const tsv::index steps = argc > 2 ? std::atoll(argv[2]) : 100;
  const int shards = argc > 3 ? std::atoi(argv[3]) : 4;

  // Weights sum to 1: pure diffusion, total heat is conserved on an
  // insulated domain.
  const auto s = tsv::make_2d5p<double>(0.6, 0.1, 0.1);
  tsv::Options o;
  o.method = tsv::Method::kAutoVec;
  o.steps = steps;
  o.boundary = {.x = tsv::Boundary::kPeriodic, .y = tsv::Boundary::kNeumann};

  tsv::Grid2D<double> init(n, n, 1);
  fill_hotspots(init);
  const double heat0 = total_heat(init);

  // Sharded run: one plan per shard, waves over one gang per shard.
  const tsv::ShardSpec spec{.count = shards};
  const auto plan = tsv::make_sharded_plan(tsv::shape2d(n, n), s, spec, o);
  tsv::ShardedGrid<tsv::Grid2D<double>> sg(init, spec);
  sg.scatter(init);
  tsv::Scheduler ex({.executor = {.gangs = plan.shards(), .threads_per_gang = 1},
                     .policy = tsv::SchedPolicy::kFifo,
                     .coalesce = false});
  tsv::Timer t;
  plan.execute(sg, ex);
  const double secs = t.seconds();
  tsv::Grid2D<double> sharded = init;
  sg.gather(sharded);

  // Monolithic twin + oracle.
  tsv::Grid2D<double> mono = init;
  tsv::make_plan(tsv::shape2d(n, n), s, o).execute(mono);
  tsv::Grid2D<double> oracle = init;
  tsv::reference_run(oracle, s, steps, o.boundary);

  const auto& layout = plan.layout();
  std::printf("sharded_heat_2d: %td x %td, %td steps, %d shards (y slabs:",
              n, n, steps, plan.shards());
  for (int i = 0; i < layout.count; ++i)
    std::printf(" %td", layout.extent[static_cast<std::size_t>(i)]);
  std::printf(")\n");
  std::printf("  %.1f Mpoints/s over %d gangs\n",
              double(n) * double(n) * double(steps) / secs / 1e6, ex.gangs());

  const tsv::ExecutorStats st = ex.stats().executor;
  for (std::size_t i = 0; i < st.gangs.size(); ++i)
    std::printf("  gang %zu: %llu wave tasks, %.1f ms busy\n", i,
                static_cast<unsigned long long>(st.gangs[i].tasks),
                st.gangs[i].busy_seconds * 1e3);
  std::printf("  pool utilization: %.0f%%\n", 100.0 * tsv::utilization(st));

  // ---- self-checks ---------------------------------------------------------
  const double diff = tsv::max_abs_diff(mono, sharded);
  if (diff != 0.0) {
    std::fprintf(stderr, "FAIL: sharded != monolithic (|diff| = %g)\n", diff);
    return 1;
  }
  const double err = tsv::max_abs_diff(oracle, sharded);
  const double tol = tsv::accuracy_tolerance<double>(steps);
  if (err > tol) {
    std::fprintf(stderr, "FAIL: oracle mismatch (%g > %g)\n", err, tol);
    return 1;
  }
  const double heat1 = total_heat(sharded);
  const double drift = std::abs(heat1 - heat0) / heat0;
  if (drift > 1e-12 * double(steps)) {
    std::fprintf(stderr, "FAIL: heat drifted by %.3e (insulated domain)\n",
                 drift);
    return 1;
  }
  std::printf("  OK: bit-identical to monolithic, oracle error %.2e, "
              "heat drift %.2e\n", err, drift);
  return 0;
}
