// Plan-engine tests: configure-once/execute-many semantics, default
// resolution (ISA, threads, blocks), the cache-fit tessellate default
// blocks, the unified split-tiling blocking rule,
// structured ConfigError reporting, and the rank-erased StencilKind plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace tsv {
namespace {

constexpr double kTol = 1e-11;

double f1(index x) { return std::sin(0.05 * x) + 0.002 * x; }
double f2(index x, index y) { return std::sin(0.04 * x - 0.06 * y); }
double f3(index x, index y, index z) {
  return std::sin(0.04 * x - 0.06 * y + 0.02 * z);
}

TEST(Plan, ExecuteIsRepeatable) {
  const auto s = make_1d3p(0.3);
  const index nx = 256;
  Grid1D<double> ref(nx, 1), g(nx, 1);
  ref.fill(f1);
  g.fill(f1);
  reference_run(ref, s, 6);

  Options o;
  o.method = Method::kTranspose;
  o.steps = 3;
  const auto plan = make_plan(shape1d(nx), s, o);
  plan.execute(g);  // 3 steps
  plan.execute(g);  // 3 more: the plan is reusable with no re-validation
  EXPECT_LE(max_abs_diff(ref, g), kTol);
}

TEST(Plan, DefaultOptionsResolveToConcreteValues) {
  const auto plan = make_plan(shape1d(128), make_1d3p(), Options{});
  const ResolvedOptions& r = plan.config();
  EXPECT_EQ(r.isa, best_isa());  // kAuto resolved at plan time
  EXPECT_NE(r.isa, Isa::kAuto);
  EXPECT_EQ(r.width, kernel_width(best_isa()));
  EXPECT_EQ(r.tiling, Tiling::kNone);
  EXPECT_EQ(r.bx, 0);       // untiled: no blocking
  EXPECT_EQ(r.threads, 1);  // untiled sweeps are single-threaded by design
}

TEST(Plan, TiledThreadsResolveToConcreteTeam) {
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = 2;
  EXPECT_GT(make_plan(shape1d(256), make_1d3p(), o).config().threads, 0);
  o.threads = 3;
  EXPECT_EQ(make_plan(shape1d(256), make_1d3p(), o).config().threads, 3);
  // An untiled sweep has no parallel region: any explicit team resolves 1.
  o.tiling = Tiling::kNone;
  EXPECT_EQ(make_plan(shape1d(256), make_1d3p(), o).config().threads, 1);
}

// The seed defaulted Options::isa to kAvx512, which threw on any
// non-AVX-512 host. Default-constructed options must now run everywhere.
TEST(Plan, DefaultConstructedOptionsRunOnAnyHost) {
  const auto s = make_1d3p(0.3);
  Grid1D<double> ref(128, 1), g(128, 1);
  ref.fill(f1);
  g.fill(f1);
  reference_run(ref, s, 1);
  EXPECT_NO_THROW(run(g, s, Options{}));
  EXPECT_LE(max_abs_diff(ref, g), kTol);
}

TEST(Plan, TiledDefaultsAreResolvedAndLegal) {
  const auto s = make_1d3p(0.3);
  const index nx = 512;
  Grid1D<double> ref(nx, 1), g(nx, 1);
  ref.fill(f1);
  g.fill(f1);
  reference_run(ref, s, 6);

  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = 6;  // bx/bt left 0: the plan resolves sane defaults
  const auto plan = make_plan(shape1d(nx), s, o);
  EXPECT_GT(plan.config().bx, 0);
  EXPECT_GT(plan.config().bt, 0);
  plan.execute(g);
  EXPECT_LE(max_abs_diff(ref, g), kTol);
}

// ---- unified split-tiling blocking rule (regression) -----------------------
//
// The seed interpreted split-tiling blocks inconsistently across ranks
// (bx/V::width in 1D, by?by:bx rows in 2D, bz?bz:bx planes in 3D). The rule
// is now: the split axis takes its block from its own field, falling back
// to bx, then the full extent; 1D blocks are elements, resolved to columns.

TEST(Plan, SplitBlockRule1D) {
  Options o;
  o.method = Method::kDlt;
  o.tiling = Tiling::kSplit;
  o.isa = Isa::kScalar;  // width-2 kernels
  o.steps = 4;
  o.bx = 64;
  o.bt = 2;
  const auto plan = make_plan(shape1d(128), make_1d3p(), o);
  EXPECT_EQ(plan.config().split_block, 32);  // 64 elements / W=2 columns
}

TEST(Plan, SplitBlockRule2DFallsBackToBx) {
  Options o;
  o.method = Method::kDlt;
  o.tiling = Tiling::kSplit;
  o.steps = 4;
  o.bx = 16;  // by unset: falls back to bx, in rows
  const auto plan = make_plan(shape2d(128, 24), make_2d5p(), o);
  EXPECT_EQ(plan.config().split_block, 16);

  Options o2 = o;
  o2.by = 5;  // own axis field wins
  EXPECT_EQ(make_plan(shape2d(128, 24), make_2d5p(), o2).config().split_block,
            5);
}

TEST(Plan, SplitBlockRule3DFallsBackToBx) {
  Options o;
  o.method = Method::kDlt;
  o.tiling = Tiling::kSplit;
  o.steps = 2;
  o.bx = 7;  // bz unset: falls back to bx, in planes
  const auto plan = make_plan(shape3d(128, 6, 14), make_3d7p(), o);
  EXPECT_EQ(plan.config().split_block, 7);

  Options o2 = o;
  o2.bz = 3;
  EXPECT_EQ(
      make_plan(shape3d(128, 6, 14), make_3d7p(), o2).config().split_block, 3);
}

TEST(Plan, SplitTilingMatchesReferenceAtEveryRank) {
  Options o;
  o.method = Method::kDlt;
  o.tiling = Tiling::kSplit;
  o.steps = 5;
  o.bx = 64;
  o.bt = 2;
  o.threads = 2;
  {
    const auto s = make_1d3p(0.3);
    Grid1D<double> ref(256, 1), g(256, 1);
    ref.fill(f1);
    g.fill(f1);
    reference_run(ref, s, 5);
    make_plan(shape1d(256), s, o).execute(g);
    EXPECT_LE(max_abs_diff(ref, g), kTol) << "rank 1";
  }
  {
    const auto s = make_2d5p();
    Grid2D<double> ref(128, 24, 1), g(128, 24, 1);
    ref.fill(f2);
    g.fill(f2);
    reference_run(ref, s, 5);
    make_plan(shape2d(128, 24), s, o).execute(g);
    EXPECT_LE(max_abs_diff(ref, g), kTol) << "rank 2";
  }
  {
    const auto s = make_3d7p();
    Grid3D<double> ref(128, 6, 14, 1), g(128, 6, 14, 1);
    ref.fill(f3);
    g.fill(f3);
    reference_run(ref, s, 5);
    make_plan(shape3d(128, 6, 14), s, o).execute(g);
    EXPECT_LE(max_abs_diff(ref, g), kTol) << "rank 3";
  }
}

// ---- structured errors ------------------------------------------------------

TEST(Plan, ConfigErrorCarriesStructuredFields) {
  Options o;
  o.method = Method::kReorg;  // split tiling is DLT-only
  o.tiling = Tiling::kSplit;
  o.steps = 2;
  try {
    make_plan(shape1d(128), make_1d3p(), o);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.method(), Method::kReorg);
    EXPECT_EQ(e.tiling(), Tiling::kSplit);
    EXPECT_EQ(e.rank(), 1);
    EXPECT_FALSE(e.reason().empty());
    EXPECT_NE(std::string(e.what()).find("reorg"), std::string::npos);
  }
  // Source compatibility: ConfigError is a std::invalid_argument.
  EXPECT_THROW(make_plan(shape1d(128), make_1d3p(), o), std::invalid_argument);
}

TEST(Plan, LayoutViolationsFailAtPlanTime) {
  Options o;  // default method kTranspose needs nx % W^2 == 0
  const index bad_nx = 10;  // not a multiple of 4, 16 or 64
  EXPECT_THROW(make_plan(shape1d(bad_nx), make_1d3p(), o), ConfigError);
  o.method = Method::kDlt;
  o.isa = Isa::kScalar;
  EXPECT_THROW(make_plan(shape1d(101), make_1d3p(), o), ConfigError);
  // MultiLoad has no layout rule: same size must plan fine.
  o.method = Method::kMultiLoad;
  EXPECT_NO_THROW(make_plan(shape1d(101), make_1d3p(), o));
}

// The tiled 2-step row advances single tessellated steps, so an odd bt
// plans like any other and its output matches the scalar oracle.
TEST(Plan, OddBtPlansForTheTiledUj2Row) {
  Options o;
  o.method = Method::kTransposeUJ;
  o.tiling = Tiling::kTessellate;
  o.steps = 8;
  o.bx = 128;
  o.bt = 3;
  const auto plan = make_plan(shape1d(256), make_1d3p(), o);
  EXPECT_EQ(plan.config().bt, 3);
  Grid1D<double> g(256, 1), ref(256, 1);
  g.fill(f1);
  ref.fill(f1);
  plan.execute(g);
  reference_run(ref, make_1d3p(), o.steps);
  EXPECT_LE(max_abs_diff(ref, g), kTol);
}

// The tiled 2-step row tiles at the single-step slope R (a multi-tile block
// needs 2R*bt). Under a per-step boundary a requested bt too deep for the
// blocks lowers to the deepest legal one, so an explicit small block still
// plans; a frozen boundary keeps the requested bt and rejects a block below
// its floor.
TEST(Plan, PerStepBoundaryResolvesTheBlockThatRuns) {
  Options o;
  o.method = Method::kTransposeUJ;
  o.tiling = Tiling::kTessellate;
  o.steps = 6;
  o.bx = 256;
  o.by = 2;  // 2R for 2d5p: legal for single steps at bt = 1 only
  o.bt = 8;
  o.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
  const Shape sh = shape2d(256, 16);
  EXPECT_EQ(make_plan(sh, make_2d5p(), o).config().bt, 1);
  o.by = 4;
  EXPECT_EQ(make_plan(sh, make_2d5p(), o).config().bt, 2);
  o.by = 16;  // one tile: any bt is legal
  EXPECT_EQ(make_plan(sh, make_2d5p(), o).config().bt, 8);
  o.by = 6;
  o.bt = 3;
  const auto plan = make_plan(sh, make_2d5p(), o);
  EXPECT_EQ(plan.config().bt, 3);
  o.boundary = BoundarySpec{.x = Boundary::kDirichlet,
                            .y = Boundary::kNeumann,
                            .z = Boundary::kDirichlet};
  EXPECT_EQ(make_plan(sh, make_2d5p(), o).config().bt, 3);

  // The single steps that bt reports run: the plan (y a ring of two tiles,
  // the ragged third folded in) matches the scalar oracle under the same
  // boundary.
  Grid2D<double> g(256, 16, 1), ref(256, 16, 1);
  g.fill(f2);
  ref.fill(f2);
  plan.execute(g);
  reference_run(ref, make_2d5p(), o.steps,
                BoundarySpec::uniform(Boundary::kPeriodic));
  EXPECT_LE(max_abs_diff(ref, g), kTol);

  // Under a frozen boundary the odd bt plans too, and matches the oracle.
  o.boundary = BoundarySpec::uniform(Boundary::kZero);
  const auto frozen = make_plan(sh, make_2d5p(), o);
  EXPECT_EQ(frozen.config().bt, 3);
  Grid2D<double> gz(256, 16, 1), refz(256, 16, 1);
  gz.fill(f2);
  refz.fill(f2);
  frozen.execute(gz);
  reference_run(refz, make_2d5p(), o.steps,
                BoundarySpec::uniform(Boundary::kZero));
  EXPECT_LE(max_abs_diff(refz, gz), kTol);

  o.by = 2;
  EXPECT_THROW(make_plan(sh, make_2d5p(), o), ConfigError);  // by < 6R
  o.bt = 2;
  EXPECT_THROW(make_plan(sh, make_2d5p(), o), ConfigError);  // by < 4R
  o.by = 4;
  EXPECT_EQ(make_plan(sh, make_2d5p(), o).config().bt, 2);
}

TEST(Plan, HaloSmallerThanRadiusRejected) {
  EXPECT_THROW(make_plan(shape1d(128, /*halo=*/1), make_1d5p(), Options{}),
               ConfigError);
  EXPECT_NO_THROW(make_plan(shape1d(128, /*halo=*/2), make_1d5p(), Options{}));
}

TEST(Plan, ShapeMismatchAtExecute) {
  const auto s = make_1d3p();
  const auto plan = make_plan(shape1d(128), s, Options{});
  Grid1D<double> wrong(192, 1);
  wrong.fill(f1);
  EXPECT_THROW(plan.execute(wrong), ConfigError);
}

TEST(Plan, ShapeRankMismatchAtPlanTime) {
  EXPECT_THROW(make_plan(shape2d(128, 8), make_1d3p(), Options{}),
               ConfigError);
}

// ---- cache-fit default blocks (tessellate, rank 2/3) ------------------------
//
// Unset y/z blocks follow one cache model: a grid whose two buffers fit half
// the per-thread L2 stays one tile; a larger one gets the largest y block
// (2D) whose tile's two buffers fit that budget, or in 3D one z tile and
// the y block whose z wavefront window fits the L2, floored at
// 2*slope*tau and capped at the extent. Asserted on resolved
// fields only, never on timing.

index l2_budget_elems(Dtype dt) {
  return cache_fit_elems(cpu_info().l2_bytes, dtype_size(dt), 0.5);
}

/// @p n rounded down to a multiple of 256 (legal for every layout rule).
index x256(index n) { return std::max<index>(256, n / 256 * 256); }

TEST(Plan, CacheFitDefaultTilesLargeGrids) {
  // A 3d7p f64 tessellated solve over 2 x 212 MB buffers (transpose-uj2).
  Options o;
  o.method = Method::kTransposeUJ;
  o.tiling = Tiling::kTessellate;
  o.steps = 8;
  o.threads = 3;
  const Shape sh = shape3d(320, 288, 288);
  const ResolvedOptions r = resolve_options(sh, 1, o);
  // z is one wavefront tile. by is ceil(ny / k) for the smallest multiple
  // k of threads whose window — bt + 2 planes of by + 2 rows of both f64
  // buffers — fits the whole L2, floored at 2*slope*tau = 2*bt. The
  // default bt is the deepest one in (4, steps] whose window at that by
  // fits; else 4. A 2 MiB L2 gives bt 8 and nine 32-row y tiles.
  const index l2 = cpu_info().l2_bytes;
  auto by_at = [&](index bt) {
    const index cap = std::max(2 * bt, l2 / 16 / (sh.nx * (bt + 2)) - 2);
    index tiles = 3, by = sh.ny;
    while ((by = (sh.ny + tiles - 1) / tiles) > cap) tiles += 3;
    return std::max(2 * bt, by);
  };
  index want_bt = 4;
  for (index bt = 8; bt > 4; --bt)
    if (sh.nx * (by_at(bt) + 2) * (bt + 2) * 2 * 8 <= l2) {
      want_bt = bt;
      break;
    }
  EXPECT_EQ(r.bt, want_bt);
  EXPECT_EQ(r.bx, 320);
  EXPECT_EQ(r.by, by_at(want_bt));
  EXPECT_EQ(r.bz, sh.nz) << "3D default keeps z one wavefront tile";
  EXPECT_LT(r.by, sh.ny);
  EXPECT_EQ(tile_count(sh.ny, r.by) % 3, 0)
      << "every stage splits evenly over 3 threads";
  const index budget = l2_budget_elems(Dtype::kF64);

  // 2D: the largest y block whose tile fits the budget.
  o.method = Method::kTranspose;
  const Shape sh2 = shape2d(1024, 4 * budget / 1024 + 64);
  const ResolvedOptions r2 = resolve_options(sh2, 1, o);
  EXPECT_EQ(r2.bx, 1024);
  EXPECT_LT(r2.by, sh2.ny);
  EXPECT_EQ(r2.by, std::max<index>(budget / 1024, 2 * r2.bt));
  // The floor is 2*r*bt, so any bt up to steps fits while
  // 1024 * max(budget/1024, 2*bt) rows' two buffers stay in L2.
  index want_bt2 = 4;
  for (index bt = 8; bt > 4; --bt)
    if (1024 * std::max<index>(budget / 1024, 2 * bt) * 2 * 8 <= l2) {
      want_bt2 = bt;
      break;
    }
  EXPECT_EQ(r2.bt, want_bt2);
}

TEST(Plan, CacheFitDefaultKeepsSmallGridsOneTile) {
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = 8;
  for (Dtype dt : all_dtypes()) {
    o.dtype = dt;
    const index budget = l2_budget_elems(dt);
    // Two buffers that exactly fit the budget: still one tile.
    const Shape sh2 = shape2d(256, budget / 256);
    const ResolvedOptions r2 = resolve_options(sh2, 1, o);
    EXPECT_EQ(r2.by, sh2.ny) << dtype_name(dt);
    index side = 1;
    while (256 * (side + 1) * (side + 1) <= budget) ++side;
    const Shape sh3 = shape3d(256, side, side);
    const ResolvedOptions r3 = resolve_options(sh3, 1, o);
    EXPECT_EQ(r3.by, sh3.ny) << dtype_name(dt);
    EXPECT_EQ(r3.bz, sh3.nz) << dtype_name(dt);
    // Explicit blocks are never overridden.
    o.by = 16;
    o.bz = 8;
    const ResolvedOptions pinned =
        resolve_options(shape3d(256, 512, 512), 1, o);
    EXPECT_EQ(pinned.by, 16);
    EXPECT_EQ(pinned.bz, 8);
    // A pinned y leaves z one wavefront tile.
    o.bz = 0;
    const ResolvedOptions half =
        resolve_options(shape3d(256, 512, 512), 1, o);
    EXPECT_EQ(half.by, 16);
    EXPECT_EQ(half.bz, 512);
    o.by = o.bz = 0;
  }
}

// Legality sweep: wherever explicit one-tile blocks (by = ny, bz = nz)
// resolve, the cache-fit default must resolve too.
TEST(Plan, CacheFitDefaultIsLegalWhereOneTileWas) {
  const StencilKind kinds[] = {StencilKind::k2d5p, StencilKind::k2d9p,
                               StencilKind::k3d7p, StencilKind::k3d27p};
  int resolved = 0;
  for (const Capability& cap : capabilities()) {
    if (cap.tiling != Tiling::kTessellate) continue;
    for (StencilKind kind : kinds) {
      const int rank = stencil_kind_rank(kind);
      const int radius = stencil_kind_radius(kind);
      if (!cap.supports_rank(rank)) continue;
      for (Dtype dt : all_dtypes()) {
        const index budget = l2_budget_elems(dt);
        // Well above the budget, just above it with short y/z extents (the
        // floor and the cap meet), and a wide-x grid (bx alone fills L2).
        const Shape shapes[] = {
            rank == 2 ? shape2d(256, 4 * budget / 256, radius)
                      : shape3d(256, 64, 4 * budget / (256 * 64), radius),
            rank == 2 ? shape2d(2 * budget, 12, radius)
                      : shape3d(x256(budget / 16), 5, 7, radius),
            rank == 2 ? shape2d(budget / 2, 40, radius)
                      : shape3d(x256(budget / 4), 24, 24, radius)};
        for (const Shape& sh : shapes)
          for (index bt : {0, 1, 2, 4, 8})
            for (Boundary bc : {Boundary::kZero, Boundary::kPeriodic}) {
              Options o;
              o.method = cap.method;
              o.tiling = cap.tiling;
              o.dtype = dt;
              o.steps = 8;
              o.bt = bt;
              o.boundary = BoundarySpec::uniform(bc);
              Options one_tile = o;
              one_tile.by = sh.ny;
              one_tile.bz = rank >= 3 ? sh.nz : 0;
              try {
                resolve_options(sh, radius, one_tile);
              } catch (const ConfigError&) {
                continue;  // the old default was already illegal here
              }
              const std::string what =
                  std::string(method_name(cap.method)) + " " +
                  stencil_kind_name(kind) + " " + dtype_name(dt) + " " +
                  std::to_string(sh.nx) + "x" + std::to_string(sh.ny) + "x" +
                  std::to_string(sh.nz) + " bt=" + std::to_string(bt) + " " +
                  boundary_name(bc);
              EXPECT_NO_THROW(resolve_options(sh, radius, o)) << what;
              ++resolved;
            }
      }
    }
  }
  EXPECT_GT(resolved, 0);
}

// ---- rank-erased plans ------------------------------------------------------

TEST(Plan, StencilKindPlanExecutes) {
  const index nx = 128, ny = 16;
  Grid2D<double> ref(nx, ny, 1), g(nx, ny, 1);
  ref.fill(f2);
  g.fill(f2);
  reference_run(ref, make_2d5p(), 4);

  Options o;
  o.method = Method::kTranspose;
  o.steps = 4;
  const Plan plan = make_plan(shape2d(nx, ny), StencilKind::k2d5p, o);
  EXPECT_EQ(plan.rank(), 2);
  EXPECT_EQ(plan.config().isa, best_isa());
  plan.execute(g);
  EXPECT_LE(max_abs_diff(ref, g), kTol);

  Grid1D<double> g1(nx, 1);
  g1.fill(f1);
  EXPECT_THROW(plan.execute(g1), ConfigError);  // wrong rank
  Grid2D<float> gf(nx, ny, 1);
  try {
    plan.execute(gf);  // right rank, wrong dtype
    ADD_FAILURE() << "dtype mismatch did not throw";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "plan was built for a different grid rank or dtype"),
              std::string::npos)
        << e.what();
  }

  // A GridRef passes through to the same typed plan.
  Grid2D<double> viaref(nx, ny, 1);
  viaref.fill(f2);
  GridRef ref_of_grid = &viaref;
  Workspace ws;
  plan.execute(ref_of_grid, ws);
  EXPECT_EQ(max_abs_diff(g, viaref), 0.0);
}

}  // namespace
}  // namespace tsv
