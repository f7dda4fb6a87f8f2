// Boundary-condition suite: the ghost-fill routines (core/halo.hpp), the
// plan-layer boundary execution, and the StencilSpec runtime-coefficient
// path.
//
// The heart of the suite sweeps every (method, tiling, rank, isa, dtype)
// combination the registry claims x every Boundary condition, and checks
// the plan's result against the boundary-aware scalar oracle
// (reference_run with a BoundarySpec) — both sides read ghost values
// produced by the SAME fill_ghosts, so any divergence is a method bug.
// A radius-2 periodic wrap case regresses the halo-widening class of bug
// (ghosts two cells deep must wrap from two cells inside the far edge).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace tsv {
namespace {

template <typename T>
T f1(index x) {
  return T(std::sin(0.041 * double(x)) + 0.002 * double(x));
}
template <typename T>
T f2(index x, index y) {
  return T(std::sin(0.041 * double(x) - 0.07 * double(y)));
}
template <typename T>
T f3(index x, index y, index z) {
  return T(std::sin(0.041 * double(x) - 0.07 * double(y) + 0.03 * double(z)));
}

// nx a multiple of 256 = W^2 for the widest kernels (float AVX-512), so
// every layout rule accepts the shape at every compiled width and dtype.
constexpr index kNx = 256, kNy = 6, kNz = 4;
// Odd on purpose: frozen-boundary runs exercise the unroll&jam odd tail,
// per-step runs exercise several refresh iterations.
constexpr index kSteps = 5;

// ---- fill_ghosts unit tests -------------------------------------------------

TEST(GhostFill, Periodic1DWrapsBothRadii) {
  for (int r : {1, 2}) {
    Grid1D<double> g(8, r);
    g.fill([](index x) { return double(100 + x); });  // halo garbage too
    fill_ghosts(g, BoundarySpec::uniform(Boundary::kPeriodic), r);
    for (int d = 1; d <= r; ++d) {
      EXPECT_EQ(g.at(-d), g.at(8 - d)) << "left ghost r=" << r << " d=" << d;
      EXPECT_EQ(g.at(7 + d), g.at(d - 1)) << "right ghost r=" << r;
    }
    // Interior untouched.
    for (index x = 0; x < 8; ++x) EXPECT_EQ(g.at(x), double(100 + x));
  }
}

TEST(GhostFill, Neumann1DMirrors) {
  const int r = 2;
  Grid1D<double> g(6, r);
  g.fill([](index x) { return double(x) * 3.0; });
  fill_ghosts(g, BoundarySpec::uniform(Boundary::kNeumann), r);
  EXPECT_EQ(g.at(-1), g.at(0));
  EXPECT_EQ(g.at(-2), g.at(1));
  EXPECT_EQ(g.at(6), g.at(5));
  EXPECT_EQ(g.at(7), g.at(4));
}

TEST(GhostFill, Zero1DZeroesGhostsOnly) {
  Grid1D<double> g(6, 1);
  g.fill([](index) { return 7.0; });
  fill_ghosts(g, BoundarySpec::uniform(Boundary::kZero), 1);
  EXPECT_EQ(g.at(-1), 0.0);
  EXPECT_EQ(g.at(6), 0.0);
  for (index x = 0; x < 6; ++x) EXPECT_EQ(g.at(x), 7.0);
}

TEST(GhostFill, DirichletLeavesEverything) {
  Grid1D<double> g(6, 1);
  g.fill([](index x) { return double(x); });
  fill_ghosts(g, BoundarySpec{}, 1);  // default: all kDirichlet
  EXPECT_EQ(g.at(-1), -1.0);
  EXPECT_EQ(g.at(6), 6.0);
}

TEST(GhostFill, Periodic2DCornersWrapDiagonally) {
  const index nx = 5, ny = 4;
  Grid2D<double> g(nx, ny, 1);
  g.fill([&](index x, index y) { return double(10 * y + x); });
  fill_ghosts(g, BoundarySpec::uniform(Boundary::kPeriodic), 1);
  // Edges wrap...
  EXPECT_EQ(g.at(-1, 0), g.at(nx - 1, 0));
  EXPECT_EQ(g.at(0, -1), g.at(0, ny - 1));
  EXPECT_EQ(g.at(nx, 2), g.at(0, 2));
  EXPECT_EQ(g.at(2, ny), g.at(2, 0));
  // ...and corners wrap in BOTH axes (sequential exchange: the y fill
  // copies rows whose x ghosts are already periodic).
  EXPECT_EQ(g.at(-1, -1), g.at(nx - 1, ny - 1));
  EXPECT_EQ(g.at(nx, ny), g.at(0, 0));
  EXPECT_EQ(g.at(-1, ny), g.at(nx - 1, 0));
}

TEST(GhostFill, MixedAxes2D) {
  const index nx = 5, ny = 4;
  Grid2D<double> g(nx, ny, 1);
  g.fill([&](index x, index y) { return double(10 * y + x); });
  fill_ghosts(g, {.x = Boundary::kPeriodic, .y = Boundary::kNeumann}, 1);
  EXPECT_EQ(g.at(-1, 1), g.at(nx - 1, 1));  // x wraps
  EXPECT_EQ(g.at(2, -1), g.at(2, 0));       // y mirrors
  EXPECT_EQ(g.at(2, ny), g.at(2, ny - 1));
  // Corner: y mirror of a row whose x ghost wrapped.
  EXPECT_EQ(g.at(-1, -1), g.at(nx - 1, 0));
}

TEST(GhostFill, Periodic3DCornerWrapsAllAxes) {
  Grid3D<double> g(4, 3, 3, 1);
  g.fill([](index x, index y, index z) {
    return double(100 * z + 10 * y + x);
  });
  fill_ghosts(g, BoundarySpec::uniform(Boundary::kPeriodic), 1);
  EXPECT_EQ(g.at(-1, -1, -1), g.at(3, 2, 2));
  EXPECT_EQ(g.at(4, 3, 3), g.at(0, 0, 0));
  EXPECT_EQ(g.at(2, -1, 1), g.at(2, 2, 1));
  EXPECT_EQ(g.at(2, 1, -1), g.at(2, 1, 2));
}

// A team splits each axis phase's rows; the phases stay x -> y -> z, so
// every team writes the serial bytes, corners included. 7 rows in 2D and
// 7 x 5 = 35 in 3D are multiples of neither 2 nor 3.
template <typename G>
void expect_team_fill_matches_serial(const BoundarySpec& bc, int r) {
  G serial = make_grid<G>({13, 7, 5}, r);
  index n = 0;
  for_each_row(serial, 1, [&](index y, index z) {
    for (index x = -r; x < 13 + r; ++x)
      row_at(serial, y, z)[x] = static_cast<double>(++n);
  });
  const G start = serial;
  fill_ghosts(serial, bc, r);
  for (int team = 1; team <= 3; ++team) {
    G par = start;
    fill_ghosts(par, bc, r, IdentityX{}, team);
    bool same = true;
    for_each_row(par, 1, [&](index y, index z) {
      same = same && std::memcmp(row_at(par, y, z) - r,
                                 row_at(serial, y, z) - r,
                                 (13 + 2 * r) * sizeof(double)) == 0;
    });
    EXPECT_TRUE(same) << "rank " << G::kRank << " x "
                      << boundary_name(bc.x) << " radius " << r << " team "
                      << team;
  }
}

TEST(GhostFill, TeamFillIsBytewiseSerial) {
  for (Boundary b :
       {Boundary::kZero, Boundary::kPeriodic, Boundary::kNeumann})
    for (int r : {1, 2}) {
      const BoundarySpec bc = BoundarySpec::uniform(b);
      expect_team_fill_matches_serial<Grid2D<double>>(bc, r);
      expect_team_fill_matches_serial<Grid3D<double>>(bc, r);
    }
  // Mixed axes: each phase reads what the phase before it wrote.
  expect_team_fill_matches_serial<Grid3D<double>>(
      {.x = Boundary::kPeriodic, .y = Boundary::kNeumann,
       .z = Boundary::kZero},
      2);
}

// ---- boundary-aware oracle sanity -------------------------------------------

// One periodic reference step of the 3-point average must equal the
// hand-computed circular convolution.
TEST(BoundaryOracle, Periodic1DStepByHand) {
  const index nx = 6;
  const auto s = make_1d3p(1.0 / 3.0);
  Grid1D<double> g(nx, 1);
  g.fill([](index x) { return double(x * x); });
  Grid1D<double> expect(nx, 1);
  for (index x = 0; x < nx; ++x) {
    const double l = double(((x + nx - 1) % nx) * ((x + nx - 1) % nx));
    const double c = double(x * x);
    const double rr = double(((x + 1) % nx) * ((x + 1) % nx));
    expect.at(x) = (l + c + rr) / 3.0;
  }
  reference_run(g, s, 1, BoundarySpec::uniform(Boundary::kPeriodic));
  for (index x = 0; x < nx; ++x)
    EXPECT_NEAR(g.at(x), expect.at(x), 1e-12) << "x=" << x;
}

// ---- full plan sweep: every claimed combo x every boundary ------------------

Options combo_options(Method m, Tiling t, Isa isa, Dtype d, Boundary b) {
  Options o;
  o.method = m;
  o.tiling = t;
  o.isa = isa;
  o.dtype = d;
  o.steps = kSteps;
  o.boundary = BoundarySpec::uniform(b);
  return o;
}

std::string combo_label(Method m, Tiling t, int rank, Isa isa, Dtype d,
                        Boundary b) {
  std::string s = method_name(m);
  s += "+";
  s += tiling_name(t);
  s += " rank=" + std::to_string(rank) + " isa=";
  s += isa_name(isa);
  s += " dtype=";
  s += dtype_name(d);
  s += " bc=";
  s += boundary_name(b);
  return s;
}

template <typename T>
void expect_combo_matches(Method m, Tiling t, int rank, Isa isa, Boundary b) {
  const Options o = combo_options(m, t, isa, dtype_of<T>(), b);
  const std::string label = combo_label(m, t, rank, isa, dtype_of<T>(), b);
  const double tol = accuracy_tolerance<T>(kSteps);
  const BoundarySpec bc = BoundarySpec::uniform(b);
  switch (rank) {
    case 1: {
      const auto s = make_1d3p<T>(0.3);
      Grid1D<T> ref(kNx, 1), g(kNx, 1);
      ref.fill(f1<T>);
      g.fill(f1<T>);
      reference_run(ref, s, kSteps, bc);
      make_plan(shape1d(kNx), s, o).execute(g);
      EXPECT_LE(max_abs_diff(ref, g), tol) << label;
      break;
    }
    case 2: {
      const auto s = make_2d5p<T>(0.5, 0.12, 0.13);
      Grid2D<T> ref(kNx, kNy, 1), g(kNx, kNy, 1);
      ref.fill(f2<T>);
      g.fill(f2<T>);
      reference_run(ref, s, kSteps, bc);
      make_plan(shape2d(kNx, kNy), s, o).execute(g);
      EXPECT_LE(max_abs_diff(ref, g), tol) << label;
      break;
    }
    default: {
      const auto s = make_3d7p<T>();
      Grid3D<T> ref(kNx, kNy, kNz, 1), g(kNx, kNy, kNz, 1);
      ref.fill(f3<T>);
      g.fill(f3<T>);
      reference_run(ref, s, kSteps, bc);
      make_plan(shape3d(kNx, kNy, kNz), s, o).execute(g);
      EXPECT_LE(max_abs_diff(ref, g), tol) << label;
      break;
    }
  }
}

TEST(Boundary, EveryClaimedComboMatchesOracleUnderEveryBoundary) {
  int executed = 0;
  for (Boundary b : all_boundaries())
    for (Method m : all_methods())
      for (Tiling t : all_tilings())
        for (int rank = 1; rank <= 3; ++rank)
          for (Isa isa : runnable_isas())
            for (Dtype d : all_dtypes()) {
              if (!supports(m, t, rank, isa, d, b)) continue;
              if (d == Dtype::kF32)
                expect_combo_matches<float>(m, t, rank, isa, b);
              else
                expect_combo_matches<double>(m, t, rank, isa, b);
              ++executed;
            }
  // All rows claim all four boundaries; at least the scalar-ISA rows must
  // have run everywhere, in both dtypes.
  EXPECT_GE(executed, 4 * 40);
}

// ---- radius-2 periodic wrap (halo-widening regression) ----------------------

// Ghost cells two deep must wrap from two cells inside the far edge; a
// kernel (or scratch buffer) that only honours one halo cell diverges from
// the oracle immediately at the boundary.
TEST(Boundary, Radius2PeriodicWrap1D) {
  const auto s = make_1d5p(0.04, 0.21, 0.47);
  const BoundarySpec bc = BoundarySpec::uniform(Boundary::kPeriodic);
  for (Method m : {Method::kScalar, Method::kAutoVec, Method::kMultiLoad,
                   Method::kReorg, Method::kDlt, Method::kTranspose,
                   Method::kTransposeUJ}) {
    Grid1D<double> ref(kNx, 2), g(kNx, 2);
    ref.fill(f1<double>);
    g.fill(f1<double>);
    reference_run(ref, s, kSteps, bc);
    Options o;
    o.method = m;
    o.steps = kSteps;
    o.boundary = bc;
    make_plan(shape1d(kNx, 2), s, o).execute(g);
    EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<double>(kSteps))
        << method_name(m);
  }
  // The same wrap through both tiling frameworks.
  for (auto [m, t] : {std::pair{Method::kTranspose, Tiling::kTessellate},
                      std::pair{Method::kTransposeUJ, Tiling::kTessellate},
                      std::pair{Method::kDlt, Tiling::kSplit}}) {
    Grid1D<double> ref(kNx, 2), g(kNx, 2);
    ref.fill(f1<double>);
    g.fill(f1<double>);
    reference_run(ref, s, kSteps, bc);
    Options o;
    o.method = m;
    o.tiling = t;
    o.steps = kSteps;
    o.boundary = bc;
    o.threads = 2;
    make_plan(shape1d(kNx, 2), s, o).execute(g);
    EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<double>(kSteps))
        << method_name(m) << "+" << tiling_name(t);
  }
}

// ---- mixed per-axis conditions ----------------------------------------------

TEST(Boundary, MixedPeriodicXNeumannY2D) {
  const auto s = make_2d9p(0.2, 0.11, 0.069);
  const BoundarySpec bc{.x = Boundary::kPeriodic, .y = Boundary::kNeumann};
  Grid2D<double> ref(kNx, kNy, 1), g(kNx, kNy, 1);
  ref.fill(f2<double>);
  g.fill(f2<double>);
  reference_run(ref, s, kSteps, bc);
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = kSteps;
  o.boundary = bc;
  make_plan(shape2d(kNx, kNy), s, o).execute(g);
  EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<double>(kSteps));
}

// ---- semantics of the frozen conditions -------------------------------------

// kZero on a garbage halo must equal kDirichlet on a zeroed halo: the
// enforced fill and the user convention are the same physics.
TEST(Boundary, ZeroEqualsDirichletWithZeroedHalo) {
  const auto s = make_1d3p(0.3);
  Grid1D<double> gz(kNx, 1), gd(kNx, 1);
  gz.fill([](index x) { return x < 0 || x >= kNx ? 999.0 : f1<double>(x); });
  gd.fill([](index x) { return x < 0 || x >= kNx ? 0.0 : f1<double>(x); });
  Options oz;
  oz.steps = kSteps;
  oz.boundary = BoundarySpec::uniform(Boundary::kZero);
  make_plan(shape1d(kNx), s, oz).execute(gz);
  Options od;
  od.steps = kSteps;  // default boundary: kDirichlet
  make_plan(shape1d(kNx), s, od).execute(gd);
  EXPECT_EQ(max_abs_diff(gz, gd), 0.0);
}

// The default (all-kDirichlet) plan path must stay bit-identical to the
// legacy frozen-halo oracle — the seed behaviour is unchanged.
TEST(Boundary, DirichletDefaultIsBitIdenticalToLegacyReference) {
  const auto s = make_2d5p(0.5, 0.12, 0.13);
  Grid2D<double> ref(kNx, kNy, 1), g(kNx, kNy, 1);
  ref.fill(f2<double>);
  g.fill(f2<double>);
  reference_run(ref, s, kSteps);  // legacy overload, frozen halo
  Options o;
  o.method = Method::kScalar;
  o.steps = kSteps;
  make_plan(shape2d(kNx, kNy), s, o).execute(g);
  EXPECT_EQ(max_abs_diff(ref, g), 0.0);
}

// ---- resolution and validation ----------------------------------------------

// A tessellated plan writes per-step ghosts through and keeps its temporal
// block; split tiling refreshes them between steps and resolves 1. Under a
// per-step boundary a requested bt is a ceiling: blocks too small for it
// still plan, at the deepest legal bt.
TEST(Boundary, PerStepBoundaryKeepsTheTessellatedTimeBlock) {
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = 16;
  o.bt = 8;
  o.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
  const auto r = resolve_options(shape1d(kNx), 1, o);
  EXPECT_EQ(r.bt, 8);
  EXPECT_EQ(r.boundary.x, Boundary::kPeriodic);  // y/z normalized (rank 1)

  // The tiled unroll&jam row keeps it too (it runs transpose's steps),
  // odd bt included.
  o.method = Method::kTransposeUJ;
  EXPECT_EQ(resolve_options(shape1d(kNx), 1, o).bt, 8);
  o.bt = 5;
  EXPECT_EQ(resolve_options(shape1d(kNx), 1, o).bt, 5);

  // An unset bt resolves like a frozen boundary's (kDefaultBt on 1D).
  o.bt = 0;
  EXPECT_EQ(resolve_options(shape1d(kNx), 1, o).bt, 4);

  // An explicit small block still plans: the deepest legal bt below 8.
  o.bt = 8;
  o.bx = 4;  // 2*r*bt <= 4: bt 2
  EXPECT_EQ(resolve_options(shape1d(kNx), 1, o).bt, 2);
  o.bx = 2;
  EXPECT_EQ(resolve_options(shape1d(kNx), 1, o).bt, 1);
  o.bx = 0;

  // Split tiling refreshes between steps: bt 1.
  Options split = o;
  split.method = Method::kDlt;
  split.tiling = Tiling::kSplit;
  EXPECT_EQ(resolve_options(shape1d(kNx), 1, split).bt, 1);

  // Frozen boundaries keep the user's temporal block.
  o.boundary = BoundarySpec::uniform(Boundary::kZero);
  EXPECT_EQ(resolve_options(shape1d(kNx), 1, o).bt, 8);
}

// ---- deep temporal blocks under per-step boundaries -------------------------
//
// A tessellated plan under a periodic/Neumann axis writes each box's ghost
// images through and tiles its periodic axes as rings, so it runs a deep
// temporal block. The oracle is the step-by-step schedule: fill_ghosts,
// then one untiled step of the same method, repeated. Blocking reorders
// traversal, never arithmetic, so the interiors must match bytewise. The
// cases cover radius 2 (1d5p), corner taps (2d9p, 3d27p), exactly two tiles
// on a wrapped axis, and ragged last tiles that keep their own tile or fold
// into their neighbour; teams of 1 to 3 (f32 on a team of 2).

struct DeepCase {
  const char* what;
  StencilKind kind;
  Shape sh;
  index bx, by, bz, bt;
};

template <typename G>
G deep_test_grid(const Shape& sh) {
  using T = typename G::value_type;
  G g = make_grid<G>({sh.nx, sh.ny, sh.nz}, sh.halo);
  index n = 0;
  // Halo garbage too: the plan's fill must overwrite every ghost it reads.
  for_each_row(g, 1, [&](index y, index z) {
    for (index x = -sh.halo; x < sh.nx + sh.halo; ++x)
      row_at(g, y, z)[x] = static_cast<T>(0.4 + 0.3 * std::sin(0.013 * ++n));
  });
  return g;
}

template <typename G>
bool same_interior_bits(G& a, G& b) {
  bool same = true;
  const Box box = full_box(a);
  for (index z = box.zlo; z < box.zhi; ++z)
    for (index y = box.ylo; y < box.yhi; ++y)
      same = same && std::memcmp(row_at(a, y, z), row_at(b, y, z),
                                 a.nx() * sizeof(typename G::value_type)) == 0;
  return same;
}

template <typename G>
void expect_deep_block_matches_step_loop(const DeepCase& c, Method m,
                                         const BoundarySpec& bc, int team) {
  Options o;
  o.method = m;
  o.tiling = Tiling::kTessellate;
  o.dtype = dtype_of<typename G::value_type>();
  o.steps = 2 * c.bt + 1;  // two whole time blocks and a partial one
  o.bx = c.bx;
  o.by = c.by;
  o.bz = c.bz;
  o.bt = c.bt;
  o.threads = team;
  o.boundary = bc;
  const std::string what = std::string(c.what) + " " + method_name(m) + " " +
                           dtype_name(o.dtype) + " " + boundary_name(bc.x) +
                           "/" + boundary_name(bc.y) + "/" +
                           boundary_name(bc.z) + " team " +
                           std::to_string(team);
  const Plan plan = make_plan(c.sh, c.kind, o);
  ASSERT_EQ(plan.config().bt, c.bt) << what << ": the block must stay deep";
  Options o1;
  o1.method = m;
  o1.dtype = o.dtype;
  o1.steps = 1;
  o1.boundary = bc;
  const Plan step = make_plan(c.sh, c.kind, o1);
  G deep = deep_test_grid<G>(c.sh);
  G loop = deep;
  plan.execute(deep);
  for (index t = 0; t < o.steps; ++t) {
    fill_ghosts(loop, bc, stencil_kind_radius(c.kind));
    step.execute(loop);
  }
  EXPECT_TRUE(same_interior_bits(deep, loop)) << what;
}

TEST(Boundary, DeepTimeBlockMatchesTheStepLoopBytewise) {
  const DeepCase cases[] = {
      {"1d5p two tiles", StencilKind::k1d5p, shape1d(512, 2), 256, 0, 0, 8},
      {"1d5p ragged folds", StencilKind::k1d5p, shape1d(512, 2), 240, 0, 0,
       16},
      {"1d5p ragged ring", StencilKind::k1d5p, shape1d(512, 2), 200, 0, 0,
       12},
      {"2d9p two y tiles", StencilKind::k2d9p, shape2d(256, 37), 100, 19, 0,
       9},
      {"2d9p ragged y folds", StencilKind::k2d9p, shape2d(256, 37), 256, 8,
       0, 3},
      {"3d27p ragged folds", StencilKind::k3d27p, shape3d(256, 13, 14), 128,
       6, 6, 3},
      {"3d27p two z tiles", StencilKind::k3d27p, shape3d(256, 13, 14), 256,
       13, 7, 3},
  };
  const BoundarySpec specs[] = {
      BoundarySpec::uniform(Boundary::kPeriodic),
      BoundarySpec::uniform(Boundary::kNeumann),
      {.x = Boundary::kPeriodic, .y = Boundary::kNeumann,
       .z = Boundary::kZero}};
  int checked = 0;
  for (const DeepCase& c : cases) {
    const int rank = c.sh.rank;
    for (const Capability& cap : capabilities()) {
      if (cap.tiling != Tiling::kTessellate || !cap.supports_rank(rank))
        continue;
      for (Dtype dt : all_dtypes()) {
        if (!cap.supports_dtype(dt)) continue;
        for (const BoundarySpec& bc : specs)
          for (int team = 1; team <= 3; ++team) {
            const bool f32 = dt == Dtype::kF32;
            if (f32 && team != 2) continue;
            switch (rank) {
              case 1:
                f32 ? expect_deep_block_matches_step_loop<Grid1D<float>>(
                          c, cap.method, bc, team)
                    : expect_deep_block_matches_step_loop<Grid1D<double>>(
                          c, cap.method, bc, team);
                break;
              case 2:
                f32 ? expect_deep_block_matches_step_loop<Grid2D<float>>(
                          c, cap.method, bc, team)
                    : expect_deep_block_matches_step_loop<Grid2D<double>>(
                          c, cap.method, bc, team);
                break;
              default:
                f32 ? expect_deep_block_matches_step_loop<Grid3D<float>>(
                          c, cap.method, bc, team)
                    : expect_deep_block_matches_step_loop<Grid3D<double>>(
                          c, cap.method, bc, team);
                break;
            }
            ++checked;
          }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// The z wavefront (tiling/tess.hpp): a 3D tile advances plane v of unit u
// at step v + slope*u. Here z is one wavefront tile (bz = nz) or, when z is
// periodic, a ring of two tiles whose wrap seam sweeps in unrolled order;
// a periodic z left as one tile sweeps each unit whole. Every y axis has
// three tiles with a ragged last one, which a periodic y folds into its
// neighbour. Temporal blocks 1 to 8, teams 1 to 3 (f32 on a team of 2).
TEST(Boundary, ZWavefrontMatchesTheStepLoopBytewise) {
  struct Spec {
    const char* what;
    BoundarySpec bc;
    bool z_ring;  // two z tiles instead of one
  };
  const Spec specs[] = {
      {"zero", BoundarySpec::uniform(Boundary::kZero), false},
      {"neumann", BoundarySpec::uniform(Boundary::kNeumann), false},
      {"mixed",
       {.x = Boundary::kPeriodic, .y = Boundary::kNeumann,
        .z = Boundary::kZero},
       false},
      {"periodic y",
       {.x = Boundary::kZero, .y = Boundary::kPeriodic,
        .z = Boundary::kNeumann},
       false},
      {"periodic z ring", BoundarySpec::uniform(Boundary::kPeriodic), true},
      {"periodic z one tile", BoundarySpec::uniform(Boundary::kPeriodic),
       false},
  };
  int checked = 0;
  for (index bt = 1; bt <= 8; ++bt) {
    const index by = 2 * bt + 1, bz = 2 * bt + 1;
    const StencilKind kind =
        bt % 2 == 0 ? StencilKind::k3d7p : StencilKind::k3d27p;
    for (const Spec& sp : specs) {
      // ny: two whole y tiles and a ragged third; nz: a ring's ragged third
      // tile folds, so it keeps two tiles.
      const index nz = sp.z_ring ? 2 * bz + 1 : bt + 3;
      const DeepCase c{sp.what, kind, shape3d(256, 2 * by + 3, nz), 256, by,
                       sp.z_ring ? bz : nz, bt};
      for (const Capability& cap : capabilities()) {
        if (cap.tiling != Tiling::kTessellate || !cap.supports_rank(3))
          continue;
        for (Dtype dt : all_dtypes()) {
          if (!cap.supports_dtype(dt)) continue;
          for (int team = 1; team <= 3; ++team) {
            if (dt == Dtype::kF32) {
              if (team != 2) continue;
              expect_deep_block_matches_step_loop<Grid3D<float>>(
                  c, cap.method, sp.bc, team);
            } else {
              expect_deep_block_matches_step_loop<Grid3D<double>>(
                  c, cap.method, sp.bc, team);
            }
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(Boundary, AxesBeyondRankAreNormalized) {
  Options o;
  o.steps = 1;
  o.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
  const auto r = resolve_options(shape1d(kNx), 1, o);
  EXPECT_EQ(r.boundary.x, Boundary::kPeriodic);
  EXPECT_EQ(r.boundary.y, Boundary::kDirichlet);
  EXPECT_EQ(r.boundary.z, Boundary::kDirichlet);
}

TEST(Boundary, WrapNeedsExtentAtLeastRadius) {
  Options o;
  o.method = Method::kMultiLoad;  // no layout rule on nx
  o.steps = 1;
  o.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
  EXPECT_THROW(resolve_options(shape1d(1, 2), 2, o), ConfigError);
  EXPECT_NO_THROW(resolve_options(shape1d(2, 2), 2, o));
}

TEST(Boundary, NamesRoundTrip) {
  for (Boundary b : all_boundaries())
    EXPECT_EQ(boundary_from_name(boundary_name(b)), b) << boundary_name(b);
  EXPECT_FALSE(boundary_from_name("open").has_value());
  EXPECT_EQ(all_boundaries().size(), 4u);
}

TEST(Boundary, RegistryMasksAreWellFormed) {
  for (const Capability& c : capabilities()) {
    EXPECT_NE(c.boundary_mask, 0u) << method_name(c.method);
    EXPECT_EQ(c.boundary_mask & ~kAllBoundaries, 0u) << method_name(c.method);
    // Every current row handles every boundary (the fill lives at the plan
    // layer, outside the kernels).
    EXPECT_EQ(c.boundary_mask, kAllBoundaries) << method_name(c.method);
  }
  for (Boundary b : all_boundaries())
    EXPECT_TRUE(supports(Method::kTranspose, Tiling::kTessellate, 2,
                         Isa::kAuto, Dtype::kF64, b))
        << boundary_name(b);
}

// ---- StencilSpec: runtime coefficients --------------------------------------

TEST(StencilSpec, CustomCoefficientsMatchTypedFactory) {
  const Shape shape = shape2d(kNx, kNy);
  Options o;
  o.steps = kSteps;
  o.boundary = BoundarySpec::uniform(Boundary::kPeriodic);

  StencilSpec spec{.kind = StencilKind::k2d5p, .coeffs = {0.42, 0.14, 0.15}};
  Plan erased = make_plan(shape, spec, o);
  auto typed = make_plan(shape, make_2d5p(0.42, 0.14, 0.15), o);

  Grid2D<double> ge(kNx, kNy, 1), gt(kNx, kNy, 1);
  ge.fill(f2<double>);
  gt.fill(f2<double>);
  erased.execute(ge);
  typed.execute(gt);
  EXPECT_EQ(max_abs_diff(ge, gt), 0.0);
}

TEST(StencilSpec, EmptyCoeffsAreFactoryDefaults) {
  const Shape shape = shape1d(kNx);
  Plan a = make_plan(shape, StencilSpec{.kind = StencilKind::k1d3p}, {});
  Plan b = make_plan(shape, StencilKind::k1d3p, {});
  Grid1D<double> ga(kNx, 1), gb(kNx, 1);
  ga.fill(f1<double>);
  gb.fill(f1<double>);
  a.execute(ga);
  b.execute(gb);
  EXPECT_EQ(max_abs_diff(ga, gb), 0.0);
}

TEST(StencilSpec, ValidationThrowsStructuredErrors) {
  const Shape shape = shape1d(kNx);
  // Wrong coefficient count.
  EXPECT_THROW(make_plan(shape, StencilSpec{.kind = StencilKind::k1d3p,
                                            .coeffs = {0.1, 0.2}},
                         {}),
               ConfigError);
  // Radius cross-check.
  EXPECT_THROW(
      make_plan(shape, StencilSpec{.kind = StencilKind::k1d3p, .radius = 2},
                {}),
      ConfigError);
  EXPECT_NO_THROW(
      make_plan(shape, StencilSpec{.kind = StencilKind::k1d3p, .radius = 1},
                {}));
}

TEST(StencilSpec, KindHelpersAreConsistent) {
  for (StencilKind k : {StencilKind::k1d3p, StencilKind::k1d5p,
                        StencilKind::k2d5p, StencilKind::k2d9p,
                        StencilKind::k3d7p, StencilKind::k3d27p}) {
    EXPECT_EQ(stencil_kind_from_name(stencil_kind_name(k)), k);
    EXPECT_GE(stencil_kind_rank(k), 1);
    EXPECT_LE(stencil_kind_rank(k), 3);
    EXPECT_GE(stencil_kind_coeff_count(k), 1u);
  }
  EXPECT_EQ(stencil_kind_radius(StencilKind::k1d5p), 2);
  EXPECT_FALSE(stencil_kind_from_name("4d2p").has_value());
}

}  // namespace
}  // namespace tsv
