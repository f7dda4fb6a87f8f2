// Property-based suites, parameterized over (method, tiling, size, steps).
//
// These pin down *mathematical invariants* of the Jacobi stencil operator
// that every implementation must preserve regardless of layout or schedule:
//   * agreement with the scalar reference (the master property),
//   * linearity in the input field,
//   * fixed point on constant fields when the weights sum to one,
//   * translation equivariance away from the boundary,
//   * determinism (bitwise-identical repeated runs),
//   * halo immutability.
//
// The file ends with two seeded randomized DIFFERENTIAL FUZZERS: the first
// draws (method, tiling, rank, dtype, boundary, shape, blocks, steps,
// coeffs) tuples from the capability registry for the compiled Table-1
// kinds; the second draws the stencil SHAPE itself — random GenericStencil
// tap sets (star, box, asymmetric; radius <= 3; random weights; optional
// per-cell coefficient field) — and runs them through the register-blocked
// interpreter (Method::kGeneric). Each tuple executes through the
// rank-erased plan path and is checked against the boundary-aware scalar
// oracle. The seed is deterministic (override with TSV_FUZZ_SEED; the
// nightly job also raises the tuple budget with TSV_FUZZ_TUPLES) and is
// printed with every failure, so any found divergence replays exactly.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace tsv {
namespace {

struct MethodCase {
  Method method;
  Tiling tiling;
};

std::string case_name(const MethodCase& c) {
  std::string s = method_name(c.method);
  if (c.tiling != Tiling::kNone) {
    s += "_";
    s += tiling_name(c.tiling);
  }
  for (auto& ch : s)
    if (ch == '-') ch = '_';
  return s;
}

Options make_options(const MethodCase& c, index steps) {
  Options o;
  o.method = c.method;
  o.tiling = c.tiling;
  o.isa = best_isa();
  o.steps = steps;
  o.bx = 128;
  o.by = 16;
  o.bz = 16;
  o.bt = 4;
  o.threads = 4;
  return o;
}

double noise1(index x) { return std::sin(0.21 * x) * std::cos(0.047 * x); }

// ---------------------------------------------------------------------------
// 1D property suite.
// ---------------------------------------------------------------------------

using Params1D = std::tuple<MethodCase, index /*nx*/, index /*steps*/>;

class Property1D : public ::testing::TestWithParam<Params1D> {
 protected:
  MethodCase method() const { return std::get<0>(GetParam()); }
  index nx() const { return std::get<1>(GetParam()); }
  index steps() const { return std::get<2>(GetParam()); }

  template <typename F>
  Grid1D<double> run_on(F&& init, const Stencil1D<1>& s) const {
    Grid1D<double> g(nx(), 1);
    g.fill(init);
    run(g, s, make_options(method(), steps()));
    return g;
  }
};

TEST_P(Property1D, MatchesScalarReference) {
  const auto s = make_1d3p(0.31);
  Grid1D<double> ref(nx(), 1);
  ref.fill(noise1);
  reference_run(ref, s, steps());
  const Grid1D<double> got = run_on(noise1, s);
  EXPECT_LE(max_abs_diff(ref, got), 1e-11);
}

TEST_P(Property1D, LinearInInput) {
  const auto s = make_1d3p(0.27);
  auto f = [](index x) { return noise1(x); };
  auto g = [](index x) { return 0.3 * std::cos(0.11 * x) + 0.001 * x; };
  const double a = 1.75;
  const Grid1D<double> rf = run_on(f, s);
  const Grid1D<double> rg = run_on(g, s);
  const Grid1D<double> rsum =
      run_on([&](index x) { return a * f(x) + g(x); }, s);
  for (index x = 0; x < nx(); ++x)
    EXPECT_NEAR(rsum.at(x), a * rf.at(x) + rg.at(x), 1e-10) << "x=" << x;
}

TEST_P(Property1D, ConstantFieldIsFixedPoint) {
  const auto s = make_1d3p(1.0 / 3.0);  // weights sum to 1
  const Grid1D<double> r = run_on([](index) { return 5.5; }, s);
  for (index x = 0; x < nx(); ++x) EXPECT_NEAR(r.at(x), 5.5, 1e-11);
}

TEST_P(Property1D, Deterministic) {
  const auto s = make_1d3p(0.29);
  const Grid1D<double> a = run_on(noise1, s);
  const Grid1D<double> b = run_on(noise1, s);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);  // bitwise identical
}

TEST_P(Property1D, HaloUntouched) {
  const auto s = make_1d3p(0.31);
  Grid1D<double> g(nx(), 1);
  g.fill(noise1);
  const double left = g.at(-1), right = g.at(nx());
  run(g, s, make_options(method(), steps()));
  EXPECT_EQ(g.at(-1), left);
  EXPECT_EQ(g.at(nx()), right);
}

TEST_P(Property1D, ZeroStepsIsIdentity) {
  const auto s = make_1d3p(0.31);
  Grid1D<double> g(nx(), 1), orig(nx(), 1);
  g.fill(noise1);
  orig.fill(noise1);
  run(g, s, make_options(method(), 0));
  EXPECT_EQ(max_abs_diff(orig, g), 0.0);
}

const MethodCase kUntiled1D[] = {
    {Method::kAutoVec, Tiling::kNone},   {Method::kMultiLoad, Tiling::kNone},
    {Method::kReorg, Tiling::kNone},     {Method::kDlt, Tiling::kNone},
    {Method::kTranspose, Tiling::kNone}, {Method::kTransposeUJ, Tiling::kNone},
    {Method::kAutoVec, Tiling::kTessellate},
    {Method::kReorg, Tiling::kTessellate},
    {Method::kTranspose, Tiling::kTessellate},
    {Method::kTransposeUJ, Tiling::kTessellate},
    {Method::kDlt, Tiling::kSplit},
};

INSTANTIATE_TEST_SUITE_P(
    Methods, Property1D,
    ::testing::Combine(::testing::ValuesIn(kUntiled1D),
                       ::testing::Values<index>(256, 448),
                       ::testing::Values<index>(1, 6)),
    [](const ::testing::TestParamInfo<Params1D>& info) {
      return case_name(std::get<0>(info.param)) + "_nx" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// 2D property suite.
// ---------------------------------------------------------------------------

using Params2D = std::tuple<MethodCase, index /*steps*/>;

class Property2D : public ::testing::TestWithParam<Params2D> {
 protected:
  static constexpr index kNx = 128, kNy = 24;
  MethodCase method() const { return std::get<0>(GetParam()); }
  index steps() const { return std::get<1>(GetParam()); }
};

TEST_P(Property2D, MatchesScalarReferenceStar) {
  const auto s = make_2d5p(0.42, 0.15, 0.14);
  Grid2D<double> ref(kNx, kNy, 1), got(kNx, kNy, 1);
  auto init = [](index x, index y) { return noise1(x + 31 * y); };
  ref.fill(init);
  got.fill(init);
  reference_run(ref, s, steps());
  run(got, s, make_options(method(), steps()));
  EXPECT_LE(max_abs_diff(ref, got), 1e-11);
}

TEST_P(Property2D, MatchesScalarReferenceBox) {
  const auto s = make_2d9p(0.18, 0.12, 0.05);
  Grid2D<double> ref(kNx, kNy, 1), got(kNx, kNy, 1);
  auto init = [](index x, index y) { return noise1(3 * x - 7 * y); };
  ref.fill(init);
  got.fill(init);
  reference_run(ref, s, steps());
  run(got, s, make_options(method(), steps()));
  EXPECT_LE(max_abs_diff(ref, got), 1e-11);
}

TEST_P(Property2D, TranslationEquivariantInY) {
  const auto s = make_2d5p(0.42, 0.15, 0.14);
  auto f = [](index x, index y) { return noise1(x + 13 * y); };
  Grid2D<double> a(kNx, kNy, 1), b(kNx, kNy, 1);
  a.fill([&](index x, index y) { return f(x, y); });
  b.fill([&](index x, index y) { return f(x, y + 2); });
  run(a, s, make_options(method(), steps()));
  run(b, s, make_options(method(), steps()));
  const index margin = 2 + static_cast<index>(steps());
  for (index y = margin; y < kNy - margin - 2; ++y)
    for (index x = 0; x < kNx; ++x)
      EXPECT_NEAR(b.at(x, y), a.at(x, y + 2), 1e-10)
          << "(" << x << "," << y << ")";
}

const MethodCase kCases2D[] = {
    {Method::kAutoVec, Tiling::kNone},
    {Method::kMultiLoad, Tiling::kNone},
    {Method::kReorg, Tiling::kNone},
    {Method::kDlt, Tiling::kNone},
    {Method::kTranspose, Tiling::kNone},
    {Method::kTransposeUJ, Tiling::kNone},
    {Method::kAutoVec, Tiling::kTessellate},
    {Method::kTranspose, Tiling::kTessellate},
    {Method::kTransposeUJ, Tiling::kTessellate},
    {Method::kDlt, Tiling::kSplit},
};

INSTANTIATE_TEST_SUITE_P(
    Methods, Property2D,
    ::testing::Combine(::testing::ValuesIn(kCases2D),
                       ::testing::Values<index>(1, 4)),
    [](const ::testing::TestParamInfo<Params2D>& info) {
      return case_name(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// 3D property suite.
// ---------------------------------------------------------------------------

class Property3D : public ::testing::TestWithParam<Params2D> {
 protected:
  static constexpr index kNx = 64, kNy = 12, kNz = 10;
  MethodCase method() const { return std::get<0>(GetParam()); }
  index steps() const { return std::get<1>(GetParam()); }
};

TEST_P(Property3D, MatchesScalarReferenceStar) {
  const auto s = make_3d7p(0.4, 0.11, 0.09, 0.1);
  Grid3D<double> ref(kNx, kNy, kNz, 1), got(kNx, kNy, kNz, 1);
  auto init = [](index x, index y, index z) {
    return noise1(x + 17 * y - 5 * z);
  };
  ref.fill(init);
  got.fill(init);
  reference_run(ref, s, steps());
  run(got, s, make_options(method(), steps()));
  EXPECT_LE(max_abs_diff(ref, got), 1e-11);
}

TEST_P(Property3D, MatchesScalarReferenceBox) {
  const auto s = make_3d27p(0.11);
  Grid3D<double> ref(kNx, kNy, kNz, 1), got(kNx, kNy, kNz, 1);
  auto init = [](index x, index y, index z) {
    return noise1(2 * x - 3 * y + 11 * z);
  };
  ref.fill(init);
  got.fill(init);
  reference_run(ref, s, steps());
  run(got, s, make_options(method(), steps()));
  EXPECT_LE(max_abs_diff(ref, got), 1e-11);
}

TEST_P(Property3D, ConstantFixedPoint) {
  const auto s = make_3d7p(0.4, 0.1, 0.1, 0.1);  // sums to 1
  Grid3D<double> g(kNx, kNy, kNz, 1);
  g.fill([](index, index, index) { return -2.25; });
  run(g, s, make_options(method(), steps()));
  for (index z = 0; z < kNz; ++z)
    for (index y = 0; y < kNy; ++y)
      for (index x = 0; x < kNx; ++x)
        EXPECT_NEAR(g.at(x, y, z), -2.25, 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, Property3D,
    ::testing::Combine(::testing::ValuesIn(kCases2D),
                       ::testing::Values<index>(1, 4)),
    [](const ::testing::TestParamInfo<Params2D>& info) {
      return case_name(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Tiling-parameter sweep: tiled result must not depend on the blocking.
// ---------------------------------------------------------------------------

using TileParams = std::tuple<index /*bx*/, index /*bt*/>;

class TilingInvariance : public ::testing::TestWithParam<TileParams> {};

TEST_P(TilingInvariance, ResultIndependentOfBlocking) {
  const auto [bx, bt] = GetParam();
  const index nx = 512;
  const auto s = make_1d3p(0.3);
  Grid1D<double> ref(nx, 1);
  ref.fill(noise1);
  reference_run(ref, s, 12);

  for (Method m : {Method::kTranspose, Method::kTransposeUJ}) {
    Grid1D<double> g(nx, 1);
    g.fill(noise1);
    Options o;
    o.method = m;
    o.tiling = Tiling::kTessellate;
    o.isa = best_isa();
    o.steps = 12;
    o.bx = bx;
    o.bt = bt;
    o.threads = 3;
    run(g, s, o);
    EXPECT_LE(max_abs_diff(ref, g), 1e-11)
        << method_name(m) << " bx=" << bx << " bt=" << bt;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, TilingInvariance,
    ::testing::Combine(::testing::Values<index>(64, 128, 256, 512),
                       ::testing::Values<index>(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<TileParams>& info) {
      return "bx" + std::to_string(std::get<0>(info.param)) + "_bt" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Blocked == step-sliced == polled. Blocking reorders traversal, never
// arithmetic: a plan with bt > 1 must be bit-identical to its steps run one
// at a time (a loop of 1-step plans), and a run polled by an active
// ExecControl to the plain run. Plain and polled runs execute the same
// bound driver, whose block hook is inert on the plain run. Tile rims move
// cells between a kernel's vector and scalar paths, so any kernel whose
// two paths sum taps in a different order breaks it. Every (method,
// tiling, rank, runnable ISA, dtype) the registry claims, with a Dirichlet
// boundary; the tiled rows with bt > 1 and an x block that is no multiple
// of any vector width (split tiling blocks its one axis with the same
// fields).
// ---------------------------------------------------------------------------

template <typename G>
G sliced_test_grid(const Shape& sh) {
  using T = typename G::value_type;
  G g = make_grid<G>({sh.nx, sh.ny, sh.nz}, sh.halo);
  auto v = [](index lin) {
    return static_cast<T>(0.4 + 0.3 * std::sin(0.017 * double(lin)));
  };
  if constexpr (G::kRank == 1)
    g.fill([&](index x) { return v(x); });
  else if constexpr (G::kRank == 2)
    g.fill([&](index x, index y) { return v(x + 613 * y); });
  else
    g.fill([&](index x, index y, index z) { return v(x + 613 * y + 71 * z); });
  return g;
}

template <typename T>
void expect_sliced_equals_blocked(const Shape& sh, StencilKind kind,
                                  const Options& o, const std::string& what) {
  const Plan plan = make_plan(sh, kind, o);
  Options o1 = o;
  o1.steps = 1;
  const Plan step = make_plan(sh, kind, o1);
  auto check = [&](auto blocked) {
    auto sliced = blocked, polled = blocked;
    Workspace ws;
    plan.execute(blocked, ws);
    for (index t = 0; t < o.steps; ++t) step.execute(sliced, ws);
    EXPECT_EQ(max_abs_diff(blocked, sliced), T(0)) << what << " sliced";
    ExecControl far;  // active, but never fires
    far.deadline = ExecControl::Clock::now() + std::chrono::hours(1);
    plan.execute(polled, ws, &far);
    EXPECT_EQ(max_abs_diff(blocked, polled), T(0)) << what << " polled";
  };
  switch (sh.rank) {
    case 1: check(sliced_test_grid<Grid1D<T>>(sh)); break;
    case 2: check(sliced_test_grid<Grid2D<T>>(sh)); break;
    default: check(sliced_test_grid<Grid3D<T>>(sh)); break;
  }
}

TEST(BlockedVsSliced, EveryConfigIsBitIdentical) {
  const StencilKind kinds[] = {StencilKind::k1d3p, StencilKind::k1d5p,
                               StencilKind::k2d5p, StencilKind::k2d9p,
                               StencilKind::k3d7p, StencilKind::k3d27p};
  std::size_t rows_checked = 0;
  for (const Capability& cap : capabilities()) {
    int checked = 0;
    for (StencilKind kind : kinds) {
      const int rank = stencil_kind_rank(kind);
      const int radius = stencil_kind_radius(kind);
      if (!cap.supports_rank(rank)) continue;
      const Shape sh = rank == 1   ? shape1d(1024, radius)
                       : rank == 2 ? shape2d(512, 37, radius)
                                   : shape3d(256, 13, 19, radius);
      for (Dtype dt : all_dtypes()) {
        if (!cap.supports_dtype(dt)) continue;
        for (Isa isa : runnable_isas()) {
          Options o;
          o.method = cap.method;
          o.tiling = cap.tiling;
          o.isa = isa;
          o.dtype = dt;
          o.steps = 8;
          if (cap.tiling != Tiling::kNone) {
            o.bx = 101;  // odd: tile rims cut through every vector width
            o.by = 13;
            o.bz = 9;
            o.bt = 4;
            o.threads = 2;
          }
          const std::string what =
              std::string(method_name(cap.method)) + " " +
              tiling_name(cap.tiling) + " " + stencil_kind_name(kind) + " " +
              isa_name(isa) + " " + dtype_name(dt);
          if (dt == Dtype::kF32)
            expect_sliced_equals_blocked<float>(sh, kind, o, what);
          else
            expect_sliced_equals_blocked<double>(sh, kind, o, what);
          ++checked;
        }
      }
    }
    rows_checked += checked > 0;
  }
  // Every registry row ran, the untiled and split ones included.
  EXPECT_EQ(rows_checked, capabilities().size());
}

// ---------------------------------------------------------------------------
// Held layout under a per-step boundary. A periodic/Neumann axis keeps the
// ghosts current inside the driver's layout (x ghosts through the layout's
// index map, y/z ghost rows by whole-row copies) while the run makes one
// driver call: untiled and split plans refresh them between steps,
// tessellated plans write each box's images through. The oracle is the
// schedule that re-entered the driver every step: fill_ghosts on the grid
// in original layout, then a 1-step plan, repeated. Every capability, rank,
// dtype and runnable ISA, under periodic, Neumann and mixed axes, with
// diagonal taps (2d9p, 3d27p) so corner ghosts are read, and radius 2 in
// 1D so the map covers more than one ghost cell.
// ---------------------------------------------------------------------------

template <typename G>
void expect_held_layout_matches_step_loop(const Shape& sh, StencilKind kind,
                                          const Options& o,
                                          const std::string& what) {
  const Plan plan = make_plan(sh, kind, o);
  Options o1 = o;
  o1.steps = 1;
  const Plan step = make_plan(sh, kind, o1);
  G held = sliced_test_grid<G>(sh);
  G loop = held;
  plan.execute(held);
  for (index t = 0; t < o.steps; ++t) {
    fill_ghosts(loop, o.boundary, stencil_kind_radius(kind));
    step.execute(loop);
  }
  EXPECT_EQ(max_abs_diff(held, loop), 0) << what;
}

TEST(HeldLayout, PerStepBoundaryMatchesAManualStepLoop) {
  const BoundarySpec specs[] = {
      BoundarySpec::uniform(Boundary::kPeriodic),
      BoundarySpec::uniform(Boundary::kNeumann),
      {.x = Boundary::kNeumann, .y = Boundary::kPeriodic, .z = Boundary::kZero}};
  int checked = 0;
  for (const Capability& cap : capabilities()) {
    for (StencilKind kind :
         {StencilKind::k1d5p, StencilKind::k2d9p, StencilKind::k3d27p}) {
      const int rank = stencil_kind_rank(kind);
      if (!cap.supports_rank(rank)) continue;
      const index halo = stencil_kind_radius(kind);
      const Shape sh = rank == 1   ? shape1d(512, halo)
                       : rank == 2 ? shape2d(256, 13, halo)
                                   : shape3d(256, 7, 9, halo);
      for (Dtype dt : all_dtypes()) {
        if (!cap.supports_dtype(dt)) continue;
        for (Isa isa : runnable_isas())
          for (const BoundarySpec& bc : specs) {
            Options o;
            o.method = cap.method;
            o.tiling = cap.tiling;
            o.isa = isa;
            o.dtype = dt;
            o.steps = 5;
            o.bx = 128;
            o.by = 5;
            o.bz = 4;
            o.threads = 2;
            o.boundary = bc;
            const std::string what =
                std::string(method_name(cap.method)) + "+" +
                tiling_name(cap.tiling) + " " + stencil_kind_name(kind) +
                " " + isa_name(isa) + " " + dtype_name(dt) + " " +
                boundary_name(bc.x) + "/" + boundary_name(bc.y) + "/" +
                boundary_name(bc.z);
            const bool f32 = dt == Dtype::kF32;
            switch (rank) {
              case 1:
                f32 ? expect_held_layout_matches_step_loop<Grid1D<float>>(
                          sh, kind, o, what)
                    : expect_held_layout_matches_step_loop<Grid1D<double>>(
                          sh, kind, o, what);
                break;
              case 2:
                f32 ? expect_held_layout_matches_step_loop<Grid2D<float>>(
                          sh, kind, o, what)
                    : expect_held_layout_matches_step_loop<Grid2D<double>>(
                          sh, kind, o, what);
                break;
              default:
                f32 ? expect_held_layout_matches_step_loop<Grid3D<float>>(
                          sh, kind, o, what)
                    : expect_held_layout_matches_step_loop<Grid3D<double>>(
                          sh, kind, o, what);
                break;
            }
            ++checked;
          }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Default blocks == one tile. The cache-fit default tiles y (and a periodic
// z) of grids whose two buffers exceed half the per-thread L2. Blocking reorders the
// traversal, never the arithmetic, so a default-block plan must be
// bit-identical to the explicit one-tile plan (by = ny, bz = nz). Grids are
// sized from the detected L2 so the default is multi-tile on any host.
// ---------------------------------------------------------------------------

template <typename T>
void expect_default_equals_one_tile(const Shape& sh, StencilKind kind,
                                    Options o, const std::string& what) {
  const Plan dflt = make_plan(sh, kind, o);
  EXPECT_LT(dflt.config().by, sh.ny) << what << ": the default must tile y";
  // z is one wavefront tile, or a ring of two tiles when periodic.
  if (sh.rank >= 3 && o.boundary.z == Boundary::kPeriodic)
    EXPECT_LT(dflt.config().bz, sh.nz) << what << ": a z ring must tile z";
  else if (sh.rank >= 3)
    EXPECT_EQ(dflt.config().bz, sh.nz) << what << ": z must be one tile";
  o.by = sh.ny;
  o.bz = sh.rank >= 3 ? sh.nz : 0;
  const Plan one_tile = make_plan(sh, kind, o);
  auto check = [&](auto a) {
    auto b = a;
    Workspace ws;
    dflt.execute(a, ws);
    one_tile.execute(b, ws);
    EXPECT_EQ(max_abs_diff(a, b), T(0)) << what;
  };
  if (sh.rank == 2)
    check(sliced_test_grid<Grid2D<T>>(sh));
  else
    check(sliced_test_grid<Grid3D<T>>(sh));
}

TEST(DefaultBlocks, BitIdenticalToOneTile) {
  int checked = 0;
  for (const Capability& cap : capabilities()) {
    if (cap.tiling != Tiling::kTessellate) continue;
    for (StencilKind kind : {StencilKind::k2d9p, StencilKind::k3d7p}) {
      const int rank = stencil_kind_rank(kind);
      const int radius = stencil_kind_radius(kind);
      if (!cap.supports_rank(rank)) continue;
      for (Dtype dt : all_dtypes()) {
        if (!cap.supports_dtype(dt)) continue;
        const index budget =
            cache_fit_elems(cpu_info().l2_bytes, dtype_size(dt), 0.5);
        // nx = 256 is legal for every layout rule; y/z span about three
        // default tiles plus a ragged remainder.
        index side = 1;
        while (256 * (side + 1) * (side + 1) <= budget) ++side;
        const Shape sh = rank == 2 ? shape2d(256, 3 * budget / 256 + 7, radius)
                                   : shape3d(256, 3 * side + 5, 3 * side + 3,
                                             radius);
        for (Boundary bc : {Boundary::kZero, Boundary::kPeriodic}) {
          if (!cap.supports_boundary(bc)) continue;
          Options o;
          o.method = cap.method;
          o.tiling = cap.tiling;
          o.dtype = dt;
          o.steps = 6;
          o.threads = 2;
          o.boundary = BoundarySpec::uniform(bc);
          const std::string what = std::string(method_name(cap.method)) +
                                   " " + stencil_kind_name(kind) + " " +
                                   dtype_name(dt) + " " + boundary_name(bc);
          if (dt == Dtype::kF32)
            expect_default_equals_one_tile<float>(sh, kind, o, what);
          else
            expect_default_equals_one_tile<double>(sh, kind, o, what);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Default temporal block. An unset bt on a 2D/3D tessellated plan whose
// y/z blocks come from the L2 budget resolves to the deepest block — at
// most steps, at least 4 — whose legal tile (2D) or z wavefront window
// (3D) keeps both buffers in the whole per-thread L2. Asserted on
// resolved fields only, never on timing.
// ---------------------------------------------------------------------------

/// Bytes of the two parity regions of @p r's tile.
index tile_bytes(const ResolvedOptions& r, int rank) {
  return r.bx * (rank >= 2 ? r.by : 1) * (rank >= 3 ? r.bz : 1) * 2 *
         dtype_size(r.dtype);
}

/// Bytes that @p r's tile keeps in cache: the tile's two parity regions
/// (ranks 1-2), or in 3D the z wavefront's window of both buffers,
/// R*(bt + 1) + 1 planes of by + 2R rows.
index window_bytes(const ResolvedOptions& r, int radius) {
  return r.bx * (r.by + 2 * radius) * (radius * (r.bt + 1) + 1) * 2 *
         dtype_size(r.dtype);
}
index fit_bytes(const ResolvedOptions& r, int rank) {
  return rank == 3 ? window_bytes(r, 1) : tile_bytes(r, rank);
}

/// True when every block of @p r is positive and every multi-tile axis
/// meets the 2*slope*tau floor (shrinking triangles must not invert).
bool tile_legal(const Shape& sh, int radius, const ResolvedOptions& r) {
  const index floor = tess_min_block(radius, r.bt);
  const index n[3] = {sh.nx, sh.ny, sh.nz}, b[3] = {r.bx, r.by, r.bz};
  for (int a = 0; a < sh.rank; ++a)
    if (b[a] <= 0 || (b[a] < n[a] && b[a] < floor)) return false;
  return true;
}

TEST(DefaultBlocks, DefaultTimeBlockIsDeepestThatFits) {
  const index l2 = cpu_info().l2_bytes;
  struct Case {
    const char* what;
    Shape sh;
    Method method;
    index steps;
  };
  const Case cases[] = {
      {"solve_dram 3d7p uj2", shape3d(320, 288, 288), Method::kTransposeUJ, 8},
      {"serve_tiled 2d uj2", shape2d(1024, 512), Method::kTransposeUJ, 32},
      {"3d single-step", shape3d(512, 96, 96), Method::kTranspose, 40},
      {"2d single-step", shape2d(2048, 512), Method::kTranspose, 40},
      {"2d uj2, odd steps", shape2d(1024, 384), Method::kTransposeUJ, 13},
  };
  for (const Case& c : cases) {
    Options o;
    o.method = c.method;
    o.tiling = Tiling::kTessellate;
    o.steps = c.steps;
    o.threads = 1;
    const ResolvedOptions r = resolve_options(c.sh, 1, o);
    EXPECT_TRUE(tile_legal(c.sh, 1, r)) << c.what;
    EXPECT_LE(fit_bytes(r, c.sh.rank), l2) << c.what;
    EXPECT_GE(r.bt, 4) << c.what;
    EXPECT_LE(r.bt, c.steps) << c.what;
    // The next deeper block is past steps or its tile does not fit.
    Options deeper = o;
    deeper.bt = r.bt + 1;
    if (deeper.bt <= c.steps)
      EXPECT_GT(fit_bytes(resolve_options(c.sh, 1, deeper), c.sh.rank), l2)
          << c.what << ": bt " << deeper.bt << " also fits";
    // An explicit bt is kept. A periodic plan writes its ghosts through:
    // its block is as deep as this one or deeper, legal, and its tile fits.
    Options pinned = o;
    pinned.bt = 6;
    EXPECT_EQ(resolve_options(c.sh, 1, pinned).bt, 6) << c.what;
    Options periodic = o;
    periodic.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
    const ResolvedOptions rp = resolve_options(c.sh, 1, periodic);
    EXPECT_GE(rp.bt, r.bt) << c.what;
    EXPECT_LE(rp.bt, c.steps) << c.what;
    EXPECT_TRUE(tile_legal(c.sh, 1, rp)) << c.what;
    EXPECT_LE(fit_bytes(rp, c.sh.rank), l2) << c.what;
  }

  // A grid whose two buffers fit half the L2 stays one tile and keeps 4.
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = 40;
  const index budget = cache_fit_elems(l2, 8, 0.5);
  const Shape small = shape2d(256, budget / 256);
  const ResolvedOptions rs = resolve_options(small, 1, o);
  EXPECT_EQ(rs.by, small.ny);
  EXPECT_EQ(rs.bt, 4);

  // The benchmark plans on a 2 MiB L2: solve_dram one 8-step block of nine
  // 32-row y tiles, each a z wavefront over all 288 planes; serve_tiled's
  // plans one 32-step block of 64-row tiles, periodic ones included.
  if (l2 == index{2} << 20) {
    Options solve;
    solve.method = Method::kTransposeUJ;
    solve.tiling = Tiling::kTessellate;
    solve.steps = 8;
    solve.threads = 3;
    solve.boundary = BoundarySpec::uniform(Boundary::kZero);
    const ResolvedOptions rd = resolve_options(shape3d(320, 288, 288), 1, solve);
    EXPECT_EQ(rd.bt, 8);
    EXPECT_EQ(rd.by, 32);
    EXPECT_EQ(rd.bz, 288);
    Options serve = solve;
    serve.steps = 32;
    serve.threads = 0;
    serve.max_threads = 1;
    const ResolvedOptions rt = resolve_options(shape2d(1024, 512), 1, serve);
    EXPECT_EQ(rt.bt, 32);
    EXPECT_EQ(rt.by, 64);
    serve.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
    EXPECT_EQ(resolve_options(shape2d(1024, 512), 1, serve).bt, 32);
  }
}

// A 3D tile sweeps z as a wavefront (tiling/tess.hpp), so a default 3D
// plan keeps z one tile (two ring tiles when z is periodic) and gives y the
// largest block whose wavefront window — R*(bt + 1) + 1 planes of by + 2R
// rows of both buffers — fits the per-thread L2, in the fewest tiles that
// are a multiple of `threads`. fig9's smoke grid (512 x 32 x 8) and
// solve_dram's shape; the small one also runs bytewise equal to one tile.
TEST(DefaultBlocks, ZIsOneWavefrontTile) {
  const index l2 = cpu_info().l2_bytes;
  struct Case {
    Shape sh;
    int threads;
  };
  for (const Case& c : {Case{shape3d(512, 32, 8, 1), 2},
                        Case{shape3d(320, 288, 288, 1), 3}}) {
    const Shape& sh = c.sh;
    const std::string what = std::to_string(sh.nx) + "x" +
                             std::to_string(sh.ny) + "x" +
                             std::to_string(sh.nz);
    Options o;
    o.method = Method::kTranspose;
    o.tiling = Tiling::kTessellate;
    o.steps = 6;
    o.threads = c.threads;
    const ResolvedOptions r = resolve_options(sh, 1, o);
    const index budget = cache_fit_elems(l2, 8, 0.5);
    if (sh.nx * sh.ny * sh.nz <= budget) {
      EXPECT_EQ(r.by, sh.ny) << what << ": a grid that fits stays one tile";
      EXPECT_EQ(r.bz, sh.nz) << what;
      continue;
    }
    EXPECT_EQ(r.bz, sh.nz) << what;
    const index min_block = tess_min_block(1, r.bt);
    EXPECT_GE(r.by, min_block) << what;
    if (r.by > min_block) {
      EXPECT_LE(window_bytes(r, 1), l2) << what << ": the window must fit";
      const index tiles = tile_count(sh.ny, r.by);
      EXPECT_EQ(tiles % c.threads, 0) << what << ": " << tiles << " tiles";
      if (tiles > c.threads) {
        ResolvedOptions wider = r;  // the next smaller balanced tile count
        wider.by = (sh.ny + tiles - c.threads - 1) / (tiles - c.threads);
        EXPECT_GT(window_bytes(wider, 1), l2)
            << what << ": " << tiles - c.threads << " tiles also fit";
      }
    }
    Options periodic = o;
    periodic.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
    const ResolvedOptions rp = resolve_options(sh, 1, periodic);
    if (sh.nz >= 2 * tess_min_block(1, rp.bt))
      EXPECT_EQ(tile_count(sh.nz, rp.bz), 2) << what << ": two ring tiles";
    if (sh.nz > 8) continue;  // the bytewise run only on the small grid
    o.by = sh.ny;
    o.bz = sh.nz;
    const Plan dflt = make_plan(sh, StencilKind::k3d7p, [&] {
      Options d = o;
      d.by = d.bz = 0;
      return d;
    }());
    const Plan one_tile = make_plan(sh, StencilKind::k3d7p, o);
    Grid3D<double> a = sliced_test_grid<Grid3D<double>>(sh), b = a;
    Workspace ws;
    dflt.execute(a, ws);
    one_tile.execute(b, ws);
    EXPECT_EQ(max_abs_diff(a, b), 0.0) << what;
  }
  // One wavefront step holds planes v .. v - R*(bt - 1) and their reads, so
  // a wider stencil's window is R*(bt + 1) + 1 planes deep: a deepened
  // default bt keeps that window in the L2 (generic radii go up to 3).
  for (int radius : {2, 3})
    for (index nx : {64, 128, 256, 320}) {
      Options o;
      o.method = Method::kTranspose;
      o.tiling = Tiling::kTessellate;
      o.steps = 8;
      o.threads = 3;
      const ResolvedOptions r =
          resolve_options(shape3d(nx, 288, 288, radius), radius, o);
      if (r.bt > 4)  // deepened past the default of 4
        EXPECT_LE(window_bytes(r, radius), l2)
            << "radius " << radius << ", nx " << nx << ", bt " << r.bt;
    }
}

// serve_tiled's periodic plans (2d5p and 2d9p, 1024 x 512, transpose-uj2,
// 32 steps, one thread) resolve the temporal block and tiles of their
// zero-boundary siblings on a 2 MiB L2; on any L2 their block is at least
// as deep, legal, and fits. Resolved fields only.
TEST(DefaultBlocks, PeriodicServePlansMatchZeroSiblings) {
  const Shape sh = shape2d(1024, 512);
  for (StencilKind kind : {StencilKind::k2d5p, StencilKind::k2d9p}) {
    Options o;
    o.method = Method::kTransposeUJ;
    o.tiling = Tiling::kTessellate;
    o.steps = 32;
    o.max_threads = 1;
    o.boundary = BoundarySpec::uniform(Boundary::kZero);
    const ResolvedOptions zero = make_plan(sh, kind, o).config();
    o.boundary = BoundarySpec::uniform(Boundary::kPeriodic);
    const ResolvedOptions periodic = make_plan(sh, kind, o).config();
    const char* what = stencil_kind_name(kind);
    EXPECT_EQ(periodic.threads, 1) << what;
    EXPECT_GE(periodic.bt, zero.bt) << what;
    EXPECT_TRUE(tile_legal(sh, stencil_kind_radius(kind), periodic)) << what;
    EXPECT_LE(tile_bytes(periodic, 2), cpu_info().l2_bytes) << what;
    if (cpu_info().l2_bytes == index{2} << 20) {
      EXPECT_EQ(periodic.bt, 32) << what;
      EXPECT_EQ(periodic.bt, zero.bt) << what;
      EXPECT_EQ(periodic.bx, zero.bx) << what;
      EXPECT_EQ(periodic.by, zero.by) << what;
      EXPECT_EQ(periodic.by, 64) << what;
    }
  }
}

// No default tessellated plan throws: ranks 2 and 3, both dtypes, the
// single-step and 2-step schemes, 1 to 40 steps, on shapes on both sides
// of the fit threshold (including a short z). Every resolved tile is legal.
TEST(DefaultBlocks, NoDefaultTessellatedPlanThrows) {
  int checked = 0;
  for (Dtype dt : all_dtypes()) {
    const index budget =
        cache_fit_elems(cpu_info().l2_bytes, dtype_size(dt), 0.5);
    index side = 1;
    while (256 * (side + 1) * (side + 1) <= budget) ++side;
    const index rows = budget / 256;
    const Shape shapes[] = {
        shape2d(256, rows),          shape2d(256, rows + 1),
        shape2d(256, 3 * rows + 7),  shape2d(512, 9 * rows + 5),
        shape3d(256, side, side),    shape3d(256, side + 1, side + 1),
        shape3d(256, 3 * side + 5, 3 * side + 3),
        shape3d(256, 4 * side + 1, 5)};
    for (const Shape& sh : shapes)
      for (StencilKind kind :
           {StencilKind::k2d5p, StencilKind::k2d9p, StencilKind::k3d7p,
            StencilKind::k3d27p}) {
        if (stencil_kind_rank(kind) != sh.rank) continue;
        for (Method m : {Method::kTranspose, Method::kTransposeUJ})
          for (index steps = 1; steps <= 40; ++steps) {
            Options o;
            o.method = m;
            o.tiling = Tiling::kTessellate;
            o.dtype = dt;
            o.steps = steps;
            o.threads = 1;
            const std::string what =
                std::string(method_name(m)) + " " + stencil_kind_name(kind) +
                " " + dtype_name(dt) + " " + std::to_string(sh.nx) + "x" +
                std::to_string(sh.ny) + "x" + std::to_string(sh.nz) +
                " steps " + std::to_string(steps);
            try {
              const Plan p = make_plan(sh, kind, o);
              EXPECT_TRUE(
                  tile_legal(sh, stencil_kind_radius(kind), p.config()))
                  << what;
            } catch (const ConfigError& e) {
              ADD_FAILURE() << what << ": " << e.what();
            }
            ++checked;
          }
      }
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// The FMA-order contract. Every kernel adds a cell's taps with fused
// multiply-adds in the scalar reference's order (tap rows in table order,
// ascending dx within a row), so any method, tiling and ISA gives the
// `scalar` plan's output bit for bit. A kernel that reorders its taps, for
// example to share a broadcast across outputs, must keep that order per
// accumulator. Every registry row, the six Table-1 kinds, both dtypes and
// every runnable ISA, 8 steps with the default blocks.
// ---------------------------------------------------------------------------

template <typename G>
int expect_every_row_matches_scalar(const Shape& sh, StencilKind kind,
                                    Dtype dt) {
  Options so;
  so.method = Method::kScalar;
  so.dtype = dt;
  so.steps = 8;
  G want = sliced_test_grid<G>(sh);
  make_plan(sh, kind, so).execute(want);
  int checked = 0;
  for (const Capability& cap : capabilities()) {
    if (!cap.supports_rank(sh.rank) || !cap.supports_dtype(dt)) continue;
    for (Isa isa : runnable_isas()) {
      Options o = so;
      o.method = cap.method;
      o.tiling = cap.tiling;
      o.isa = isa;
      G got = sliced_test_grid<G>(sh);
      make_plan(sh, kind, o).execute(got);
      EXPECT_EQ(max_abs_diff(got, want), 0)
          << method_name(cap.method) << " " << tiling_name(cap.tiling) << " "
          << stencil_kind_name(kind) << " " << isa_name(isa) << " "
          << dtype_name(dt);
      ++checked;
    }
  }
  return checked;
}

TEST(MethodOrder, EveryRowIsBitIdenticalToScalar) {
  const StencilKind kinds[] = {StencilKind::k1d3p, StencilKind::k1d5p,
                               StencilKind::k2d5p, StencilKind::k2d9p,
                               StencilKind::k3d7p, StencilKind::k3d27p};
  int checked = 0;
  for (StencilKind kind : kinds) {
    const int rank = stencil_kind_rank(kind);
    const int radius = stencil_kind_radius(kind);
    const Shape sh = rank == 1   ? shape1d(1024, radius)
                     : rank == 2 ? shape2d(512, 37, radius)
                                 : shape3d(256, 13, 19, radius);
    for (Dtype dt : all_dtypes()) {
      auto run = [&]<typename T>() {
        if (rank == 1)
          checked += expect_every_row_matches_scalar<Grid1D<T>>(sh, kind, dt);
        else if (rank == 2)
          checked += expect_every_row_matches_scalar<Grid2D<T>>(sh, kind, dt);
        else
          checked += expect_every_row_matches_scalar<Grid3D<T>>(sh, kind, dt);
      };
      if (dt == Dtype::kF32)
        run.template operator()<float>();
      else
        run.template operator()<double>();
    }
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Seeded randomized differential fuzzer.
//
// Every iteration draws one registry capability and randomizes everything a
// plan depends on around it — rank (from the row's rank mask), dtype (from
// its dtype mask), ISA (from the runnable set), per-axis boundaries, odd or
// width-aligned extents as the row's layout rule allows, temporal block,
// thread count, steps and runtime stencil coefficients — then executes the
// rank-erased plan and compares against the boundary-aware scalar oracle
// built from the SAME coefficients. Tuples the resolver legitimately
// rejects (a ConfigError) are resampled, but the test fails if it cannot
// land enough executed tuples: a fuzzer that silently rejects everything
// would pass vacuously.
// ---------------------------------------------------------------------------

namespace fuzz {

using Rng = std::mt19937_64;

index pick(Rng& rng, std::initializer_list<index> xs) {
  std::vector<index> v(xs);
  return v[rng() % v.size()];
}

/// A width-legal interior extent for the row's layout rule: odd/unaligned
/// shapes when the rule allows any nx, width-multiples otherwise.
index draw_nx(Rng& rng, XRule rule, index width) {
  switch (rule) {
    case XRule::kNone:
      return pick(rng, {33, 57, 96, 130, 255, 256, 384});
    case XRule::kWidth:
      return width * static_cast<index>(2 + rng() % 30);
    case XRule::kWidth2:
      return width * width * static_cast<index>(1 + rng() % 4);
  }
  return 256;
}

Boundary draw_boundary(Rng& rng) {
  const auto& all = all_boundaries();
  return all[rng() % all.size()];
}

/// The Table-1 kinds at a given rank (the fuzzer's stencil axis).
StencilKind draw_kind(Rng& rng, int rank) {
  switch (rank) {
    case 1: return rng() % 2 ? StencilKind::k1d5p : StencilKind::k1d3p;
    case 2: return rng() % 2 ? StencilKind::k2d9p : StencilKind::k2d5p;
    default: return rng() % 2 ? StencilKind::k3d27p : StencilKind::k3d7p;
  }
}

std::string describe(const StencilSpec& spec, const Shape& shape,
                     const Options& o, std::uint64_t seed, int iter) {
  std::ostringstream os;
  os << "seed=" << seed << " iter=" << iter << " kind="
     << stencil_kind_name(spec.kind) << " method=" << method_name(o.method)
     << " tiling=" << tiling_name(o.tiling) << " isa=" << isa_name(o.isa)
     << " dtype=" << dtype_name(o.dtype) << " shape=" << shape.nx << "x"
     << shape.ny << "x" << shape.nz << " halo=" << shape.halo
     << " steps=" << o.steps << " bt=" << o.bt << " threads=" << o.threads
     << " bc=" << boundary_name(o.boundary.x) << "/"
     << boundary_name(o.boundary.y) << "/" << boundary_name(o.boundary.z)
     << " coeffs=[";
  for (std::size_t i = 0; i < spec.coeffs.size(); ++i)
    os << (i ? "," : "") << spec.coeffs[i];
  os << "]  (replay: TSV_FUZZ_SEED=" << seed << ")";
  return os.str();
}

/// Executes one sampled tuple and diffs it against the oracle. Returns
/// false when the resolver rejected the tuple (the caller resamples).
template <typename T, typename G, typename S>
bool run_tuple(const S& stencil, const StencilSpec& spec, const Shape& shape,
               const Options& o, const std::string& label, index salt) {
  auto init = [&](index lin) {
    return static_cast<T>(0.2 + 1e-3 * static_cast<double>((salt * 17 + lin * 5) % 97));
  };
  G got = make_grid<G>({shape.nx, shape.ny, shape.nz}, shape.halo);
  if constexpr (G::kRank == 1)
    got.fill([&](index x) { return init(x); });
  else if constexpr (G::kRank == 2)
    got.fill([&](index x, index y) { return init(x + 131 * y); });
  else
    got.fill([&](index x, index y, index z) {
      return init(x + 131 * y + 1031 * z);
    });
  G ref = got;

  Plan plan;
  try {
    plan = make_plan(shape, spec, o);
  } catch (const ConfigError&) {
    return false;  // legitimately rejected tuple: resample
  }
  plan.execute(got);
  // The oracle reads the RESOLVED boundary (axes beyond the rank are
  // normalized there) so method and oracle see identical ghost fills.
  reference_run(ref, stencil, o.steps, plan.config().boundary);
  EXPECT_LE(static_cast<double>(max_abs_diff(ref, got)),
            accuracy_tolerance<T>(o.steps))
      << label;
  return true;
}

/// Dispatches a sampled kind to its compile-time stencil with the sampled
/// runtime coefficients — the same factory mapping the rank-erased plan
/// uses, so the differential really is method-vs-oracle, never
/// stencil-vs-stencil.
template <typename T>
bool run_kind(const StencilSpec& spec, const Shape& shape, const Options& o,
              const std::string& label, index salt) {
  const std::vector<double>& c = spec.coeffs;
  switch (spec.kind) {
    case StencilKind::k1d3p:
      return run_tuple<T, Grid1D<T>>(make_1d3p<T>(c[0]), spec, shape, o,
                                     label, salt);
    case StencilKind::k1d5p:
      return run_tuple<T, Grid1D<T>>(make_1d5p<T>(c[0], c[1], c[2]), spec,
                                     shape, o, label, salt);
    case StencilKind::k2d5p:
      return run_tuple<T, Grid2D<T>>(make_2d5p<T>(c[0], c[1], c[2]), spec,
                                     shape, o, label, salt);
    case StencilKind::k2d9p:
      return run_tuple<T, Grid2D<T>>(make_2d9p<T>(c[0], c[1], c[2]), spec,
                                     shape, o, label, salt);
    case StencilKind::k3d7p:
      return run_tuple<T, Grid3D<T>>(make_3d7p<T>(c[0], c[1], c[2], c[3]),
                                     spec, shape, o, label, salt);
    case StencilKind::k3d27p:
      return run_tuple<T, Grid3D<T>>(make_3d27p<T>(c[0]), spec, shape, o,
                                     label, salt);
  }
  return false;
}

}  // namespace fuzz

TEST(RandomizedDifferential, SampledTuplesMatchOracle) {
  std::uint64_t seed = 20260728;
  if (const char* env = std::getenv("TSV_FUZZ_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  fuzz::Rng rng(seed);

  // 32 executed tuples per smoke run; the nightly job raises the budget via
  // TSV_FUZZ_TUPLES (an absolute executed-tuple count for both fuzzers).
  int tuples = 32;
  if (const char* env = std::getenv("TSV_FUZZ_TUPLES"))
    tuples = std::atoi(env);
  const int max_draws = tuples * 13;  // resample budget across the whole run
  int executed = 0, draws = 0;
  while (executed < tuples && draws < max_draws) {
    ++draws;
    const auto& caps = capabilities();
    const Capability& cap = caps[rng() % caps.size()];

    // Rank from the row's mask; dtype from its dtype mask.
    std::vector<int> ranks;
    for (int r = 1; r <= 3; ++r)
      if (cap.supports_rank(r)) ranks.push_back(r);
    const int rank = ranks[rng() % ranks.size()];
    std::vector<Dtype> dtypes;
    for (Dtype d : all_dtypes())
      if (cap.supports_dtype(d)) dtypes.push_back(d);
    const Dtype dtype = dtypes[rng() % dtypes.size()];
    const auto isas = runnable_isas();
    const Isa isa = isas[rng() % isas.size()];

    const StencilKind kind = fuzz::draw_kind(rng, rank);
    const int radius = stencil_kind_radius(kind);

    Options o;
    o.method = cap.method;
    o.tiling = cap.tiling;
    o.isa = isa;
    o.dtype = dtype;
    o.steps = static_cast<index>(rng() % 6);  // 0..5, incl. identity runs
    o.threads = 1 + static_cast<int>(rng() % 3);
    o.boundary = {fuzz::draw_boundary(rng),
                  rank >= 2 ? fuzz::draw_boundary(rng) : Boundary::kDirichlet,
                  rank >= 3 ? fuzz::draw_boundary(rng) : Boundary::kDirichlet};
    if (o.tiling != Tiling::kNone && rng() % 3 == 0)
      o.bt = fuzz::pick(rng, {1, 2, 4});

    Shape shape;
    shape.rank = rank;
    shape.halo = radius;
    shape.nx = fuzz::draw_nx(rng, cap.x_rule, kernel_width(isa, dtype));
    // Wrap/mirror fills need extent >= radius; the y/z draws respect that.
    shape.ny = rank >= 2 ? fuzz::pick(rng, {3, 5, 8, 13, 17}) : 1;
    shape.nz = rank >= 3 ? fuzz::pick(rng, {3, 4, 7, 10}) : 1;
    if (shape.nx < 2 * radius) continue;

    StencilSpec spec;
    spec.kind = kind;
    std::uniform_real_distribution<double> coeff(0.02, 0.28);
    for (std::size_t i = 0; i < stencil_kind_coeff_count(kind); ++i)
      spec.coeffs.push_back(coeff(rng));

    const std::string label =
        fuzz::describe(spec, shape, o, seed, executed);
    const bool ran =
        dtype == Dtype::kF32
            ? fuzz::run_kind<float>(spec, shape, o, label, draws)
            : fuzz::run_kind<double>(spec, shape, o, label, draws);
    if (ran) ++executed;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "fuzzer stopped at first divergence; " << label;
      break;
    }
  }
  // A fuzzer that rejects (or exhausts) its way to a pass proves nothing.
  EXPECT_GE(executed, tuples)
      << "only " << executed << " tuples executed in " << draws
      << " draws (seed=" << seed << ")";
}

// ---------------------------------------------------------------------------
// Generic-shape differential fuzzer.
//
// Where the fuzzer above randomizes everything AROUND six fixed stencil
// shapes, this one draws the shape itself: a random GenericStencil — rank,
// radius <= kMaxGenericRadius, a star / box / asymmetric tap set with random
// weights (normalized so sum |w| ~ 0.95, keeping an O(1) field O(1) over the
// <= 5 fuzzed steps so the absolute tolerance stays meaningful), and with
// probability ~1/4 a per-cell coefficient field — then executes it through
// every plan stage the registry claims for Method::kGeneric (both tilings,
// runnable ISAs, both dtypes, all boundaries) and diffs against the
// runtime-tap oracle generic_reference_run. Tolerances are dtype-aware and
// widened by the tap count: a 27+ tap box reassociates proportionally more
// partial products per output than the 3-tap kinds kTolSlack was sized for.
// ---------------------------------------------------------------------------

namespace fuzz {

/// A random generic stencil shape. Half the draws declare `radius`
/// explicitly, half leave it 0 (derived) — both spellings must plan.
GenericStencil draw_generic(Rng& rng, int rank, int radius) {
  GenericStencil gs;
  gs.rank = rank;
  if (rng() % 2) gs.radius = radius;
  auto has = [&](int dx, int dy, int dz) {
    for (const GenericTap& t : gs.taps)
      if (t.dx == dx && t.dy == dy && t.dz == dz) return true;
    return false;
  };
  auto add = [&](int dx, int dy, int dz) {
    if (!has(dx, dy, dz)) gs.taps.push_back({dx, dy, dz, 0.0});
  };
  switch (rng() % 3) {
    case 0:  // star: center plus axis arms out to the radius
      add(0, 0, 0);
      for (int d = 1; d <= radius; ++d) {
        add(+d, 0, 0);
        add(-d, 0, 0);
        if (rank >= 2) add(0, +d, 0), add(0, -d, 0);
        if (rank >= 3) add(0, 0, +d), add(0, 0, -d);
      }
      break;
    case 1:  // box: the full Chebyshev ball
      for (int dz = rank >= 3 ? -radius : 0; dz <= (rank >= 3 ? radius : 0);
           ++dz)
        for (int dy = rank >= 2 ? -radius : 0;
             dy <= (rank >= 2 ? radius : 0); ++dy)
          for (int dx = -radius; dx <= radius; ++dx) add(dx, dy, dz);
      break;
    default: {  // asymmetric: a random sparse subset, no symmetry at all
      const int want = 1 + static_cast<int>(rng() % 12);
      auto draw_off = [&] {
        return static_cast<int>(rng() % (2 * radius + 1)) - radius;
      };
      for (int i = 0; i < want; ++i)
        add(draw_off(), rank >= 2 ? draw_off() : 0,
            rank >= 3 ? draw_off() : 0);
      break;
    }
  }
  std::uniform_real_distribution<double> wd(-1.0, 1.0);
  double sum = 0.0;
  for (GenericTap& t : gs.taps) {
    t.weight = wd(rng);
    sum += std::abs(t.weight);
  }
  if (sum < 1e-3) {
    gs.taps.front().weight = 0.5;
    sum = 0.0;
    for (const GenericTap& t : gs.taps) sum += std::abs(t.weight);
  }
  for (GenericTap& t : gs.taps) t.weight *= 0.95 / sum;
  return gs;
}

std::string describe_generic(const GenericStencil& gs, const Shape& shape,
                             const Options& o, std::uint64_t seed, int iter) {
  std::ostringstream os;
  os << "seed=" << seed << " iter=" << iter << " generic rank=" << gs.rank
     << " radius=" << gs.effective_radius() << " taps=" << gs.taps.size()
     << (gs.scale.empty() ? "" : " +scale")
     << " tiling=" << tiling_name(o.tiling) << " isa=" << isa_name(o.isa)
     << " dtype=" << dtype_name(o.dtype) << " shape=" << shape.nx << "x"
     << shape.ny << "x" << shape.nz << " halo=" << shape.halo
     << " steps=" << o.steps << " bt=" << o.bt << " threads=" << o.threads
     << " bc=" << boundary_name(o.boundary.x) << "/"
     << boundary_name(o.boundary.y) << "/" << boundary_name(o.boundary.z)
     << "  (replay: TSV_FUZZ_SEED=" << seed << ")";
  return os.str();
}

/// Executes one sampled generic tuple against the runtime-tap oracle.
/// Returns false when the resolver rejected the tuple (caller resamples).
template <typename T, typename G>
bool run_generic_tuple(const std::shared_ptr<const GenericStencil>& gs,
                       const Shape& shape, const Options& o,
                       const std::string& label, index salt) {
  auto init = [&](index lin) {
    return static_cast<T>(
        0.2 + 1e-3 * static_cast<double>((salt * 17 + lin * 5) % 97));
  };
  G got = make_grid<G>({shape.nx, shape.ny, shape.nz}, shape.halo);
  if constexpr (G::kRank == 1)
    got.fill([&](index x) { return init(x); });
  else if constexpr (G::kRank == 2)
    got.fill([&](index x, index y) { return init(x + 131 * y); });
  else
    got.fill([&](index x, index y, index z) {
      return init(x + 131 * y + 1031 * z);
    });
  G ref = got;

  StencilSpec spec;
  spec.generic = gs;
  Plan plan;
  try {
    plan = make_plan(shape, spec, o);
  } catch (const ConfigError&) {
    return false;  // legitimately rejected tuple: resample
  }
  plan.execute(got);
  generic_reference_run(ref, *gs, o.steps, plan.config().boundary);
  const double tol =
      accuracy_tolerance<T>(o.steps) *
      std::max(1.0, static_cast<double>(gs->taps.size()) / 8.0);
  EXPECT_LE(static_cast<double>(max_abs_diff(ref, got)), tol) << label;
  return true;
}

template <typename T>
bool run_generic_rank(const std::shared_ptr<const GenericStencil>& gs,
                      const Shape& shape, const Options& o,
                      const std::string& label, index salt) {
  switch (shape.rank) {
    case 1:
      return run_generic_tuple<T, Grid1D<T>>(gs, shape, o, label, salt);
    case 2:
      return run_generic_tuple<T, Grid2D<T>>(gs, shape, o, label, salt);
    default:
      return run_generic_tuple<T, Grid3D<T>>(gs, shape, o, label, salt);
  }
}

}  // namespace fuzz

TEST(RandomizedDifferential, GenericShapesMatchOracle) {
  std::uint64_t seed = 20260728;
  if (const char* env = std::getenv("TSV_FUZZ_SEED"))
    seed = std::strtoull(env, nullptr, 10);
  fuzz::Rng rng(seed);

  // 64 executed tuples per smoke run; the nightly job raises this ~20x via
  // TSV_FUZZ_TUPLES (an absolute executed-tuple count, not a multiplier).
  int tuples = 64;
  if (const char* env = std::getenv("TSV_FUZZ_TUPLES"))
    tuples = std::atoi(env);
  const int max_draws = tuples * 12;  // resample budget
  int executed = 0, draws = 0;
  while (executed < tuples && draws < max_draws) {
    ++draws;
    const int rank = 1 + static_cast<int>(rng() % 3);
    const int radius = 1 + static_cast<int>(rng() % kMaxGenericRadius);
    auto gs = std::make_shared<GenericStencil>(
        fuzz::draw_generic(rng, rank, radius));

    Options o;
    o.method = Method::kGeneric;
    o.tiling = rng() % 2 ? Tiling::kTessellate : Tiling::kNone;
    const auto isas = runnable_isas();
    o.isa = isas[rng() % isas.size()];
    o.dtype = rng() % 2 ? Dtype::kF32 : Dtype::kF64;
    o.steps = static_cast<index>(rng() % 6);  // 0..5, incl. identity runs
    o.threads = 1 + static_cast<int>(rng() % 3);
    o.boundary = {fuzz::draw_boundary(rng),
                  rank >= 2 ? fuzz::draw_boundary(rng) : Boundary::kDirichlet,
                  rank >= 3 ? fuzz::draw_boundary(rng) : Boundary::kDirichlet};
    if (o.tiling != Tiling::kNone && rng() % 3 == 0)
      o.bt = fuzz::pick(rng, {1, 2, 4});

    Shape shape;
    shape.rank = rank;
    shape.halo = gs->effective_radius();
    // The generic rows claim XRule::kNone, so odd/unaligned extents are
    // always legal; rank-3 boxes get smaller grids to bound the sweep cost.
    shape.nx = rank >= 3 ? fuzz::pick(rng, {33, 57, 96})
                         : fuzz::pick(rng, {33, 57, 96, 130, 255, 256, 384});
    shape.ny = rank >= 2 ? fuzz::pick(rng, {3, 5, 8, 13, 17}) : 1;
    shape.nz = rank >= 3 ? fuzz::pick(rng, {3, 4, 7, 10}) : 1;
    if (shape.nx < 2 * shape.halo) continue;

    // ~1/4 of tuples carry a per-cell coefficient field sized to the
    // interior; values in [0.5, 1] keep the damping contraction intact.
    if (rng() % 4 == 0) {
      GenericStencil with_scale = *gs;
      with_scale.scale_nx = shape.nx;
      with_scale.scale_ny = shape.ny;
      with_scale.scale_nz = shape.nz;
      std::uniform_real_distribution<double> sd(0.5, 1.0);
      with_scale.scale.resize(
          static_cast<std::size_t>(shape.nx * shape.ny * shape.nz));
      for (double& v : with_scale.scale) v = sd(rng);
      gs = std::make_shared<GenericStencil>(std::move(with_scale));
    }

    const std::string label =
        fuzz::describe_generic(*gs, shape, o, seed, executed);
    const bool ran =
        o.dtype == Dtype::kF32
            ? fuzz::run_generic_rank<float>(gs, shape, o, label, draws)
            : fuzz::run_generic_rank<double>(gs, shape, o, label, draws);
    if (ran) ++executed;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "fuzzer stopped at first divergence; " << label;
      break;
    }
  }
  EXPECT_GE(executed, tuples)
      << "only " << executed << " generic tuples executed in " << draws
      << " draws (seed=" << seed << ")";
}

}  // namespace
}  // namespace tsv
