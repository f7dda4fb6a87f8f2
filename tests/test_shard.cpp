// Sharding suite: the outermost-axis decomposition (core/shard.hpp) and the
// wave-driven sharded step loop (ShardedPlan, core/plan.hpp).
//
// The heart of the suite is BIT-identity: for every (method, tiling, rank,
// isa, dtype) combination the registry claims under every boundary
// condition, executing N shards through ShardedPlan must reproduce the
// monolithic Plan::execute result exactly (max_abs_diff == 0), and both
// must stay within the oracle tolerance of the boundary-aware scalar
// reference. A ghost-parity test additionally pins the exchange machinery
// itself at radius 2 for every rank: after the fill + exchange waves, each
// shard's full EXTENDED block (interior + ghost rim) must hold the same
// bits as the corresponding region of a monolithic grid after fill_ghosts.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

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
// 1D shards split nx itself, so the 1D extent and shard counts are chosen
// to keep every shard extent a multiple of 256 too (1024 -> 512 / 256).
constexpr index kNx = 256, kNy = 13, kNz = 7;
constexpr index kNx1 = 1024;
constexpr index kSteps = 5;

// ---- shard_layout -----------------------------------------------------------

TEST(ShardLayout, EvenAndUnevenSplits) {
  const ShardLayout even = shard_layout(2, 12, {.count = 3});
  EXPECT_EQ(even.axis, 1);
  EXPECT_EQ(even.count, 3);
  ASSERT_EQ(even.base.size(), 3u);
  EXPECT_EQ(even.base[0], 0);
  EXPECT_EQ(even.base[1], 4);
  EXPECT_EQ(even.base[2], 8);
  EXPECT_EQ(even.extent[0], 4);

  // Remainder slabs go to the leading shards, one each.
  const ShardLayout odd = shard_layout(3, 11, {.count = 3});
  EXPECT_EQ(odd.axis, 2);
  EXPECT_EQ(odd.extent[0], 4);
  EXPECT_EQ(odd.extent[1], 4);
  EXPECT_EQ(odd.extent[2], 3);
  EXPECT_EQ(odd.base[2], 8);

  // Bases tile the axis: base[i] + extent[i] == base[i+1].
  for (int i = 0; i + 1 < odd.count; ++i)
    EXPECT_EQ(odd.base[size_t(i)] + odd.extent[size_t(i)],
              odd.base[size_t(i) + 1]);
}

TEST(ShardLayout, DefaultCountClampsToExtent) {
  // count = 0 resolves to the core count but never exceeds the extent.
  const ShardLayout tiny = shard_layout(1, 2, {.count = 0});
  EXPECT_LE(tiny.count, 2);
  EXPECT_GE(tiny.count, 1);
}

TEST(ShardLayout, RejectsInnerAxisAndOversubscription) {
  EXPECT_THROW(shard_layout(2, 8, {.axis = 0, .count = 2}),
               std::invalid_argument);  // x is unit-stride, never split
  EXPECT_THROW(shard_layout(3, 8, {.axis = 1, .count = 2}),
               std::invalid_argument);
  EXPECT_THROW(shard_layout(2, 4, {.count = 5}), std::invalid_argument);
  EXPECT_THROW(shard_layout(4, 8, {.count = 2}), std::invalid_argument);
  // The outermost axis named explicitly is fine.
  EXPECT_EQ(shard_layout(2, 8, {.axis = 1, .count = 2}).count, 2);
}

TEST(ShardLayout, ViolationWhenShardThinnerThanRadius) {
  const ShardLayout l = shard_layout(1, 5, {.count = 3});  // 2, 2, 1
  EXPECT_EQ(shard_violation(l, 1), nullptr);
  EXPECT_NE(shard_violation(l, 2), nullptr);  // extent 1 < radius 2
}

// ---- ShardedGrid: scatter / gather ------------------------------------------

TEST(ShardedGrid, ScatterGatherRoundTrips2D) {
  Grid2D<double> src(8, 9, 1);
  src.fill([](index x, index y) { return double(100 * y + x); });
  ShardedGrid<Grid2D<double>> sg(src, {.count = 3});
  sg.scatter(src);
  // Shard interiors are the slabs; the scatter also installs ghosts
  // (internal faces land on neighbor interior, physical faces on src halo).
  EXPECT_EQ(sg.shard(1).at(2, 0), src.at(2, 3));  // base[1] == 3
  EXPECT_EQ(sg.shard(1).at(2, -1), src.at(2, 2));
  EXPECT_EQ(sg.shard(0).at(4, -1), src.at(4, -1));  // physical halo rides in

  Grid2D<double> out(8, 9, 1);
  out.fill([](index, index) { return -1.0; });
  sg.gather(out);
  EXPECT_EQ(max_abs_diff(src, out), 0.0);
  EXPECT_EQ(out.at(0, -1), -1.0);  // gather leaves dst ghosts alone
}

TEST(ShardedGrid, GeometryMismatchThrows) {
  Grid2D<double> proto(8, 9, 1);
  ShardedGrid<Grid2D<double>> sg(proto, {.count = 2});
  Grid2D<double> other(8, 10, 1);
  EXPECT_THROW(sg.scatter(other), std::invalid_argument);
  EXPECT_THROW(sg.gather(other), std::invalid_argument);
}

// ---- ghost parity: fill + exchange == monolithic fill_ghosts ----------------
//
// After one fill wave and one exchange wave, every shard's full extended
// block must be bitwise equal to the matching region of a monolithic grid
// after fill_ghosts: interior ghosts come from neighbor interior (which IS
// the monolithic interior there), physical split faces and the non-split
// axes go through the same fill code, and the extended-strip exchange
// reproduces the sequential x -> y -> z corner semantics.

template <typename G>
void run_waves(ShardedGrid<G>& sg, const BoundarySpec& bc, int r) {
  for (int i = 0; i < sg.shards(); ++i) sg.fill_shard_ghosts(i, bc, r);
  for (int i = 0; i < sg.shards(); ++i) sg.exchange_shard_ghosts(i, bc, r);
}

void expect_ghost_parity_2d(const BoundarySpec& bc, int r, int count) {
  const index nx = 7, ny = 11;
  Grid2D<double> mono(nx, ny, r);
  mono.fill([](index x, index y) { return double(1000 + 50 * y + x); });
  ShardedGrid<Grid2D<double>> sg(mono, {.count = count});
  sg.scatter(mono);
  fill_ghosts(mono, bc, r);
  run_waves(sg, bc, r);
  for (int i = 0; i < sg.shards(); ++i) {
    const Grid2D<double>& s = sg.shard(i);
    const index b = sg.layout().base[size_t(i)];
    const index e = sg.layout().extent[size_t(i)];
    for (index y = -r; y < e + r; ++y)
      for (index x = -r; x < nx + r; ++x)
        ASSERT_EQ(s.at(x, y), mono.at(x, b + y))
            << "shard " << i << " (" << x << "," << y << ") r=" << r;
  }
}

void expect_ghost_parity_3d(const BoundarySpec& bc, int r, int count) {
  const index nx = 6, ny = 5, nz = 9;
  Grid3D<double> mono(nx, ny, nz, r);
  mono.fill([](index x, index y, index z) {
    return double(10000 + 500 * z + 50 * y + x);
  });
  ShardedGrid<Grid3D<double>> sg(mono, {.count = count});
  sg.scatter(mono);
  fill_ghosts(mono, bc, r);
  run_waves(sg, bc, r);
  for (int i = 0; i < sg.shards(); ++i) {
    const Grid3D<double>& s = sg.shard(i);
    const index b = sg.layout().base[size_t(i)];
    const index e = sg.layout().extent[size_t(i)];
    for (index z = -r; z < e + r; ++z)
      for (index y = -r; y < ny + r; ++y)
        for (index x = -r; x < nx + r; ++x)
          ASSERT_EQ(s.at(x, y, z), mono.at(x, y, b + z))
              << "shard " << i << " (" << x << "," << y << "," << z << ")";
  }
}

TEST(ShardedGrid, GhostParityEveryBoundaryBothRadii2D) {
  for (int r : {1, 2})
    for (int count : {2, 3})
      for (Boundary b : all_boundaries())
        expect_ghost_parity_2d(BoundarySpec::uniform(b), r, count);
}

TEST(ShardedGrid, GhostParityMixedAxes3DRadius2) {
  expect_ghost_parity_3d(
      {.x = Boundary::kPeriodic, .y = Boundary::kNeumann,
       .z = Boundary::kDirichlet}, 2, 3);
  expect_ghost_parity_3d(
      {.x = Boundary::kZero, .y = Boundary::kDirichlet,
       .z = Boundary::kPeriodic}, 2, 2);
  expect_ghost_parity_3d(
      {.x = Boundary::kNeumann, .y = Boundary::kPeriodic,
       .z = Boundary::kNeumann}, 1, 3);
  expect_ghost_parity_3d(
      {.x = Boundary::kDirichlet, .y = Boundary::kZero,
       .z = Boundary::kZero}, 2, 3);
}

// ---- ShardedPlan: bit-identity sweep ----------------------------------------

Options combo_options(Method m, Tiling t, Isa isa, Dtype d,
                      const BoundarySpec& bc) {
  Options o;
  o.method = m;
  o.tiling = t;
  o.isa = isa;
  o.dtype = d;
  o.steps = kSteps;
  o.boundary = bc;
  return o;
}

std::string combo_label(Method m, Tiling t, int rank, Isa isa, Dtype d,
                        Boundary b, int count) {
  std::string s = method_name(m);
  s += "+";
  s += tiling_name(t);
  s += " rank=" + std::to_string(rank) + " isa=";
  s += isa_name(isa);
  s += " dtype=";
  s += dtype_name(d);
  s += " bc=";
  s += boundary_name(b);
  s += " shards=" + std::to_string(count);
  return s;
}

/// Monolithic plan vs ShardedPlan on identical inputs: the sharded result
/// must be BITWISE equal, and both within oracle tolerance.
template <typename T, typename G, typename S>
void expect_sharded_matches(const Shape& shape, const S& s, G& mono, G& init,
                            const Options& o, int count,
                            const std::string& label) {
  make_plan(shape, s, o).execute(mono);

  ShardedGrid<G> sg(init, ShardSpec{.count = count});
  sg.scatter(init);
  const auto plan = make_sharded_plan(shape, s, ShardSpec{.count = count}, o);
  plan.execute(sg);
  G out = init;  // halos carry the initial condition, like mono's
  sg.gather(out);
  EXPECT_EQ(max_abs_diff(mono, out), T(0)) << label;
}

template <typename T>
void expect_combo_matches(Method m, Tiling t, int rank, Isa isa, Boundary b,
                          int count) {
  const Options o = combo_options(m, t, isa, dtype_of<T>(),
                                  BoundarySpec::uniform(b));
  const std::string label = combo_label(m, t, rank, isa, dtype_of<T>(), b,
                                        count);
  const double tol = accuracy_tolerance<T>(kSteps);
  const BoundarySpec bc = BoundarySpec::uniform(b);
  switch (rank) {
    case 1: {
      const auto s = make_1d3p<T>(0.3);
      Grid1D<T> ref(kNx1, 1), g(kNx1, 1), init(kNx1, 1);
      ref.fill(f1<T>);
      g.fill(f1<T>);
      init.fill(f1<T>);
      reference_run(ref, s, kSteps, bc);
      expect_sharded_matches<T>(shape1d(kNx1), s, g, init, o, count, label);
      EXPECT_LE(max_abs_diff(ref, g), tol) << label;
      break;
    }
    case 2: {
      const auto s = make_2d5p<T>(0.5, 0.12, 0.13);
      Grid2D<T> ref(kNx, kNy, 1), g(kNx, kNy, 1), init(kNx, kNy, 1);
      ref.fill(f2<T>);
      g.fill(f2<T>);
      init.fill(f2<T>);
      reference_run(ref, s, kSteps, bc);
      expect_sharded_matches<T>(shape2d(kNx, kNy), s, g, init, o, count,
                                label);
      EXPECT_LE(max_abs_diff(ref, g), tol) << label;
      break;
    }
    default: {
      const auto s = make_3d7p<T>();
      Grid3D<T> ref(kNx, kNy, kNz, 1), g(kNx, kNy, kNz, 1),
          init(kNx, kNy, kNz, 1);
      ref.fill(f3<T>);
      g.fill(f3<T>);
      init.fill(f3<T>);
      reference_run(ref, s, kSteps, bc);
      expect_sharded_matches<T>(shape3d(kNx, kNy, kNz), s, g, init, o, count,
                                label);
      EXPECT_LE(max_abs_diff(ref, g), tol) << label;
      break;
    }
  }
}

TEST(ShardedPlan, EveryClaimedComboBitIdenticalToMonolithic) {
  int executed = 0;
  for (Boundary b : all_boundaries())
    for (Method m : all_methods())
      for (Tiling t : all_tilings())
        for (int rank = 1; rank <= 3; ++rank)
          for (Isa isa : runnable_isas())
            for (Dtype d : all_dtypes()) {
              if (!supports(m, t, rank, isa, d, b)) continue;
              // 1D splits nx itself: shard extents must satisfy the same
              // W^2 layout rules as a monolithic grid, so the counts keep
              // every extent a multiple of 256 (1024 -> 512 / 256).
              const int count = rank == 1 ? (executed % 2 != 0 ? 4 : 2)
                                          : (executed % 2 != 0 ? 3 : 2);
              if (d == Dtype::kF32)
                expect_combo_matches<float>(m, t, rank, isa, b, count);
              else
                expect_combo_matches<double>(m, t, rank, isa, b, count);
              ++executed;
            }
  // All registry rows claim all four boundaries; at least the scalar-ISA
  // rows must have run everywhere, in both dtypes.
  EXPECT_GE(executed, 4 * 40);
}

// ---- mixed physical boundaries across the shard seam ------------------------
//
// The split axis and the non-split axes carry DIFFERENT conditions, so the
// exchange corners mix internal-face data with periodic wraps, Neumann
// mirrors and frozen Dirichlet halos. Checked for both dtypes against the
// monolithic plan (bitwise) and the oracle (tolerance).

template <typename T>
void expect_mixed_2d(const BoundarySpec& bc, Method m, Tiling t, int count) {
  if (!supports(m, t, 2, Isa::kAuto, dtype_of<T>(), bc.x) ||
      !supports(m, t, 2, Isa::kAuto, dtype_of<T>(), bc.y))
    return;
  Options o = combo_options(m, t, Isa::kAuto, dtype_of<T>(), bc);
  const auto s = make_2d5p<T>(0.5, 0.12, 0.13);
  Grid2D<T> ref(kNx, kNy, 1), g(kNx, kNy, 1), init(kNx, kNy, 1);
  ref.fill(f2<T>);
  g.fill(f2<T>);
  init.fill(f2<T>);
  reference_run(ref, s, kSteps, bc);
  const std::string label = std::string("mixed2d ") + method_name(m) + "+" +
                            tiling_name(t) + " x=" + boundary_name(bc.x) +
                            " y=" + boundary_name(bc.y);
  expect_sharded_matches<T>(shape2d(kNx, kNy), s, g, init, o, count, label);
  EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<T>(kSteps)) << label;
}

template <typename T>
void expect_mixed_3d(const BoundarySpec& bc, Method m, Tiling t, int count) {
  for (Boundary b : {bc.x, bc.y, bc.z})
    if (!supports(m, t, 3, Isa::kAuto, dtype_of<T>(), b)) return;
  Options o = combo_options(m, t, Isa::kAuto, dtype_of<T>(), bc);
  const auto s = make_3d7p<T>();
  Grid3D<T> ref(kNx, kNy, kNz, 1), g(kNx, kNy, kNz, 1), init(kNx, kNy, kNz, 1);
  ref.fill(f3<T>);
  g.fill(f3<T>);
  init.fill(f3<T>);
  reference_run(ref, s, kSteps, bc);
  const std::string label = std::string("mixed3d ") + method_name(m) + "+" +
                            tiling_name(t) + " x=" + boundary_name(bc.x) +
                            " y=" + boundary_name(bc.y) +
                            " z=" + boundary_name(bc.z);
  expect_sharded_matches<T>(shape3d(kNx, kNy, kNz), s, g, init, o, count,
                            label);
  EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<T>(kSteps)) << label;
}

template <typename T>
void run_mixed_suite() {
  const BoundarySpec mixes2[] = {
      {.x = Boundary::kPeriodic, .y = Boundary::kNeumann},
      {.x = Boundary::kNeumann, .y = Boundary::kPeriodic},
      {.x = Boundary::kDirichlet, .y = Boundary::kZero},
      {.x = Boundary::kZero, .y = Boundary::kDirichlet},
  };
  const BoundarySpec mixes3[] = {
      {.x = Boundary::kPeriodic, .y = Boundary::kNeumann,
       .z = Boundary::kDirichlet},
      {.x = Boundary::kNeumann, .y = Boundary::kDirichlet,
       .z = Boundary::kPeriodic},
      {.x = Boundary::kZero, .y = Boundary::kPeriodic,
       .z = Boundary::kNeumann},
  };
  for (int count : {2, 3}) {
    for (const BoundarySpec& bc : mixes2) {
      expect_mixed_2d<T>(bc, Method::kScalar, Tiling::kNone, count);
      expect_mixed_2d<T>(bc, Method::kAutoVec, Tiling::kNone, count);
      expect_mixed_2d<T>(bc, Method::kTranspose, Tiling::kTessellate, count);
    }
    for (const BoundarySpec& bc : mixes3) {
      expect_mixed_3d<T>(bc, Method::kScalar, Tiling::kNone, count);
      expect_mixed_3d<T>(bc, Method::kTranspose, Tiling::kTessellate, count);
    }
  }
}

TEST(ShardedPlan, MixedBoundariesAcrossShardSeamF64) {
  run_mixed_suite<double>();
}
TEST(ShardedPlan, MixedBoundariesAcrossShardSeamF32) {
  run_mixed_suite<float>();
}

// ---- radius 2 across the seam -----------------------------------------------
//
// The 1D five-point stencil is the named radius-2 kind: the exchange must
// move TWO slabs of neighbor interior per face, and a periodic wrap two
// cells deep must come from two cells inside the far shard.

template <typename T>
void expect_radius2_matches(Boundary b, Method m, Tiling t, int count) {
  if (!supports(m, t, 1, Isa::kAuto, dtype_of<T>(), b)) return;
  const BoundarySpec bc = BoundarySpec::uniform(b);
  Options o = combo_options(m, t, Isa::kAuto, dtype_of<T>(), bc);
  const auto s = make_1d5p<T>();
  Grid1D<T> ref(kNx1, 2), g(kNx1, 2), init(kNx1, 2);
  ref.fill(f1<T>);
  g.fill(f1<T>);
  init.fill(f1<T>);
  reference_run(ref, s, kSteps, bc);
  const std::string label = std::string("r2 ") + method_name(m) + "+" +
                            tiling_name(t) + " bc=" + boundary_name(b) +
                            " shards=" + std::to_string(count);
  expect_sharded_matches<T>(shape1d(kNx1, 2), s, g, init, o, count, label);
  EXPECT_LE(max_abs_diff(ref, g), accuracy_tolerance<T>(kSteps)) << label;
}

TEST(ShardedPlan, Radius2SeamEveryBoundaryBothDtypes) {
  for (Boundary b : all_boundaries())
    for (int count : {2, 4}) {
      expect_radius2_matches<double>(b, Method::kScalar, Tiling::kNone, count);
      expect_radius2_matches<float>(b, Method::kScalar, Tiling::kNone, count);
      expect_radius2_matches<double>(b, Method::kTranspose,
                                     Tiling::kTessellate, count);
      expect_radius2_matches<float>(b, Method::kTranspose, Tiling::kTessellate,
                                    count);
    }
}

// ---- scheduler-driven waves -------------------------------------------------

TEST(ShardedPlan, SchedulerWavesBitIdenticalToSerial) {
  const auto s = make_2d5p<double>(0.5, 0.12, 0.13);
  const BoundarySpec bc{.x = Boundary::kPeriodic, .y = Boundary::kNeumann};
  Options o = combo_options(Method::kAutoVec, Tiling::kNone, Isa::kAuto,
                            Dtype::kF64, bc);
  Grid2D<double> init(kNx, kNy, 1);
  init.fill(f2<double>);

  const ShardSpec spec{.count = 3};
  const auto plan = make_sharded_plan(shape2d(kNx, kNy), s, spec, o);

  ShardedGrid<Grid2D<double>> serial(init, spec);
  serial.scatter(init);
  plan.execute(serial);

  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
  ShardedGrid<Grid2D<double>> waved(init, spec);
  waved.scatter(init);
  plan.execute(waved, sched);

  Grid2D<double> a(kNx, kNy, 1), b(kNx, kNy, 1);
  serial.gather(a);
  waved.gather(b);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);

  // The wave tasks ran through the gangs and are visible in the stats.
  const SchedulerStats st = sched.stats();
  EXPECT_EQ(st.failed, 0u);
  EXPECT_GT(st.completed, 0u);
  ASSERT_EQ(st.executor.gangs.size(), 2u);
  std::uint64_t tasks = 0;
  for (const GangStats& g : st.executor.gangs) tasks += g.tasks;
  EXPECT_EQ(tasks, st.completed);
}

// ---- plan validation and edge cases -----------------------------------------

TEST(ShardedPlan, ZeroStepsIsIdentity) {
  const auto s = make_2d5p<double>(0.5, 0.12, 0.13);
  Options o;
  o.steps = 0;
  const auto plan = make_sharded_plan(shape2d(kNx, kNy), s, {.count = 2}, o);
  Grid2D<double> init(kNx, kNy, 1), out(kNx, kNy, 1);
  init.fill(f2<double>);
  out.fill(f2<double>);
  ShardedGrid<Grid2D<double>> sg(init, {.count = 2});
  sg.scatter(init);
  plan.execute(sg);
  sg.gather(out);
  EXPECT_EQ(max_abs_diff(init, out), 0.0);
}

TEST(ShardedPlan, RejectsBadDecompositions) {
  const auto s2 = make_2d5p<double>(0.5, 0.12, 0.13);
  Options o;
  o.steps = 1;
  // Inner axis.
  EXPECT_THROW(
      make_sharded_plan(shape2d(kNx, kNy), s2, {.axis = 0, .count = 2}, o),
      ConfigError);
  // More shards than slabs.
  EXPECT_THROW(
      make_sharded_plan(shape2d(kNx, kNy), s2, {.count = int(kNy) + 1}, o),
      ConfigError);
  // Shards thinner than the radius (1D r=2: 5 slabs over 3 shards -> 2,2,1).
  const auto s1 = make_1d5p<double>();
  EXPECT_THROW(make_sharded_plan(shape1d(5, 2), s1, {.count = 3}, o),
               ConfigError);
  // Rank mismatch between shape and stencil.
  EXPECT_THROW(make_sharded_plan(shape1d(kNx1), s2, {.count = 2}, o),
               ConfigError);
}

TEST(ShardedPlan, RejectsMismatchedShardedGrid) {
  const auto s = make_2d5p<double>(0.5, 0.12, 0.13);
  Options o;
  o.steps = 1;
  const auto plan = make_sharded_plan(shape2d(kNx, kNy), s, {.count = 2}, o);
  Grid2D<double> proto(kNx, kNy, 1);
  ShardedGrid<Grid2D<double>> wrong(proto, {.count = 3});
  EXPECT_THROW(plan.execute(wrong), ConfigError);
}

TEST(ShardedPlan, ShardPlansRunSingleStepsWithCappedTeams) {
  const auto s = make_2d5p<double>(0.5, 0.12, 0.13);
  Options o;
  o.method = Method::kTranspose;
  o.tiling = Tiling::kTessellate;
  o.steps = kSteps;
  const auto plan = make_sharded_plan(
      shape2d(kNx, kNy), s, {.count = 2, .threads_per_shard = 1}, o);
  EXPECT_EQ(plan.steps(), kSteps);
  EXPECT_EQ(plan.shards(), 2);
  for (int i = 0; i < plan.shards(); ++i) {
    EXPECT_EQ(plan.shard_plan(i).config().steps, 1);
    EXPECT_EQ(plan.shard_plan(i).config().threads, 1);
    // The shard plans never see the split-axis condition: the step loop
    // owns every ghost write, so their y boundary is frozen Dirichlet.
    EXPECT_EQ(plan.shard_plan(i).config().boundary.y, Boundary::kDirichlet);
  }
}

}  // namespace
}  // namespace tsv
