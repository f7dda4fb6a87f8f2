// Generic-stencil subsystem (core/generic_stencil.hpp + vectorize/generic.hpp).
//
//  * Equivalence: every precompiled Table-1 kind, re-expressed as a
//    GenericStencil with the same weights, must match the boundary-aware
//    scalar oracle — and a specialized vectorized plan — within the
//    check.hpp dtype tolerance, across every (tiling, isa, dtype, boundary)
//    combination the registry claims for Method::kGeneric.
//  * Validation: malformed shapes (offsets beyond the declared radius, empty
//    tap sets, rank mismatches, wrong method, inconsistent scale extents)
//    surface as structured ConfigErrors at plan time, never as crashes.
//  * Pass-through: a generic descriptor flows through the gang pool and
//    the Scheduler exactly like a compiled kind (futures resolve to the
//    oracle result).
//  * Step-slicing regression: per-step boundary refreshes and cooperative
//    cancellation share one block hook (TypedPlan::execute), so a cancel
//    delivered at step t must leave an exact t-step prefix whose ghosts
//    were refreshed before every completed step.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "tsv/kernels/reference.hpp"
#include "tsv/tsv.hpp"

namespace tsv {
namespace {

Shape shape_for(int rank, index nx, index ny, index nz, index halo) {
  Shape s;
  s.rank = rank;
  s.nx = nx;
  s.ny = rank >= 2 ? ny : 1;
  s.nz = rank >= 3 ? nz : 1;
  s.halo = halo;
  return s;
}

template <typename G>
G make_filled(const Shape& shape) {
  using T = typename G::value_type;
  auto v = [](index lin) {
    return static_cast<T>(0.25 + 1e-3 * static_cast<double>(lin % 89));
  };
  if constexpr (G::kRank == 1) {
    G g(shape.nx, shape.halo);
    g.fill([&](index x) { return v(x); });
    return g;
  } else if constexpr (G::kRank == 2) {
    G g(shape.nx, shape.ny, shape.halo);
    g.fill([&](index x, index y) { return v(x + 131 * y); });
    return g;
  } else {
    G g(shape.nx, shape.ny, shape.nz, shape.halo);
    g.fill([&](index x, index y, index z) {
      return v(x + 131 * y + 1031 * z);
    });
    return g;
  }
}

// ---------------------------------------------------------------------------
// Equivalence: generic interpreter vs oracle, across every claimed combo.
// ---------------------------------------------------------------------------

template <typename T, typename G>
void check_kind_combo(StencilKind kind, Tiling tiling, Isa isa,
                      const BoundarySpec& bc, int* executed) {
  const int rank = stencil_kind_rank(kind);
  const int radius = stencil_kind_radius(kind);
  const Shape shape =
      shape_for(rank, rank == 1 ? 130 : 57, 9, 5, radius);

  Options o;
  o.method = Method::kGeneric;
  o.tiling = tiling;
  o.isa = isa;
  o.dtype = dtype_of<T>();
  o.steps = 3;
  o.threads = 2;
  o.boundary = bc;
  if (tiling == Tiling::kTessellate) o.bt = 2;

  StencilSpec spec;
  spec.generic =
      std::make_shared<const GenericStencil>(generic_from_kind(kind));

  G got = make_filled<G>(shape);
  G ref = got;
  Plan plan;
  try {
    plan = make_plan(shape, spec, o);
  } catch (const ConfigError&) {
    return;  // combo not claimed at this rank/isa — nothing to check
  }
  plan.execute(got);
  generic_reference_run(ref, *spec.generic, o.steps, plan.config().boundary);
  EXPECT_LE(static_cast<double>(max_abs_diff(ref, got)),
            accuracy_tolerance<T>(o.steps) * 4)
      << stencil_kind_name(kind) << " " << tiling_name(tiling) << " "
      << isa_name(isa) << " " << dtype_name(o.dtype) << " bc="
      << boundary_name(bc.x);
  ++*executed;
}

template <typename T>
void check_kind_all_combos(StencilKind kind, int* executed) {
  for (Tiling tiling : {Tiling::kNone, Tiling::kTessellate})
    for (Isa isa : runnable_isas())
      for (Boundary b : all_boundaries()) {
        const BoundarySpec bc = BoundarySpec::uniform(b);
        switch (stencil_kind_rank(kind)) {
          case 1:
            check_kind_combo<T, Grid1D<T>>(kind, tiling, isa, bc, executed);
            break;
          case 2:
            check_kind_combo<T, Grid2D<T>>(kind, tiling, isa, bc, executed);
            break;
          default:
            check_kind_combo<T, Grid3D<T>>(kind, tiling, isa, bc, executed);
            break;
        }
      }
}

TEST(GenericEquivalence, EveryKindEveryClaimedComboMatchesOracle) {
  int executed = 0;
  for (StencilKind kind :
       {StencilKind::k1d3p, StencilKind::k1d5p, StencilKind::k2d5p,
        StencilKind::k2d9p, StencilKind::k3d7p, StencilKind::k3d27p}) {
    check_kind_all_combos<double>(kind, &executed);
    check_kind_all_combos<float>(kind, &executed);
  }
  // The generic rows claim every boundary, rank and dtype at both tilings,
  // so every drawn combo must have executed — nothing silently rejected.
  const int isas = static_cast<int>(runnable_isas().size());
  EXPECT_EQ(executed, 6 * 2 * isas * 2 * static_cast<int>(
                          all_boundaries().size()));
}

/// The interpreter against a specialized vectorized plan (not just the
/// scalar oracle): both run the same weights, so they must agree within the
/// reassociation tolerance.
template <typename T>
void check_against_specialized(StencilKind kind) {
  const int rank = stencil_kind_rank(kind);
  const int radius = stencil_kind_radius(kind);
  const Shape shape =
      shape_for(rank, rank == 1 ? 256 : 64, 12, 6, radius);

  Options og;
  og.method = Method::kGeneric;
  og.dtype = dtype_of<T>();
  og.steps = 4;
  Options os = og;
  os.method = Method::kMultiLoad;

  StencilSpec gspec;
  gspec.generic =
      std::make_shared<const GenericStencil>(generic_from_kind(kind));
  StencilSpec sspec;
  sspec.kind = kind;

  auto check = [&](auto grid_tag) {
    using G = decltype(grid_tag);
    G a = make_filled<G>(shape);
    G b = a;
    make_plan(shape, gspec, og).execute(a);
    make_plan(shape, sspec, os).execute(b);
    EXPECT_LE(static_cast<double>(max_abs_diff(a, b)),
              accuracy_tolerance<T>(og.steps) * 4)
        << stencil_kind_name(kind) << " " << dtype_name(og.dtype);
  };
  if (rank == 1)
    check(Grid1D<T>{1, 1});
  else if (rank == 2)
    check(Grid2D<T>{1, 1, 1});
  else
    check(Grid3D<T>{1, 1, 1, 1});
}

TEST(GenericEquivalence, MatchesSpecializedPlanBothDtypes) {
  for (StencilKind kind :
       {StencilKind::k1d3p, StencilKind::k1d5p, StencilKind::k2d5p,
        StencilKind::k2d9p, StencilKind::k3d7p, StencilKind::k3d27p}) {
    check_against_specialized<double>(kind);
    check_against_specialized<float>(kind);
  }
}

TEST(GenericEquivalence, CustomCoefficientsFollowFactoryOrder) {
  // generic_from_kind with explicit coeffs must equal the factory stencil
  // built from the same list — pins the parameter-order contract.
  const std::vector<double> c = {0.37, 0.18, 0.11};
  const Shape shape = shape_for(2, 96, 11, 1, 1);
  StencilSpec gspec;
  gspec.generic = std::make_shared<const GenericStencil>(
      generic_from_kind(StencilKind::k2d5p, c));
  Options o;
  o.method = Method::kGeneric;
  o.steps = 3;
  Grid2D<double> got = make_filled<Grid2D<double>>(shape);
  Grid2D<double> ref = got;
  make_plan(shape, gspec, o).execute(got);
  reference_run(ref, make_2d5p(c[0], c[1], c[2]), o.steps,
                BoundarySpec::uniform(Boundary::kDirichlet));
  EXPECT_LE(max_abs_diff(ref, got), accuracy_tolerance<double>(o.steps));
}

// ---------------------------------------------------------------------------
// Validation errors.
// ---------------------------------------------------------------------------

GenericStencil center_only(int rank) {
  GenericStencil gs;
  gs.rank = rank;
  gs.taps = {{0, 0, 0, 1.0}};
  return gs;
}

TEST(GenericValidation, OffsetBeyondDeclaredRadius) {
  GenericStencil gs = center_only(2);
  gs.radius = 1;
  gs.taps.push_back({2, 0, 0, 0.1});
  EXPECT_NE(generic_violation(gs), nullptr);
  StencilSpec spec;
  spec.generic = std::make_shared<const GenericStencil>(gs);
  EXPECT_THROW(make_plan(shape_for(2, 64, 8, 1, 1), spec,
                         Options{.method = Method::kGeneric}),
               ConfigError);
}

TEST(GenericValidation, EmptyTapsRejected) {
  GenericStencil gs;
  gs.rank = 1;
  EXPECT_NE(generic_violation(gs), nullptr);
  StencilSpec spec;
  spec.generic = std::make_shared<const GenericStencil>(gs);
  EXPECT_THROW(make_plan(shape_for(1, 64, 1, 1, 1), spec,
                         Options{.method = Method::kGeneric}),
               ConfigError);
}

TEST(GenericValidation, RankMismatchRejected) {
  StencilSpec spec;
  spec.generic = std::make_shared<const GenericStencil>(center_only(2));
  EXPECT_THROW(make_plan(shape_for(3, 32, 8, 8, 1), spec,
                         Options{.method = Method::kGeneric}),
               ConfigError);
}

TEST(GenericValidation, NonGenericMethodRejected) {
  StencilSpec spec;
  spec.generic = std::make_shared<const GenericStencil>(center_only(2));
  EXPECT_THROW(make_plan(shape_for(2, 64, 8, 1, 1), spec,
                         Options{.method = Method::kTranspose}),
               ConfigError);
}

TEST(GenericValidation, OffRankOffsetsAndDuplicatesRejected) {
  GenericStencil off = center_only(1);
  off.taps.push_back({0, 1, 0, 0.1});  // dy on a rank-1 shape
  EXPECT_NE(generic_violation(off), nullptr);

  GenericStencil dup = center_only(2);
  dup.taps.push_back({0, 0, 0, 0.2});
  EXPECT_NE(generic_violation(dup), nullptr);

  GenericStencil nan = center_only(2);
  nan.taps.push_back({1, 0, 0, std::nan("")});
  EXPECT_NE(generic_violation(nan), nullptr);
}

TEST(GenericValidation, ScaleExtentMismatchRejected) {
  // Inconsistent extents-vs-size is a shape violation ...
  GenericStencil gs = center_only(2);
  gs.scale.assign(10, 1.0);
  gs.scale_nx = 5;
  gs.scale_ny = 3;  // 5 * 3 != 10
  EXPECT_NE(generic_violation(gs), nullptr);

  // ... and a well-formed field still rejects a grid of OTHER extents at
  // plan time (the field is bound to the interior it was sampled over).
  gs.scale_ny = 2;
  ASSERT_EQ(generic_violation(gs), nullptr);
  StencilSpec spec;
  spec.generic = std::make_shared<const GenericStencil>(gs);
  EXPECT_THROW(make_plan(shape_for(2, 64, 8, 1, 1), spec,
                         Options{.method = Method::kGeneric}),
               ConfigError);
}

TEST(GenericValidation, LoweredScaleFieldRejectsOtherExtents) {
  // A per-cell field is bound to exact interior extents: the typed plan
  // build on a lowered descriptor vetoes a shape of other extents rather
  // than silently index the field out of range.
  GenericStencil gs = generic_from_kind(StencilKind::k2d5p);
  gs.scale.assign(static_cast<std::size_t>(64 * 12), 0.9);
  gs.scale_nx = 64;
  gs.scale_ny = 12;
  const auto lowered = detail::lower_generic_2d<1, double>(gs);
  Options o;
  o.method = Method::kGeneric;
  o.steps = 2;
  EXPECT_THROW(make_plan(shape_for(2, 32, 12, 1, 1), lowered, o),
               ConfigError);
  // The plan on the matching extents stays fine.
  EXPECT_NO_THROW(make_plan(shape_for(2, 64, 12, 1, 1), lowered, o));
}

// ---------------------------------------------------------------------------
// Pass-through: the FIFO gang pool, the Scheduler.
// ---------------------------------------------------------------------------

TEST(GenericPassThrough, FifoGangPoolServesGenericRequests) {
  StencilSpec spec;
  spec.generic = std::make_shared<const GenericStencil>(
      generic_star(2, 2, 0.4, 0.05));
  Options o;
  o.method = Method::kGeneric;
  o.steps = 3;
  o.boundary = BoundarySpec::uniform(Boundary::kNeumann);

  Grid2D<double> got =
      make_filled<Grid2D<double>>(shape_for(2, 96, 9, 1, 2));
  Grid2D<double> ref = got;
  {
    Scheduler pool({.policy = SchedPolicy::kFifo, .coalesce = false});
    pool.submit(got, spec, o).get();
  }
  generic_reference_run(ref, *spec.generic, o.steps, o.boundary);
  EXPECT_LE(max_abs_diff(ref, got), accuracy_tolerance<double>(o.steps));
}

TEST(GenericPassThrough, SchedulerServesGenericRequests) {
  const Shape base = shape_for(1, 192, 1, 1, 3);
  StencilSpec spec;
  spec.generic = std::make_shared<const GenericStencil>(
      generic_box(1, 3, 0.3, 0.05));
  Options o;
  o.method = Method::kGeneric;
  o.steps = 4;

  Grid1D<double> got = make_filled<Grid1D<double>>(base);
  Grid1D<double> ref = got;
  {
    Scheduler sched;
    auto r = sched.submit(got, spec, o).get();
    EXPECT_FALSE(r.coalesced);
  }
  generic_reference_run(ref, *spec.generic, o.steps,
                        BoundarySpec::uniform(Boundary::kDirichlet));
  EXPECT_LE(max_abs_diff(ref, got), accuracy_tolerance<double>(o.steps));
}

// ---------------------------------------------------------------------------
// Step-slicing regression: per-step boundaries + cancellation compose.
// ---------------------------------------------------------------------------

TEST(StepSlicing, CancelMidRunLeavesExactPrefixWithRefreshedGhosts) {
  // Periodic boundaries force the per-step ghost refresh; a cancellation
  // delivered before step k must leave the grid at exactly the k-step
  // oracle prefix — both features ride the plan's one block hook, so this
  // pins their composition inside the held layout.
  const Shape shape = shape_for(2, 57, 11, 1, 1);
  StencilSpec spec;
  spec.generic = std::make_shared<const GenericStencil>(
      generic_from_kind(StencilKind::k2d5p));
  Options o;
  o.method = Method::kGeneric;
  o.steps = 6;
  o.boundary = BoundarySpec::uniform(Boundary::kPeriodic);

  Grid2D<double> got = make_filled<Grid2D<double>>(shape);
  Grid2D<double> ref = got;
  const Plan plan = make_plan(shape, spec, o);

  // check() runs once before step 0 and once before each step t >= 1, so a
  // predicate that trips on its (k+1)-th call cancels after k full steps.
  constexpr int kPrefix = 2;
  int calls = 0;
  ExecControl ctl;
  ctl.cancelled = [&] { return ++calls > kPrefix; };
  Workspace ws;
  EXPECT_THROW(plan.execute(got, ws, &ctl), CancelledError);

  generic_reference_run(ref, *spec.generic, kPrefix, o.boundary);
  EXPECT_LE(max_abs_diff(ref, got), accuracy_tolerance<double>(kPrefix));

  // Same plan, inert control: the full run still completes and equals the
  // full-length oracle (the prefix really was a prefix, not a detour).
  Grid2D<double> full = make_filled<Grid2D<double>>(shape);
  Grid2D<double> full_ref = full;
  plan.execute(full);
  generic_reference_run(full_ref, *spec.generic, o.steps, o.boundary);
  EXPECT_LE(max_abs_diff(full_ref, full), accuracy_tolerance<double>(o.steps));
}

}  // namespace
}  // namespace tsv
