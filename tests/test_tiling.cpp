// Tiling correctness: tessellation (all stages, all methods) must be
// bit-equivalent in shape to the untiled schedule — we verify against the
// scalar reference over exhaustive small configurations, which exercises
// every triangle/inverted-triangle/seam/boundary combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "tsv/core/plan.hpp"
#include "tsv/kernels/reference.hpp"
#include "tsv/tiling/tiled.hpp"

namespace tsv {
namespace {

constexpr double kTol = 1e-11;

double f1(index x) { return std::sin(0.037 * x) + 0.01 * x; }
double f2(index x, index y) { return std::sin(0.037 * x + 0.11 * y) - 0.002 * y; }
double f3(index x, index y, index z) {
  return std::sin(0.037 * x + 0.11 * y - 0.05 * z) + 0.001 * (x - z);
}

template <int R, typename Fn>
void check_1d(index nx, index steps, const Stencil1D<R>& s, Fn&& fn,
              const char* what) {
  Grid1D<double> ref(nx, R), got(nx, R);
  ref.fill(f1);
  got.fill(f1);
  reference_run(ref, s, steps);
  Workspace ws;
  fn(got, s, steps, ws);
  EXPECT_LE(max_abs_diff(ref, got), kTol)
      << what << " nx=" << nx << " T=" << steps;
}

// ---- 1D exhaustive sweeps ----------------------------------------------------

TEST(Tess1D, AutovecAllConfigs) {
  const auto s = make_1d3p(0.32);
  for (index nx : {32, 48, 97})
    for (index bx : {16, 32})
      for (index bt : {1, 2, 3, 4})
        for (index steps : {0, 1, 3, 6, 7}) {
          if (tile_count(nx, bx) > 1 && bx < 2 * 1 * bt) continue;
          check_1d(nx, steps, s,
                   [&](auto& g, auto& st, index t, Workspace& ws) {
                     tess_autovec_run(g, st, t, {bx}, bt, ws);
                   },
                   "tess-autovec");
        }
}

TEST(Tess1D, AutovecRadius2) {
  const auto s = make_1d5p(0.05, 0.2, 0.5);
  for (index bx : {24, 48})
    for (index bt : {2, 4})
      for (index steps : {3, 8}) {
        if (24 < 2 * 2 * bt && bx == 24) continue;
        check_1d(96, steps, s,
                 [&](auto& g, auto& st, index t, Workspace& ws) {
                   tess_autovec_run(g, st, t, {bx}, bt, ws);
                 },
                 "tess-autovec-r2");
      }
}

template <typename V>
void transpose_tiled_1d_sweep() {
  constexpr int W = V::width;
  const auto s = make_1d3p(0.29);
  const index nx = 8 * W * W;
  for (index bx : {2 * W * W, 4 * W * W})
    for (index bt : {1, 2, 4})
      for (index steps : {0, 1, 4, 7}) {
        if (bx < 2 * bt) continue;
        check_1d(nx, steps, s,
                 [&](auto& g, auto& st, index t, Workspace& ws) {
                   tess_transpose_run<V>(g, st, t, {bx}, bt, ws);
                 },
                 "tess-transpose");
      }
  // Radius-2 stencil, tile edges cut through vector sets.
  const auto s5 = make_1d5p(0.06, 0.2, 0.44);
  for (index steps : {2, 5})
    check_1d(nx, steps, s5,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               tess_transpose_run<V>(g, st, t, {2 * W * W}, 2, ws);
             },
             "tess-transpose-r2");
}

TEST(Tess1D, TransposeW2) { transpose_tiled_1d_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess1D, TransposeAvx2) { transpose_tiled_1d_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess1D, TransposeAvx512) { transpose_tiled_1d_sweep<Vec<double, 8>>(); }
#endif

/// The ISA whose f64 kernels are V wide (the scalar ISA runs the 128-bit
/// generic kernels).
template <typename V>
constexpr Isa isa_of() {
  return V::width == 2   ? Isa::kScalar
         : V::width == 4 ? Isa::kAvx2
                         : Isa::kAvx512;
}

/// Runs @p steps of a transpose-uj2 x tessellate plan at V's width, pinned
/// to blocks @p b and temporal block @p bt, on @p g. The tiled 2-step row has
/// no driver of its own: the plan runs transpose's tessellated steps.
template <typename V, typename G, typename S>
void run_uj2_plan(G& g, const S& s, index steps, const Blocks& b, index bt,
                  Workspace& ws) {
  Options o;
  o.method = Method::kTransposeUJ;
  o.tiling = Tiling::kTessellate;
  o.isa = isa_of<V>();
  o.steps = steps;
  o.bx = b[0];
  o.by = b[1];
  o.bz = b[2];
  o.bt = bt;
  make_plan(shape_of(g), s, o).execute(g, ws);
}

template <typename V>
void uj2_tiled_1d_sweep() {
  constexpr int W = V::width;
  const auto s = make_1d3p(0.27);
  const index nx = 8 * W * W;
  for (index bx : {2 * W * W, 4 * W * W})
    for (index bt : {2, 3, 4})
      for (index steps : {0, 2, 4, 6, 7, 9}) {
        if (bx < 2 * bt) continue;
        check_1d(nx, steps, s,
                 [&](auto& g, auto& st, index t, Workspace& ws) {
                   run_uj2_plan<V>(g, st, t, {bx}, bt, ws);
                 },
                 "tess-uj2");
      }
  const auto s5 = make_1d5p(0.05, 0.22, 0.4);
  for (index steps : {4, 5})
    check_1d(nx, steps, s5,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               run_uj2_plan<V>(g, st, t, {4 * W * W}, 2, ws);
             },
             "tess-uj2-r2");
}

TEST(Tess1D, Uj2W2) { uj2_tiled_1d_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess1D, Uj2Avx2) { uj2_tiled_1d_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess1D, Uj2Avx512) { uj2_tiled_1d_sweep<Vec<double, 8>>(); }
#endif

template <typename V>
void sdsl_1d_sweep() {
  constexpr int W = V::width;
  const auto s = make_1d3p(0.3);
  const index nx = 64 * W;  // L = 64 columns
  for (index bi : {16, 32})
    for (index bt : {2, 4})
      for (index steps : {0, 1, 4, 9}) {
        if (bi < 2 * bt) continue;
        check_1d(nx, steps, s,
                 [&](auto& g, auto& st, index t, Workspace& ws) {
                   sdsl_run<V>(g, st, t, bi, bt, ws);
                 },
                 "sdsl");
      }
  const auto s5 = make_1d5p(0.07, 0.2, 0.42);
  check_1d(nx, 6, s5,
           [&](auto& g, auto& st, index t, Workspace& ws) {
             sdsl_run<V>(g, st, t, 16, 2, ws);
           },
           "sdsl-r2");
}

TEST(Split1D, SdslW2) { sdsl_1d_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Split1D, SdslAvx2) { sdsl_1d_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Split1D, SdslAvx512) { sdsl_1d_sweep<Vec<double, 8>>(); }
#endif

TEST(Tess1D, MultiloadAndReorgTiled) {
  const auto s = make_1d3p(0.26);
  using V = Vec<double, 2>;
  for (index steps : {3, 6}) {
    check_1d(96, steps, s,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               tess_multiload_run<V>(g, st, t, {32}, 3, ws);
             },
             "tess-multiload");
    check_1d(96, steps, s,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               tess_reorg_run<V>(g, st, t, {32}, 3, ws);
             },
             "tess-reorg");
  }
}

TEST(Split1D, RaggedLastTileIsSafe) {
  // Regression: a ragged last tile smaller than 2*r*bt used to let the
  // inverted seam overrun the domain (heap overflow) and overlap the wrap
  // seam. The driver must clamp the temporal range and stay correct.
  using V = Vec<double, 2>;
  const auto s = make_1d3p(0.3);
  // L = 123 columns, bi = 32 -> last tile 27 < 2*1*16.
  const index nx = 2 * 123;
  for (index bt : {4, 16, 64})
    check_1d(nx, 9, s,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               sdsl_run<V>(g, st, t, 32, bt, ws);
             },
             "sdsl-ragged");
}

TEST(Tess1D, RaggedLastTileIsSafe) {
  const auto s = make_1d3p(0.28);
  for (index nx : {70, 100})
    for (index bt : {2, 4})
      check_1d(nx, 7, s,
               [&](auto& g, auto& st, index t, Workspace& ws) {
                 tess_autovec_run(g, st, t, {32}, bt, ws);
               },
               "tess-ragged");
}

TEST(Tess1D, RejectsBadBlocking) {
  const auto s = make_1d3p();
  Grid1D<double> g(64, 1);
  g.fill(f1);
  // Multiple tiles with bx < 2*r*bt must be rejected.
  Workspace ws;
  EXPECT_THROW(tess_autovec_run(g, s, 4, {8}, 8, ws), std::invalid_argument);
}

// ---- the tessellation engine's schedule ---------------------------------------
// Drives the one engine directly on one thread with an advance callback that
// records the unit each cell has reached. Every cell must advance exactly
// once per unit, each box must be one time level, the parity buffers must
// alternate with that level, and every input within `slope` of a cell must
// be at the level being read — or one above, whose write went to the other
// buffer — when the cell advances. On a ring axis (a periodic axis whose
// ghost images the hook writes) the inputs wrap around the domain; on any
// other axis they stop at its edges.

/// A hook that tiles the axes in @p mask as rings (see NoBlockHook).
struct RingHook {
  unsigned mask = 0;
  static constexpr bool per_step() { return true; }
  unsigned wraps() const { return mask; }
  template <typename G, typename XMap>
  bool operator()(G&, const XMap&) const {
    return true;
  }
  template <typename G, typename XMap>
  void images(G&, const Box&, const XMap&) const {}
};

void check_engine_schedule(int rank, index slope, index tau,
                           unsigned ring = 0, bool z_one_tile = false) {
  const index blk = 2 * slope * tau + 3;  // legal; no extent is a multiple
  // Rings: x's ragged last tile (one cell) folds into its neighbour, y has
  // exactly two tiles, z a ragged third tile wide enough to stay a tile.
  const index n[3] = {ring ? 2 * blk + 1 : 2 * blk + 5,
                      ring ? 2 * blk : blk + 4,
                      ring ? 3 * blk - 1 : blk + 2};
  std::array<index, 3> ext{1, 1, 1};
  Blocks b{};  // axes beyond the rank stay untiled
  for (int a = 0; a < rank; ++a) {
    ext[a] = n[a];
    b[a] = blk;
  }
  if (z_one_tile) b[2] = 0;  // z one tile of n[2] planes
  const index units = tau + 2;  // one full time block and a partial one
  std::vector<index> level(static_cast<std::size_t>(ext[0] * ext[1] * ext[2]));
  auto at = [&](index x, index y, index z) -> index& {
    return level[static_cast<std::size_t>((z * ext[1] + y) * ext[0] + x)];
  };
  // Input coordinate v + d along axis a, or -1 when it leaves the domain.
  auto input = [&](index v, index d, int a) -> index {
    const index w = v + d;
    if (ring >> a & 1u) return (w + ext[a]) % ext[a];
    return w < 0 || w >= ext[a] ? -1 : w;
  };
  const index sy = rank >= 2 ? slope : 0, sz = rank >= 3 ? slope : 0;
  Grid1D<float> A(1, 0), B(1, 0);  // the engine only routes and swaps them
  index bad_box = 0, bad_buffer = 0, bad_input = 0, advanced = 0;
  tess_engine(
      A, B, ext, b, units, tau, slope,
      [&](const Grid1D<float>& in, Grid1D<float>& out, const Box& r) {
        const index l = at(r.xlo, r.ylo, r.zlo);
        if (&in != (l % 2 == 0 ? &A : &B) || &out != (l % 2 == 0 ? &B : &A))
          ++bad_buffer;
        for (index z = r.zlo; z < r.zhi; ++z)
          for (index y = r.ylo; y < r.yhi; ++y)
            for (index x = r.xlo; x < r.xhi; ++x) {
              if (at(x, y, z) != l) ++bad_box;
              for (index dz = -sz; dz <= sz; ++dz)
                for (index dy = -sy; dy <= sy; ++dy)
                  for (index dx = -slope; dx <= slope; ++dx) {
                    const index xx = input(x, dx, 0), yy = input(y, dy, 1),
                                zz = input(z, dz, 2);
                    if (xx < 0 || yy < 0 || zz < 0) continue;
                    const index m = at(xx, yy, zz);
                    if (m != l && m != l + 1) ++bad_input;
                  }
              at(x, y, z) = l + 1;
              ++advanced;
            }
      },
      RingHook{ring});
  index wrong_count = 0;
  for (index v : level) wrong_count += v != units;
  const std::string what = "rank " + std::to_string(rank) + " slope " +
                           std::to_string(slope) + " tau " +
                           std::to_string(tau) + " ring " +
                           std::to_string(ring) + " z one tile " +
                           std::to_string(z_one_tile);
  EXPECT_EQ(wrong_count, 0) << what;
  EXPECT_EQ(advanced, units * static_cast<index>(level.size())) << what;
  EXPECT_EQ(bad_box, 0) << what;
  EXPECT_EQ(bad_buffer, 0) << what;
  EXPECT_EQ(bad_input, 0) << what;
}

TEST(TessEngine, EveryCellAdvancesOncePerUnitAfterItsInputs) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  for (int rank = 1; rank <= 3; ++rank)
    for (index slope : {1, 2})  // radius-1 and radius-2 stencils
      for (index tau = 1; tau <= 4; ++tau)
        check_engine_schedule(rank, slope, tau);
  for (index tau = 1; tau <= 4; ++tau) check_engine_schedule(1, 4, tau);
  // z one tile of several planes: the units sweep it as a wavefront.
  for (index slope : {1, 2})
    for (index tau = 1; tau <= 4; ++tau)
      check_engine_schedule(3, slope, tau, 0, true);
  omp_set_num_threads(saved);
}

// Ring axes: every tile shrinks at both ends and a wrapped seam covers the
// domain ends; each (cell, unit) still advances exactly once, after its
// wrapped inputs. Every axis a ring, and the outermost one alone.
TEST(TessEngine, RingAxesAdvanceEveryCellOncePerUnit) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  for (int rank = 1; rank <= 3; ++rank)
    for (unsigned ring : {(1u << rank) - 1, 1u << (rank - 1)})
      for (index slope : {1, 2})
        for (index tau = 1; tau <= 4; ++tau)
          check_engine_schedule(rank, slope, tau, ring);
  // A periodic z left as one tile has no wrap seam to order its wrapped
  // reads, so each unit sweeps it whole: alone, and with x and y rings.
  for (unsigned ring : {4u, 7u})
    for (index slope : {1, 2})
      for (index tau = 1; tau <= 4; ++tau)
        check_engine_schedule(3, slope, tau, ring, true);
  omp_set_num_threads(saved);
}

// ---- 2D ----------------------------------------------------------------------

template <int R, int NR, typename Fn>
void check_2d(index nx, index ny, index steps, const Stencil2D<R, NR>& s,
              Fn&& fn, const char* what) {
  Grid2D<double> ref(nx, ny, R), got(nx, ny, R);
  ref.fill(f2);
  got.fill(f2);
  reference_run(ref, s, steps);
  Workspace ws;
  fn(got, s, steps, ws);
  EXPECT_LE(max_abs_diff(ref, got), kTol)
      << what << " " << nx << "x" << ny << " T=" << steps;
}

TEST(Tess2D, AutovecConfigs) {
  const auto s = make_2d5p(0.45, 0.14, 0.13);
  for (index bx : {16, 32})
    for (index by : {8, 16})
      for (index bt : {2, 4})
        for (index steps : {0, 3, 7}) {
          if (bx < 2 * bt || by < 2 * bt) continue;
          check_2d(32, 24, steps, s,
                   [&](auto& g, auto& st, index t, Workspace& ws) {
                     tess_autovec_run(g, st, t, {bx, by}, bt, ws);
                   },
                   "tess2d-autovec");
        }
}

TEST(Tess2D, AutovecBox) {
  const auto s = make_2d9p(0.21, 0.1, 0.07);
  check_2d(32, 24, 6, s,
           [&](auto& g, auto& st, index t, Workspace& ws) {
             tess_autovec_run(g, st, t, {16, 12}, 3, ws);
           },
           "tess2d-autovec-box");
}

template <typename V>
void tess2d_transpose_sweep() {
  constexpr int W = V::width;
  const auto s5 = make_2d5p(0.44, 0.15, 0.12);
  const auto s9 = make_2d9p(0.19, 0.11, 0.06);
  const index nx = 4 * W * W;
  for (index steps : {0, 3, 6}) {
    check_2d(nx, 24, steps, s5,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               tess_transpose_run<V>(g, st, t, {2 * W * W, 12}, 3, ws);
             },
             "tess2d-transpose");
    check_2d(nx, 24, steps, s9,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               tess_transpose_run<V>(g, st, t, {2 * W * W, 12}, 3, ws);
             },
             "tess2d-transpose-box");
    check_2d(nx, 24, steps, s5,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               sdsl_run<V>(g, st, t, 12, 3, ws);
             },
             "sdsl2d");
  }
}

TEST(Tess2D, TransposeW2) { tess2d_transpose_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess2D, TransposeAvx2) { tess2d_transpose_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess2D, TransposeAvx512) { tess2d_transpose_sweep<Vec<double, 8>>(); }
#endif

// ---- 3D ----------------------------------------------------------------------

template <int R, int NR, typename Fn>
void check_3d(index nx, index ny, index nz, index steps,
              const Stencil3D<R, NR>& s, Fn&& fn, const char* what) {
  Grid3D<double> ref(nx, ny, nz, R), got(nx, ny, nz, R);
  ref.fill(f3);
  got.fill(f3);
  reference_run(ref, s, steps);
  Workspace ws;
  fn(got, s, steps, ws);
  EXPECT_LE(max_abs_diff(ref, got), kTol)
      << what << " " << nx << "x" << ny << "x" << nz << " T=" << steps;
}

TEST(Tess3D, Autovec) {
  const auto s = make_3d7p(0.4, 0.1, 0.11, 0.09);
  check_3d(24, 16, 16, 5, s,
           [&](auto& g, auto& st, index t, Workspace& ws) {
             tess_autovec_run(g, st, t, {12, 8, 8}, 2, ws);
           },
           "tess3d-autovec");
}

template <typename V>
void tess3d_transpose_sweep() {
  constexpr int W = V::width;
  const auto s7 = make_3d7p(0.41, 0.09, 0.1, 0.12);
  const auto s27 = make_3d27p(0.12);
  const index nx = 2 * W * W;
  for (index steps : {0, 3, 6}) {
    check_3d(nx, 16, 16, steps, s7,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               tess_transpose_run<V>(g, st, t, {W * W, 8, 8}, 2, ws);
             },
             "tess3d-transpose");
    check_3d(nx, 16, 16, steps, s27,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               run_uj2_plan<V>(g, st, t, {W * W, 8, 8}, 2, ws);
             },
             "tess3d-uj2-box");
    check_3d(nx, 16, 16, steps, s7,
             [&](auto& g, auto& st, index t, Workspace& ws) {
               sdsl_run<V>(g, st, t, 8, 2, ws);
             },
             "sdsl3d");
  }
}

TEST(Tess3D, TransposeW2) { tess3d_transpose_sweep<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Tess3D, TransposeAvx2) { tess3d_transpose_sweep<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Tess3D, TransposeAvx512) { tess3d_transpose_sweep<Vec<double, 8>>(); }
#endif

// The tiled 2-step row is an alias of transpose x tessellate: per rank,
// under a zero and a periodic boundary, on teams of 1 and 3, at an odd bt,
// a transpose-uj2 plan resolves a transpose plan's blocks, prepares the
// same workspace slots, is bytewise equal to the transpose plan pinned to
// those blocks, and matches the scalar oracle.
template <typename G, typename S>
void check_uj2_alias(const G& init, const S& s, const Blocks& b, int team,
                     Boundary bc) {
  Options o;
  o.method = Method::kTransposeUJ;
  o.tiling = Tiling::kTessellate;
  o.steps = 7;
  o.bx = b[0];
  o.by = b[1];
  o.bz = b[2];
  o.bt = 3;
  o.threads = team;
  o.boundary = BoundarySpec::uniform(bc);
  const Shape sh = shape_of(init);
  const std::string what = std::to_string(sh.rank) + "D " +
                           boundary_name(bc) + " team " +
                           std::to_string(team);
  const auto uj = make_plan(sh, s, o);
  const ResolvedOptions& r = uj.config();
  Options t = o;
  t.method = Method::kTranspose;
  const ResolvedOptions rt = make_plan(sh, s, t).config();
  EXPECT_EQ(r.bt, 3) << what;
  EXPECT_EQ(r.bx, rt.bx) << what;
  EXPECT_EQ(r.by, rt.by) << what;
  EXPECT_EQ(r.bz, rt.bz) << what;
  EXPECT_EQ(r.bt, rt.bt) << what;
  t.bx = r.bx;
  t.by = r.by;
  t.bz = r.bz;
  t.bt = r.bt;
  const auto tr = make_plan(sh, s, t);

  G got = init, want = init, ref = init;
  Workspace wu, wt;
  uj.prepare(got, wu);
  tr.prepare(want, wt);
  EXPECT_EQ(wu.size(), wt.size()) << what;
  EXPECT_EQ(wu.size(), 1u) << what;
  EXPECT_NE(wu.find<G>(kWsTmpGrid), nullptr) << what;
  EXPECT_NE(wt.find<G>(kWsTmpGrid), nullptr) << what;
  uj.execute(got, wu);
  tr.execute(want, wt);
  EXPECT_EQ(max_abs_diff(want, got), 0.0) << what;
  reference_run(ref, s, o.steps, o.boundary);
  EXPECT_LE(max_abs_diff(ref, got), kTol) << what;
}

TEST(TessUj2, RowIsTransposeTessellateAlias) {
  const index W = kernel_width(best_isa(), Dtype::kF64);
  for (Boundary bc : {Boundary::kZero, Boundary::kPeriodic})
    for (int team : {1, 3}) {
      Grid1D<double> g1(8 * W * W, 2);
      g1.fill(f1);
      check_uj2_alias(g1, make_1d5p(0.05, 0.22, 0.4), {2 * W * W}, team, bc);
      Grid2D<double> g2(4 * W * W, 24, 1);
      g2.fill(f2);
      check_uj2_alias(g2, make_2d9p(0.19, 0.11, 0.06), {0, 8}, team, bc);
      Grid3D<double> g3(2 * W * W, 16, 12, 1);
      g3.fill(f3);
      check_uj2_alias(g3, make_3d7p(0.41, 0.09, 0.1, 0.12), {0, 8, 6}, team,
                      bc);
    }
}

}  // namespace
}  // namespace tsv
