// Cross-method equivalence suite: every vectorization method must reproduce
// the scalar reference on every stencil, for several sizes, step counts and
// vector widths (generic W=2, AVX2 W=4, AVX-512 W=8).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <tuple>

#include "tsv/kernels/reference.hpp"
#include "tsv/vectorize/autovec.hpp"
#include "tsv/vectorize/dlt_method.hpp"
#include "tsv/vectorize/generic.hpp"
#include "tsv/vectorize/multiload.hpp"
#include "tsv/vectorize/reorg.hpp"
#include "tsv/vectorize/transpose_vs.hpp"
#include "tsv/vectorize/unroll_jam.hpp"

namespace tsv {
namespace {

constexpr double kTol = 1e-11;

// Smooth-ish but non-symmetric deterministic field; nonzero halo values so
// boundary-handling bugs show up.
double field1(index x) { return std::sin(0.037 * x) + 0.01 * x; }
double field2(index x, index y) {
  return std::sin(0.037 * x + 0.11 * y) + 0.003 * (x - 2 * y);
}
double field3(index x, index y, index z) {
  return std::sin(0.037 * x + 0.11 * y - 0.05 * z) + 0.002 * (x + y - z);
}

template <int R>
Grid1D<double> make_grid_1d(index nx) {
  Grid1D<double> g(nx, R);
  g.fill(field1);
  return g;
}

// Runs method_fn and the reference on identical grids and compares.
template <int R, typename Fn>
void expect_matches_reference_1d(index nx, index steps, const Stencil1D<R>& s,
                                 Fn&& method_fn) {
  Grid1D<double> ref = make_grid_1d<R>(nx);
  Grid1D<double> got = make_grid_1d<R>(nx);
  const Grid1D<double> before = got;  // bitwise snapshot
  reference_run(ref, s, steps);
  Workspace ws;
  method_fn(got, s, steps, ws);
  EXPECT_LE(max_abs_diff(ref, got), kTol) << "nx=" << nx << " T=" << steps;
  // Halo must be bitwise untouched.
  for (index l = 1; l <= R; ++l) {
    EXPECT_EQ(got.at(-l), before.at(-l)) << "left halo, nx=" << nx;
    EXPECT_EQ(got.at(nx + l - 1), before.at(nx + l - 1))
        << "right halo, nx=" << nx;
  }
}

template <int R, int NR, typename Fn>
void expect_matches_reference_2d(index nx, index ny, index steps,
                                 const Stencil2D<R, NR>& s, Fn&& method_fn) {
  Grid2D<double> ref(nx, ny, R), got(nx, ny, R);
  ref.fill(field2);
  got.fill(field2);
  reference_run(ref, s, steps);
  Workspace ws;
  method_fn(got, s, steps, ws);
  EXPECT_LE(max_abs_diff(ref, got), kTol)
      << "nx=" << nx << " ny=" << ny << " T=" << steps;
}

template <int R, int NR, typename Fn>
void expect_matches_reference_3d(index nx, index ny, index nz, index steps,
                                 const Stencil3D<R, NR>& s, Fn&& method_fn) {
  Grid3D<double> ref(nx, ny, nz, R), got(nx, ny, nz, R);
  ref.fill(field3);
  got.fill(field3);
  reference_run(ref, s, steps);
  Workspace ws;
  method_fn(got, s, steps, ws);
  EXPECT_LE(max_abs_diff(ref, got), kTol)
      << nx << "x" << ny << "x" << nz << " T=" << steps;
}

// ---- 1D, all methods, parameterized over width ------------------------------

template <typename V>
void all_methods_1d() {
  constexpr int W = V::width;
  const auto s3 = make_1d3p(0.31);
  const auto s5 = make_1d5p(0.04, 0.21, 0.47);

  const index conforming[] = {W * W, 3 * W * W, 5 * W * W};
  const index steps_list[] = {0, 1, 2, 3, 7};

  for (index nx : conforming)
    for (index steps : steps_list) {
      expect_matches_reference_1d(
          nx, steps, s3, [](auto& g, auto& s, index t, Workspace& ws) {
            multiload_run<V>(g, s, t, ws);
          });
      expect_matches_reference_1d(
          nx, steps, s3, [](auto& g, auto& s, index t, Workspace& ws) {
            reorg_run<V>(g, s, t, ws);
          });
      expect_matches_reference_1d(
          nx, steps, s3, [](auto& g, auto& s, index t, Workspace& ws) {
            dlt_run<V>(g, s, t, ws);
          });
      expect_matches_reference_1d(
          nx, steps, s3, [](auto& g, auto& s, index t, Workspace& ws) {
            transpose_vs_run<V>(g, s, t, ws);
          });
      expect_matches_reference_1d(
          nx, steps, s3, [](auto& g, auto& s, index t, Workspace& ws) {
            unroll_jam_run<V, 1, 2>(g, s, t, ws);
          });
      // Radius-2 stencil.
      expect_matches_reference_1d(
          nx, steps, s5, [](auto& g, auto& s, index t, Workspace& ws) {
            reorg_run<V>(g, s, t, ws);
          });
      expect_matches_reference_1d(
          nx, steps, s5, [](auto& g, auto& s, index t, Workspace& ws) {
            transpose_vs_run<V>(g, s, t, ws);
          });
      expect_matches_reference_1d(
          nx, steps, s5, [](auto& g, auto& s, index t, Workspace& ws) {
            unroll_jam_run<V, 2, 2>(g, s, t, ws);
          });
      if (nx / W > 2)  // DLT's own minimum-size constraint for R = 2
        expect_matches_reference_1d(
            nx, steps, s5, [](auto& g, auto& s, index t, Workspace& ws) {
              dlt_run<V>(g, s, t, ws);
            });
    }

  // Methods without layout constraints must handle awkward sizes.
  for (index nx : {static_cast<index>(2 * W + 3), static_cast<index>(101)}) {
    expect_matches_reference_1d(
        nx, 3, s3, [](auto& g, auto& s, index t, Workspace& ws) {
          multiload_run<V>(g, s, t, ws);
        });
    expect_matches_reference_1d(
        nx, 3, s3, [](auto& g, auto& s, index t, Workspace& ws) {
          reorg_run<V>(g, s, t, ws);
        });
    expect_matches_reference_1d(
        nx, 3, s3, [](auto& g, auto& s, index t, Workspace& ws) {
          autovec_run(g, s, t, ws);
        });
  }

  // Unroll factors other than the paper's K=2, including odd K and K > 2.
  for (int rep = 0; rep < 1; ++rep) {
    expect_matches_reference_1d(3 * W * W, 5, s3,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  unroll_jam_run<V, 1, 1>(g, s, t, ws);
                                });
    expect_matches_reference_1d(3 * W * W, 9, s3,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  unroll_jam_run<V, 1, 3>(g, s, t, ws);
                                });
    expect_matches_reference_1d(3 * W * W, 8, s3,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  unroll_jam_run<V, 1, 4>(g, s, t, ws);
                                });
  }
}

TEST(Methods1D, GenericW2) { all_methods_1d<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Methods1D, Avx2) { all_methods_1d<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Methods1D, Avx512) { all_methods_1d<Vec<double, 8>>(); }
#endif

TEST(Methods1D, AutovecMatchesReference) {
  const auto s5 = make_1d5p(0.04, 0.21, 0.47);
  for (index steps : {0, 1, 5})
    expect_matches_reference_1d(
        96, steps, s5, [](auto& g, auto& s, index t, Workspace& ws) {
          autovec_run(g, s, t, ws);
        });
}

// ---- layout-constraint failure injection ------------------------------------

TEST(Methods1D, LayoutMethodsRejectNonConformingSizes) {
  auto s = make_1d3p();
  Workspace ws;
  // W = 2: transpose layout needs nx % 4 == 0, DLT needs nx % 2 == 0.
  Grid1D<double> g10(10, 1);
  g10.fill(field1);
  EXPECT_THROW((transpose_vs_run<Vec<double, 2>>(g10, s, 1, ws)),
               std::invalid_argument);
  EXPECT_THROW((unroll_jam_run<Vec<double, 2>, 1, 2>(g10, s, 1, ws)),
               std::invalid_argument);
  Grid1D<double> g11(11, 1);
  g11.fill(field1);
  EXPECT_THROW((dlt_run<Vec<double, 2>>(g11, s, 1, ws)), std::invalid_argument);
  // Multiload has no constraint: same size must work.
  EXPECT_NO_THROW((multiload_run<Vec<double, 2>>(g11, s, 1, ws)));
}

// ---- 2D ----------------------------------------------------------------------

template <typename V>
void all_methods_2d() {
  constexpr int W = V::width;
  const auto s5 = make_2d5p(0.46, 0.13, 0.14);
  const auto s9 = make_2d9p(0.2, 0.11, 0.069);

  const index nx = 2 * W * W;
  for (index ny : {static_cast<index>(1), static_cast<index>(5)})
    for (index steps : {0, 1, 2, 5}) {
      expect_matches_reference_2d(nx, ny, steps, s5,
                                  [](auto& g, auto& s, index t, Workspace& ws) {
                                    multiload_run<V>(g, s, t, ws);
                                  });
      expect_matches_reference_2d(nx, ny, steps, s5,
                                  [](auto& g, auto& s, index t, Workspace& ws) {
                                    reorg_run<V>(g, s, t, ws);
                                  });
      expect_matches_reference_2d(nx, ny, steps, s5,
                                  [](auto& g, auto& s, index t, Workspace& ws) {
                                    dlt_run<V>(g, s, t, ws);
                                  });
      expect_matches_reference_2d(nx, ny, steps, s5,
                                  [](auto& g, auto& s, index t, Workspace& ws) {
                                    transpose_vs_run<V>(g, s, t, ws);
                                  });
      expect_matches_reference_2d(nx, ny, steps, s5,
                                  [](auto& g, auto& s, index t, Workspace& ws) {
                                    unroll_jam_run<V>(g, s, t, ws);
                                  });
      expect_matches_reference_2d(nx, ny, steps, s9,
                                  [](auto& g, auto& s, index t, Workspace& ws) {
                                    transpose_vs_run<V>(g, s, t, ws);
                                  });
      expect_matches_reference_2d(nx, ny, steps, s9,
                                  [](auto& g, auto& s, index t, Workspace& ws) {
                                    unroll_jam_run<V>(g, s, t, ws);
                                  });
      expect_matches_reference_2d(nx, ny, steps, s9,
                                  [](auto& g, auto& s, index t, Workspace& ws) {
                                    reorg_run<V>(g, s, t, ws);
                                  });
    }

  expect_matches_reference_2d(
      nx, 7, 3, s9, [](auto& g, auto& s, index t, Workspace& ws) {
        autovec_run(g, s, t, ws);
      });
  expect_matches_reference_2d(
      nx, 7, 3, s9, [](auto& g, auto& s, index t, Workspace& ws) {
        dlt_run<V>(g, s, t, ws);
      });
  expect_matches_reference_2d(
      nx, 7, 3, s9, [](auto& g, auto& s, index t, Workspace& ws) {
        multiload_run<V>(g, s, t, ws);
      });
}

TEST(Methods2D, GenericW2) { all_methods_2d<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Methods2D, Avx2) { all_methods_2d<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Methods2D, Avx512) { all_methods_2d<Vec<double, 8>>(); }
#endif

// ---- 3D ----------------------------------------------------------------------

template <typename V>
void all_methods_3d() {
  constexpr int W = V::width;
  const auto s7 = make_3d7p(0.39, 0.1, 0.11, 0.09);
  const auto s27 = make_3d27p(0.13);

  const index nx = W * W;
  const index ny = 4, nz = 3;
  for (index steps : {0, 1, 2, 5}) {
    expect_matches_reference_3d(nx, ny, nz, steps, s7,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  multiload_run<V>(g, s, t, ws);
                                });
    expect_matches_reference_3d(nx, ny, nz, steps, s7,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  reorg_run<V>(g, s, t, ws);
                                });
    expect_matches_reference_3d(nx, ny, nz, steps, s7,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  dlt_run<V>(g, s, t, ws);
                                });
    expect_matches_reference_3d(nx, ny, nz, steps, s7,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  transpose_vs_run<V>(g, s, t, ws);
                                });
    expect_matches_reference_3d(nx, ny, nz, steps, s7,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  unroll_jam_run<V>(g, s, t, ws);
                                });
    expect_matches_reference_3d(nx, ny, nz, steps, s27,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  transpose_vs_run<V>(g, s, t, ws);
                                });
    expect_matches_reference_3d(nx, ny, nz, steps, s27,
                                [](auto& g, auto& s, index t, Workspace& ws) {
                                  unroll_jam_run<V>(g, s, t, ws);
                                });
  }
  expect_matches_reference_3d(nx, ny, nz, 2, s27,
                              [](auto& g, auto& s, index t, Workspace& ws) {
                                autovec_run(g, s, t, ws);
                              });
}

TEST(Methods3D, GenericW2) { all_methods_3d<Vec<double, 2>>(); }
#if defined(__AVX2__)
TEST(Methods3D, Avx2) { all_methods_3d<Vec<double, 4>>(); }
#endif
#if defined(__AVX512F__)
TEST(Methods3D, Avx512) { all_methods_3d<Vec<double, 8>>(); }
#endif

// ---- region sweep contract -----------------------------------------------------

template <typename V>
void check_region_writes_only_range() {
  constexpr int W = V::width;
  const index nx = 4 * W * W;
  const auto s = make_1d3p(0.3);
  Grid1D<double> in(nx, 1), out(nx, 1), ref(nx, 1);
  in.fill(field1);
  ref.fill(field1);
  reference_step(ref, ref, s);  // unused content; just shape

  block_transpose_grid<double, W>(in);
  // Sweep several awkward sub-ranges; cells outside must stay poisoned.
  for (index xlo : {static_cast<index>(0), static_cast<index>(3),
                    static_cast<index>(W * W - 1)})
    for (index xhi : {xlo + 1, static_cast<index>(2 * W * W + 5), nx}) {
      out.fill([](index) { return -777.0; });
      transpose_sweep_row_region<V, 1, 1>({in.x0()}, out.x0(), {s.w}, nx, xlo,
                                          xhi);
      for (index x = 0; x < nx; ++x) {
        const double v = out.x0()[block_transposed_offset<W>(x)];
        if (x < xlo || x >= xhi) {
          EXPECT_EQ(v, -777.0) << "leak at x=" << x << " range [" << xlo
                               << "," << xhi << ")";
        } else {
          EXPECT_NE(v, -777.0) << "missing write at x=" << x;
        }
      }
    }
}

TEST(RegionSweep, WritesOnlyRangeW2) {
  check_region_writes_only_range<Vec<double, 2>>();
}
#if defined(__AVX2__)
TEST(RegionSweep, WritesOnlyRangeAvx2) {
  check_region_writes_only_range<Vec<double, 4>>();
}
#endif
#if defined(__AVX512F__)
TEST(RegionSweep, WritesOnlyRangeAvx512) {
  check_region_writes_only_range<Vec<double, 8>>();
}
#endif

// ---- region contract: one region sweep per method, every rank ----------------
// The tiled drivers hand a region sweep one tile box at a time and rely on
// its contract: every cell inside the box is bit-equal to a full-grid step,
// every cell outside it (halo included) is untouched. Checked on random
// sub-boxes against a sentinel fill, for each method's single region sweep
// at ranks 1-3 in both dtypes. The layout methods (transpose, DLT) run in
// their layout and are compared after the backward transform; the DLT box
// counts x in DLT columns, so it covers cells whose x % (nx / W) lies in it.

enum class Sweep { kAutovec, kMultiload, kReorg, kGeneric, kTranspose, kDlt };

template <typename V, typename G, typename S>
void check_region_contract(Sweep m, const S& s, std::mt19937& rng) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  const index h = S::radius;
  const std::array<index, 3> ext{512, 7, 5};
  const Box dom = full_box(make_grid<G>(ext, h));
  const index L = dom.xhi / W;  // DLT columns per row
  const T sentinel = T(-777.0);
  // Every cell of a grid, halo included on the grid's own axes.
  auto for_all = [&](auto&& f) {
    const index hy = G::kRank >= 2 ? h : 0, hz = G::kRank >= 3 ? h : 0;
    for (index z = dom.zlo - hz; z < dom.zhi + hz; ++z)
      for (index y = dom.ylo - hy; y < dom.yhi + hy; ++y)
        for (index x = -h; x < dom.xhi + h; ++x) f(x, y, z);
  };
  auto sweep = [&](const G& in, G& out, const Box& b) {
    switch (m) {
      case Sweep::kAutovec: autovec_step_region(in, out, s, b); break;
      case Sweep::kMultiload: multiload_step_region<V>(in, out, s, b); break;
      case Sweep::kReorg: reorg_step_region<V>(in, out, s, b); break;
      case Sweep::kGeneric: generic_step_region<V>(in, out, s, b); break;
      case Sweep::kTranspose: transpose_step<V>(in, out, s, b); break;
      case Sweep::kDlt: dlt_step<V>(in, out, s, b); break;
    }
  };
  // Logical layout -> the sweep's layout and back.
  auto to_layout = [&](const G& g) {
    G t = g;
    if (m == Sweep::kTranspose) block_transpose_grid<T, W>(t);
    if (m == Sweep::kDlt) dlt_forward_grid<T, W>(g, t);
    return t;
  };
  auto to_logical = [&](const G& t) {
    G g = t;
    if (m == Sweep::kTranspose) block_transpose_grid<T, W>(g);
    if (m == Sweep::kDlt) dlt_backward_grid<T, W>(t, g);
    return g;
  };
  const index xdom = m == Sweep::kDlt ? L : dom.xhi;

  G in = make_grid<G>(ext, h);
  for_all([&](index x, index y, index z) {
    row_at(in, y, z)[x] =
        T(0.5 + 0.4 * std::sin(0.031 * double(x) + 0.7 * double(y) -
                               0.3 * double(z)));
  });
  const G src = to_layout(in);
  G full = src;
  Box all = dom;
  all.xhi = xdom;
  sweep(src, full, all);
  const G ref = to_logical(full);

  auto draw = [&](index lo, index hi) {  // non-empty [a, b) in [lo, hi)
    std::uniform_int_distribution<index> d(lo, hi - 1);
    index a = d(rng), b = d(rng);
    if (a > b) std::swap(a, b);
    return std::pair<index, index>{a, b + 1};
  };
  for (int k = 0; k < 8; ++k) {
    Box b = all;
    if (k > 0) {  // k == 0: the whole domain
      std::tie(b.xlo, b.xhi) = draw(0, xdom);
      std::tie(b.ylo, b.yhi) = draw(dom.ylo, dom.yhi);
      std::tie(b.zlo, b.zhi) = draw(dom.zlo, dom.zhi);
    }
    G out = make_grid<G>(ext, h);
    for_all([&](index x, index y, index z) {
      row_at(out, y, z)[x] = sentinel;
    });
    sweep(src, out, b);
    const G got = to_logical(out);
    index wrong = 0, leaked = 0;
    for_all([&](index x, index y, index z) {
      const bool interior = x >= 0 && x < dom.xhi && y >= dom.ylo &&
                            y < dom.yhi && z >= dom.zlo && z < dom.zhi;
      const index xb = m == Sweep::kDlt ? (interior ? x % L : -1) : x;
      const bool inside = interior && xb >= b.xlo && xb < b.xhi &&
                          y >= b.ylo && y < b.yhi && z >= b.zlo && z < b.zhi;
      const T v = row_at(got, y, z)[x];
      if (inside && !(v == row_at(ref, y, z)[x])) ++wrong;
      if (!inside && !(v == sentinel)) ++leaked;
    });
    EXPECT_EQ(wrong, 0) << "sweep " << int(m) << " rank " << G::kRank
                        << " W=" << W << " box x[" << b.xlo << "," << b.xhi
                        << ") y[" << b.ylo << "," << b.yhi << ") z["
                        << b.zlo << "," << b.zhi << ")";
    EXPECT_EQ(leaked, 0) << "sweep " << int(m) << " rank " << G::kRank
                         << " W=" << W;
  }
}

template <typename V>
void region_contract_all_sweeps() {
  using T = vec_value_t<V>;
  std::mt19937 rng(1234 + V::width);
  for (Sweep m : {Sweep::kAutovec, Sweep::kMultiload, Sweep::kReorg,
                  Sweep::kGeneric, Sweep::kTranspose, Sweep::kDlt}) {
    check_region_contract<V, Grid1D<T>>(m, make_1d3p<T>(0.3), rng);
    check_region_contract<V, Grid1D<T>>(m, make_1d5p<T>(), rng);
    check_region_contract<V, Grid2D<T>>(m, make_2d5p<T>(), rng);
    check_region_contract<V, Grid2D<T>>(m, make_2d9p<T>(), rng);
    check_region_contract<V, Grid3D<T>>(m, make_3d7p<T>(), rng);
    check_region_contract<V, Grid3D<T>>(m, make_3d27p<T>(), rng);
  }
}

TEST(RegionContract, F64W2) { region_contract_all_sweeps<Vec<double, 2>>(); }
TEST(RegionContract, F32W4) { region_contract_all_sweeps<Vec<float, 4>>(); }
#if defined(__AVX2__)
TEST(RegionContract, F64Avx2) { region_contract_all_sweeps<Vec<double, 4>>(); }
TEST(RegionContract, F32Avx2) { region_contract_all_sweeps<Vec<float, 8>>(); }
#endif
#if defined(__AVX512F__)
TEST(RegionContract, F64Avx512) {
  region_contract_all_sweeps<Vec<double, 8>>();
}
TEST(RegionContract, F32Avx512) {
  region_contract_all_sweeps<Vec<float, 16>>();
}
#endif

// ---- float methods: every kernel in single precision -------------------------

// Bounded away from zero: ULP comparisons are meaningful for O(1)-magnitude
// values, while cells near zero see cancellation-amplified relative error.
template <typename T>
T ffield1(index x) {
  return T(1.5 + std::sin(0.037 * double(x)) + 0.01 * double(x % 61));
}

// Runs method_fn and the same-dtype reference on identical float grids and
// compares under the dtype-aware tolerance (check.hpp policy).
template <typename V, int R, typename Fn>
void expect_matches_float_reference_1d(index nx, index steps,
                                       const Stencil1D<R, float>& s,
                                       Fn&& method_fn) {
  Grid1D<float> ref(nx, R), got(nx, R);
  ref.fill(ffield1<float>);
  got.fill(ffield1<float>);
  reference_run(ref, s, steps);
  Workspace ws;
  method_fn(got, s, steps, ws);
  EXPECT_LE(max_abs_diff(ref, got), accuracy_tolerance<float>(steps))
      << "nx=" << nx << " T=" << steps << " W=" << V::width;
}

template <typename V>
void all_float_methods_1d() {
  constexpr int W = V::width;
  const auto s3 = make_1d3p<float>(0.31);
  const auto s5 = make_1d5p<float>(0.04, 0.21, 0.47);
  for (index nx : {static_cast<index>(W * W), static_cast<index>(3 * W * W)})
    for (index steps : {0, 1, 2, 7}) {
      expect_matches_float_reference_1d<V>(
          nx, steps, s3,
          [](auto& g, auto& s, index t, Workspace& ws) {
            multiload_run<V>(g, s, t, ws);
          });
      expect_matches_float_reference_1d<V>(
          nx, steps, s3,
          [](auto& g, auto& s, index t, Workspace& ws) {
            reorg_run<V>(g, s, t, ws);
          });
      expect_matches_float_reference_1d<V>(
          nx, steps, s3,
          [](auto& g, auto& s, index t, Workspace& ws) {
            dlt_run<V>(g, s, t, ws);
          });
      expect_matches_float_reference_1d<V>(
          nx, steps, s3,
          [](auto& g, auto& s, index t, Workspace& ws) {
            transpose_vs_run<V>(g, s, t, ws);
          });
      expect_matches_float_reference_1d<V>(
          nx, steps, s3, [](auto& g, auto& s, index t, Workspace& ws) {
            unroll_jam_run<V, 1, 2>(g, s, t, ws);
          });
      expect_matches_float_reference_1d<V>(
          nx, steps, s5,
          [](auto& g, auto& s, index t, Workspace& ws) {
            transpose_vs_run<V>(g, s, t, ws);
          });
    }
}

TEST(FloatMethods1D, GenericW4) { all_float_methods_1d<Vec<float, 4>>(); }
#if defined(__AVX2__)
TEST(FloatMethods1D, Avx2W8) { all_float_methods_1d<Vec<float, 8>>(); }
#endif
#if defined(__AVX512F__)
TEST(FloatMethods1D, Avx512W16) { all_float_methods_1d<Vec<float, 16>>(); }
#endif

template <typename V>
void float_methods_2d_3d() {
  constexpr int W = V::width;
  const auto tol = [](index steps) { return accuracy_tolerance<float>(steps); };
  Workspace ws;
  {
    const auto s = make_2d5p<float>(0.46, 0.13, 0.14);
    const index nx = W * W, ny = 5, steps = 3;
    Grid2D<float> ref(nx, ny, 1), got(nx, ny, 1);
    auto f = [](index x, index y) {
      return float(std::sin(0.037 * double(x) + 0.11 * double(y)));
    };
    ref.fill(f);
    got.fill(f);
    reference_run(ref, s, steps);
    transpose_vs_run<V>(got, s, steps, ws);
    EXPECT_LE(max_abs_diff(ref, got), tol(steps)) << "2d W=" << W;
    Grid2D<float> got_uj(nx, ny, 1);
    got_uj.fill(f);
    unroll_jam_run<V>(got_uj, s, steps, ws);
    EXPECT_LE(max_abs_diff(ref, got_uj), tol(steps)) << "2d uj W=" << W;
  }
  {
    const auto s = make_3d7p<float>(0.39, 0.1, 0.11, 0.09);
    const index nx = W * W, ny = 4, nz = 3, steps = 2;
    Grid3D<float> ref(nx, ny, nz, 1), got(nx, ny, nz, 1);
    auto f = [](index x, index y, index z) {
      return float(std::sin(0.037 * double(x) + 0.11 * double(y) -
                            0.05 * double(z)));
    };
    ref.fill(f);
    got.fill(f);
    reference_run(ref, s, steps);
    transpose_vs_run<V>(got, s, steps, ws);
    EXPECT_LE(max_abs_diff(ref, got), tol(steps)) << "3d W=" << W;
  }
}

TEST(FloatMethods2D3D, GenericW4) { float_methods_2d_3d<Vec<float, 4>>(); }
#if defined(__AVX2__)
TEST(FloatMethods2D3D, Avx2W8) { float_methods_2d_3d<Vec<float, 8>>(); }
#endif
#if defined(__AVX512F__)
TEST(FloatMethods2D3D, Avx512W16) { float_methods_2d_3d<Vec<float, 16>>(); }
#endif

// ---- float-vs-double ULP bound ------------------------------------------------
// The float run must track the double run to within a small number of float
// ulps per step: the only divergence sources are rounding (0.5 ulp/op) and
// reassociation, both of which scale with the step count.

int64_t float_ulp_distance(float a, float b) {
  auto key = [](float x) {
    int32_t i;
    std::memcpy(&i, &x, sizeof(i));
    // Map the sign-magnitude float ordering onto a monotone integer line.
    return (i < 0) ? int64_t{INT32_MIN} - i : int64_t{i};
  };
  const int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

template <typename V>
void float_tracks_double_within_ulps() {
  constexpr int W = V::width;
  const index nx = 4 * W * W;
  const index steps = 6;
  const auto sd = make_1d3p(0.33);
  const auto sf = make_1d3p<float>(0.33);

  Grid1D<double> gd(nx, 1);
  Grid1D<float> gf(nx, 1);
  gd.fill([](index x) { return double(ffield1<float>(x)); });  // same values
  gf.fill(ffield1<float>);
  reference_run(gd, sd, steps);
  Workspace ws;
  transpose_vs_run<V>(gf, sf, steps, ws);

  // Rounding + reassociation contribute a few ulps per step, and boundary
  // cells see mild cancellation that amplifies the relative error; 4
  // ulps/step (+ the final cast) covers both with margin.
  const int64_t bound = 4 * steps + 4;
  for (index x = 0; x < nx; ++x)
    EXPECT_LE(float_ulp_distance(gf.at(x), float(gd.at(x))), bound)
        << "x=" << x << " W=" << W;
}

TEST(FloatVsDouble, UlpBoundGenericW4) {
  float_tracks_double_within_ulps<Vec<float, 4>>();
}
#if defined(__AVX2__)
TEST(FloatVsDouble, UlpBoundAvx2W8) {
  float_tracks_double_within_ulps<Vec<float, 8>>();
}
#endif
#if defined(__AVX512F__)
TEST(FloatVsDouble, UlpBoundAvx512W16) {
  float_tracks_double_within_ulps<Vec<float, 16>>();
}
#endif

// ---- cross-width agreement ----------------------------------------------------

#if defined(__AVX2__) && defined(__AVX512F__)
TEST(Methods1D, WidthsAgreeWithEachOther) {
  const auto s = make_1d3p(0.33);
  const index nx = 4 * 64;  // conforming for W in {2, 4, 8}
  Grid1D<double> g2 = make_grid_1d<1>(nx), g4 = make_grid_1d<1>(nx),
                 g8 = make_grid_1d<1>(nx);
  Workspace ws;
  transpose_vs_run<Vec<double, 2>>(g2, s, 6, ws);
  transpose_vs_run<Vec<double, 4>>(g4, s, 6, ws);
  transpose_vs_run<Vec<double, 8>>(g8, s, 6, ws);
  EXPECT_LE(max_abs_diff(g2, g4), kTol);
  EXPECT_LE(max_abs_diff(g4, g8), kTol);
}
#endif

}  // namespace
}  // namespace tsv
