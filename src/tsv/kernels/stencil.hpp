#pragma once
// Compile-time stencil descriptors.
//
// A stencil is represented as a set of *rows*: for each (dy[, dz]) offset in
// the support there is a contiguous span of x-taps [xlo, xhi] with weights.
// This shape is what every vector kernel exploits: x-taps need shifted
// (assembled) vectors, while row offsets are plain strided loads. Star
// stencils have a single multi-tap row per axis line, box stencils have full
// rows — exactly the six instances of the paper's Table 1.
//
// Every descriptor is generic over the element type T (float or double); the
// trailing template parameter defaults to double so the paper-era spelling
// Stencil2D<R, NR> keeps meaning the double-precision instance. Factories
// accept double-precision weights and round them once into T.

#include <array>
#include <cmath>

#include "tsv/common/aligned.hpp"
#include "tsv/simd/vec.hpp"

namespace tsv {

/// 1D stencil of radius R: out[x] = sum_dx w[dx+R] * in[x+dx].
template <int R, typename T = double>
struct Stencil1D {
  using value_type = T;
  static constexpr int dim = 1;
  static constexpr int radius = R;
  static constexpr int ntaps = 2 * R + 1;

  std::array<T, ntaps> w{};

  /// Taps in ascending dx, each rounded like the vector kernels' fma
  /// (madd), so the reference does not depend on the compiler's choice to
  /// contract a*b + c. The 2D/3D applies add rows in table order the same
  /// way.
  T apply(const T* p) const {
    T acc = 0;
    for (int dx = -R; dx <= R; ++dx) acc = madd(w[dx + R], p[dx], acc);
    return acc;
  }

  /// mul+add count per updated point (same convention for every method).
  static constexpr index flops_per_point = 2 * ntaps - 1;
};

/// One x-tap row of a 2D stencil at vertical offset dy.
template <int R, typename T = double>
struct Row2D {
  using value_type = T;
  int dy = 0;
  int xlo = 0, xhi = 0;            // inclusive tap span
  std::array<T, 2 * R + 1> w{};    // weight for dx is w[dx - xlo]

  int ntaps() const { return xhi - xlo + 1; }
};

/// 2D stencil of radius R with NR tap rows.
template <int R, int NR, typename T = double>
struct Stencil2D {
  using value_type = T;
  static constexpr int dim = 2;
  static constexpr int radius = R;
  static constexpr int nrows = NR;

  std::array<Row2D<R, T>, NR> rows{};
  index flops_per_point = 0;  // filled by factory

  template <typename RowPtr>
  T apply(RowPtr&& row_at, index x) const {
    T acc = 0;
    for (const auto& r : rows) {
      const T* p = row_at(r.dy);
      for (int dx = r.xlo; dx <= r.xhi; ++dx)
        acc = madd(r.w[dx - r.xlo], p[x + dx], acc);
    }
    return acc;
  }
};

/// One x-tap row of a 3D stencil at offset (dy, dz).
template <int R, typename T = double>
struct Row3D {
  using value_type = T;
  int dy = 0, dz = 0;
  int xlo = 0, xhi = 0;
  std::array<T, 2 * R + 1> w{};

  int ntaps() const { return xhi - xlo + 1; }
};

/// 3D stencil of radius R with NR tap rows.
template <int R, int NR, typename T = double>
struct Stencil3D {
  using value_type = T;
  static constexpr int dim = 3;
  static constexpr int radius = R;
  static constexpr int nrows = NR;

  std::array<Row3D<R, T>, NR> rows{};
  index flops_per_point = 0;

  template <typename RowPtr>
  T apply(RowPtr&& row_at, index x) const {
    T acc = 0;
    for (const auto& r : rows) {
      const T* p = row_at(r.dy, r.dz);
      for (int dx = r.xlo; dx <= r.xhi; ++dx)
        acc = madd(r.w[dx - r.xlo], p[x + dx], acc);
    }
    return acc;
  }
};

namespace detail {
template <typename S>
index count_row_flops(const S& s) {
  index taps = 0;
  for (const auto& r : s.rows) taps += r.ntaps();
  return 2 * taps - 1;
}
}  // namespace detail

// ---------------------------------------------------------------------------
// The six stencil instances evaluated by the paper (Table 1). The explicit
// element type (make_2d5p<float>()) selects the single-precision instance.
// ---------------------------------------------------------------------------

/// 1D 3-point (paper's "1D-Heat"): a*(A[x-1] + A[x] + A[x+1]).
template <typename T = double>
Stencil1D<1, T> make_1d3p(double a = 1.0 / 3.0) {
  Stencil1D<1, T> s;
  s.w = {T(a), T(a), T(a)};
  return s;
}

/// 1D 5-point star, radius 2.
template <typename T = double>
Stencil1D<2, T> make_1d5p(double w2 = 0.05, double w1 = 0.15,
                          double wc = 0.6) {
  Stencil1D<2, T> s;
  s.w = {T(w2), T(w1), T(wc), T(w1), T(w2)};
  return s;
}

/// 2D 5-point star (paper's "2D-Heat").
template <typename T = double>
Stencil2D<1, 3, T> make_2d5p(double wc = 0.5, double wx = 0.125,
                             double wy = 0.125) {
  Stencil2D<1, 3, T> s;
  s.rows[0] = {.dy = -1, .xlo = 0, .xhi = 0, .w = {T(wy)}};
  s.rows[1] = {.dy = 0, .xlo = -1, .xhi = 1, .w = {T(wx), T(wc), T(wx)}};
  s.rows[2] = {.dy = 1, .xlo = 0, .xhi = 0, .w = {T(wy)}};
  s.flops_per_point = detail::count_row_flops(s);
  return s;
}

/// 2D 9-point box, radius 1.
template <typename T = double>
Stencil2D<1, 3, T> make_2d9p(double wc = 0.2, double edge = 0.125,
                             double corner = 0.075) {
  Stencil2D<1, 3, T> s;
  s.rows[0] = {
      .dy = -1, .xlo = -1, .xhi = 1, .w = {T(corner), T(edge), T(corner)}};
  s.rows[1] = {.dy = 0, .xlo = -1, .xhi = 1, .w = {T(edge), T(wc), T(edge)}};
  s.rows[2] = {
      .dy = 1, .xlo = -1, .xhi = 1, .w = {T(corner), T(edge), T(corner)}};
  s.flops_per_point = detail::count_row_flops(s);
  return s;
}

/// 3D 7-point star (paper's "3D-Heat").
template <typename T = double>
Stencil3D<1, 5, T> make_3d7p(double wc = 0.4, double wx = 0.1,
                             double wy = 0.1, double wz = 0.1) {
  Stencil3D<1, 5, T> s;
  s.rows[0] = {.dy = 0, .dz = -1, .xlo = 0, .xhi = 0, .w = {T(wz)}};
  s.rows[1] = {.dy = -1, .dz = 0, .xlo = 0, .xhi = 0, .w = {T(wy)}};
  s.rows[2] = {
      .dy = 0, .dz = 0, .xlo = -1, .xhi = 1, .w = {T(wx), T(wc), T(wx)}};
  s.rows[3] = {.dy = 1, .dz = 0, .xlo = 0, .xhi = 0, .w = {T(wy)}};
  s.rows[4] = {.dy = 0, .dz = 1, .xlo = 0, .xhi = 0, .w = {T(wz)}};
  s.flops_per_point = detail::count_row_flops(s);
  return s;
}

/// 3D 27-point box, radius 1.
template <typename T = double>
Stencil3D<1, 9, T> make_3d27p(double wc = 0.1) {
  Stencil3D<1, 9, T> s;
  int r = 0;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy) {
      // Weight decays with Manhattan distance; the exact values are
      // irrelevant for performance but distinct enough to catch index bugs.
      auto wgt = [&](int dx) {
        const int d = std::abs(dx) + std::abs(dy) + std::abs(dz);
        return T(d == 0 ? wc : wc / (2.0 * d + 1.0));
      };
      s.rows[r++] = {.dy = dy,
                     .dz = dz,
                     .xlo = -1,
                     .xhi = 1,
                     .w = {wgt(-1), wgt(0), wgt(1)}};
    }
  s.flops_per_point = detail::count_row_flops(s);
  return s;
}

}  // namespace tsv
