#pragma once
// Runtime-programmable stencils (ROADMAP item 3).
//
// The precompiled Table-1 kinds cover the paper's experiments, but real
// workloads bring arbitrary shapes: anisotropic weights, radius 3 stars,
// asymmetric upwind taps, FDTD-style multi-point updates. `GenericStencil`
// describes such a shape as plain data — a rank, a list of (offset, weight)
// taps, and optionally a per-cell coefficient field — and the plan layer
// lowers it onto the same compile-time row descriptors the specialized
// kernels use (kernels/stencil.hpp), executed by the register-blocked
// interpreter in vectorize/generic.hpp (Method::kGeneric).
//
// Lowering picks the template radius R from the declared/derived radius and
// the element type T from Options::dtype, then groups taps into Row2D/Row3D
// spans. The lowered descriptors (`GenericStencil1D/2D/3D<R, T>`) satisfy
// the same implicit concept as Stencil1D/2D/3D — value_type, dim, radius,
// `rows`/`w`, `apply` — except that the row count is runtime, which is
// exactly why only the generic interpreter (and the scalar oracle) can run
// them: the specialized kernels unroll over a compile-time row count.
//
// The optional coefficient field ("scale") models out[c] = scale[c] * sum of
// taps — variable-coefficient diffusion, masks, locally-varying CFL factors.
// It is sampled over the grid *interior* (row-major, x fastest), so the
// lowered descriptor carries the extents it was built for and rejects any
// other grid shape at plan time (see check_shape).

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "tsv/common/aligned.hpp"
#include "tsv/core/problems.hpp"
#include "tsv/kernels/stencil.hpp"

namespace tsv {

/// Largest radius the generic path instantiates kernels for. Shapes beyond
/// this are rejected at validation; raising it is a compile-time knob (it
/// multiplies the interpreter instantiation count).
inline constexpr int kMaxGenericRadius = 3;

/// One tap: out[x, y, z] += weight * in[x+dx, y+dy, z+dz]. Off-rank
/// components must be zero (dy for rank 1, dz for rank <= 2).
struct GenericTap {
  int dx = 0;
  int dy = 0;
  int dz = 0;
  double weight = 0.0;

  friend bool operator==(const GenericTap&, const GenericTap&) = default;
};

/// A runtime stencil description. Plain aggregate; validated by
/// `generic_violation` when it enters the plan layer (make_plan throws
/// ConfigError with the violation text).
struct GenericStencil {
  int rank = 2;

  /// Halo radius the shape promises to stay within. 0 means "derive from
  /// the taps" (with a floor of 1 so a pointwise shape still gets a legal
  /// halo); a non-zero value both checks the taps against it and widens the
  /// halo requirement beyond the tap extent if larger.
  int radius = 0;

  /// The tap set. Duplicate offsets are rejected; zero-weight taps are
  /// legal (they drop out during lowering but still count against radius).
  std::vector<GenericTap> taps;

  /// Optional per-cell coefficient field over the grid interior, row-major
  /// with x fastest: out[c] = scale[c] * (sum of taps). Empty = absent.
  /// When present, scale_nx/ny/nz must match the grid the plan is built
  /// for (axes beyond `rank` stay 1).
  std::vector<double> scale;
  index scale_nx = 0;
  index scale_ny = 1;
  index scale_nz = 1;

  /// Largest |offset| component over the taps (0 for an empty/pointwise
  /// tap set — callers wanting the halo requirement use effective_radius).
  int derived_radius() const;

  /// The radius the plan layer lowers at: the declared radius when set,
  /// else max(derived_radius(), 1).
  int effective_radius() const;
};

/// nullptr when @p gs is well-formed, else a static string naming the first
/// violation (rank out of range, empty taps, duplicate or off-rank offsets,
/// tap beyond the declared radius, radius beyond kMaxGenericRadius,
/// non-finite weight, scale extents inconsistent with scale.size()).
const char* generic_violation(const GenericStencil& gs);

// ---------------------------------------------------------------------------
// Shape builders (validation-clean by construction).
// ---------------------------------------------------------------------------

/// Star of the given rank/radius: a center tap plus arms along each axis at
/// distances 1..radius. `center` is the center weight, `arm` every arm tap.
GenericStencil generic_star(int rank, int radius, double center, double arm);

/// Full box (Chebyshev ball): every offset with max-norm <= radius. The
/// center gets `center`, every other tap `other`.
GenericStencil generic_box(int rank, int radius, double center, double other);

/// The Table-1 kind re-expressed as a GenericStencil. @p coeffs follows the
/// kind's factory parameter order (kernels/stencil.hpp) and may be empty for
/// the factory defaults — the same contract as StencilSpec::coeffs. Throws
/// std::invalid_argument on a coefficient-count mismatch.
GenericStencil generic_from_kind(StencilKind kind,
                                 const std::vector<double>& coeffs = {});

// ---------------------------------------------------------------------------
// Lowered descriptors: what the interpreter actually executes. Produced by
// detail::lower_generic_*; user code normally never spells these.
// ---------------------------------------------------------------------------

/// Lowered 1D generic stencil: a centered tap array like Stencil1D plus the
/// optional scale field.
template <int R, typename T>
struct GenericStencil1D {
  using value_type = T;
  static constexpr int dim = 1;
  static constexpr int radius = R;

  std::array<T, 2 * R + 1> w{};  ///< weight at x-offset dx is w[dx + R]
  std::shared_ptr<const std::vector<T>> scale;  ///< null = no scale field
  index snx = 0;
  index flops_per_point = 0;

  /// Interior scale row, or nullptr when the shape has no scale field. The
  /// (y, z) coordinates every rank's accessor takes are ignored in 1D.
  const T* scale_row(index, index) const {
    return scale ? scale->data() : nullptr;
  }

  /// nullptr when this descriptor may run on a grid of the given interior
  /// extents; else the reason (the scale field is bound to exact extents).
  const char* check_shape(int rank, index nx, index ny, index nz) const {
    (void)rank; (void)ny; (void)nz;
    if (scale && nx != snx)
      return "generic scale field extents do not match the grid interior";
    return nullptr;
  }

  T apply(const T* p) const {
    T acc = 0;
    for (int dx = -R; dx <= R; ++dx) acc = madd(w[dx + R], p[dx], acc);
    return acc;
  }
};

/// Lowered 2D generic stencil: Row2D spans like Stencil2D, but the row count
/// is runtime (std::vector), bounded by 2R+1.
template <int R, typename T>
struct GenericStencil2D {
  using value_type = T;
  static constexpr int dim = 2;
  static constexpr int radius = R;

  std::vector<Row2D<R, T>> rows;
  std::shared_ptr<const std::vector<T>> scale;
  index snx = 0, sny = 0;
  index flops_per_point = 0;

  const T* scale_row(index y, index) const {
    return scale ? scale->data() + y * snx : nullptr;
  }

  const char* check_shape(int rank, index nx, index ny, index nz) const {
    (void)rank; (void)nz;
    if (scale && (nx != snx || ny != sny))
      return "generic scale field extents do not match the grid interior";
    return nullptr;
  }

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

/// Lowered 3D generic stencil: Row3D spans, runtime row count bounded by
/// (2R+1)^2.
template <int R, typename T>
struct GenericStencil3D {
  using value_type = T;
  static constexpr int dim = 3;
  static constexpr int radius = R;

  std::vector<Row3D<R, T>> rows;
  std::shared_ptr<const std::vector<T>> scale;
  index snx = 0, sny = 0, snz = 0;
  index flops_per_point = 0;

  const T* scale_row(index y, index z) const {
    return scale ? scale->data() + (z * sny + y) * snx : nullptr;
  }

  const char* check_shape(int rank, index nx, index ny, index nz) const {
    (void)rank;
    if (scale && (nx != snx || ny != sny || nz != snz))
      return "generic scale field extents do not match the grid interior";
    return nullptr;
  }

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

/// True for the lowered generic descriptors. The dispatch table uses this to
/// avoid instantiating the specialized kernels against a runtime-row type
/// (their bodies require a compile-time row count and would not compile).
template <typename S>
inline constexpr bool is_generic_stencil_v = false;
template <int R, typename T>
inline constexpr bool is_generic_stencil_v<GenericStencil1D<R, T>> = true;
template <int R, typename T>
inline constexpr bool is_generic_stencil_v<GenericStencil2D<R, T>> = true;
template <int R, typename T>
inline constexpr bool is_generic_stencil_v<GenericStencil3D<R, T>> = true;

namespace detail {

template <typename T>
std::shared_ptr<const std::vector<T>> lower_scale(const GenericStencil& gs) {
  if (gs.scale.empty()) return nullptr;
  auto v = std::make_shared<std::vector<T>>(gs.scale.size());
  for (std::size_t i = 0; i < gs.scale.size(); ++i)
    (*v)[i] = T(gs.scale[i]);
  return v;
}

/// Validated `gs` -> centered tap array. Zero-weight taps drop out here
/// (the interpreter skips structural zeros anyway; dropping them keeps the
/// lowered shape minimal).
template <int R, typename T>
GenericStencil1D<R, T> lower_generic_1d(const GenericStencil& gs) {
  GenericStencil1D<R, T> s;
  index taps = 0;
  for (const GenericTap& t : gs.taps)
    if (t.weight != 0.0) {
      s.w[t.dx + R] = T(t.weight);
      ++taps;
    }
  s.scale = lower_scale<T>(gs);
  s.snx = gs.scale_nx;
  s.flops_per_point = 2 * std::max<index>(taps, 1) - 1 + (s.scale ? 1 : 0);
  return s;
}

/// Validated `gs` -> Row2D spans grouped by dy, ascending (the same row
/// order the Table-1 factories emit).
template <int R, typename T>
GenericStencil2D<R, T> lower_generic_2d(const GenericStencil& gs) {
  GenericStencil2D<R, T> s;
  index taps = 0;
  for (int dy = -R; dy <= R; ++dy) {
    int xlo = 0, xhi = 0;
    bool any = false;
    for (const GenericTap& t : gs.taps)
      if (t.dy == dy && t.weight != 0.0) {
        xlo = any ? std::min(xlo, t.dx) : t.dx;
        xhi = any ? std::max(xhi, t.dx) : t.dx;
        any = true;
      }
    if (!any) continue;
    Row2D<R, T> row;
    row.dy = dy;
    row.xlo = xlo;
    row.xhi = xhi;
    for (const GenericTap& t : gs.taps)
      if (t.dy == dy && t.weight != 0.0) {
        row.w[t.dx - xlo] = T(t.weight);
        ++taps;
      }
    s.rows.push_back(row);
  }
  s.scale = lower_scale<T>(gs);
  s.snx = gs.scale_nx;
  s.sny = gs.scale_ny;
  s.flops_per_point = 2 * std::max<index>(taps, 1) - 1 + (s.scale ? 1 : 0);
  return s;
}

/// Validated `gs` -> Row3D spans grouped by (dz, dy), ascending.
template <int R, typename T>
GenericStencil3D<R, T> lower_generic_3d(const GenericStencil& gs) {
  GenericStencil3D<R, T> s;
  index taps = 0;
  for (int dz = -R; dz <= R; ++dz)
    for (int dy = -R; dy <= R; ++dy) {
      int xlo = 0, xhi = 0;
      bool any = false;
      for (const GenericTap& t : gs.taps)
        if (t.dz == dz && t.dy == dy && t.weight != 0.0) {
          xlo = any ? std::min(xlo, t.dx) : t.dx;
          xhi = any ? std::max(xhi, t.dx) : t.dx;
          any = true;
        }
      if (!any) continue;
      Row3D<R, T> row;
      row.dy = dy;
      row.dz = dz;
      row.xlo = xlo;
      row.xhi = xhi;
      for (const GenericTap& t : gs.taps)
        if (t.dz == dz && t.dy == dy && t.weight != 0.0) {
          row.w[t.dx - xlo] = T(t.weight);
          ++taps;
        }
      s.rows.push_back(row);
    }
  s.scale = lower_scale<T>(gs);
  s.snx = gs.scale_nx;
  s.sny = gs.scale_ny;
  s.snz = gs.scale_nz;
  s.flops_per_point = 2 * std::max<index>(taps, 1) - 1 + (s.scale ? 1 : 0);
  return s;
}

}  // namespace detail

}  // namespace tsv
