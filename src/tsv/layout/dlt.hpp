#pragma once
// Dimension-Lifting Transpose (Henretty CC'11) — the baseline layout the
// paper compares against.
//
// A row of interior length n (multiple of W) is viewed as a W × (n/W) matrix
// in row-major order and globally transposed: element j·L + i (lane j,
// column i, L = n/W) moves to position i·W + j. A vectorized stencil then
// loads aligned vectors at (i±s)·W with no lane conflicts; only the W-1 lane
// seams (columns 0 and L-1) need cross-lane assembly.
//
// As the paper notes (§2.2), DLT is impractical to apply in place, so the
// transforms are out-of-place into a caller-provided scratch row.

#include <type_traits>

#include "tsv/common/check.hpp"
#include "tsv/common/grid.hpp"

namespace tsv {

/// Position of interior element @p x in the DLT layout of a row of length n.
template <int W>
constexpr index dlt_offset(index x, index n) {
  const index L = n / W;
  const index j = x / L;  // lane
  const index i = x % L;  // column
  return i * W + j;
}

namespace detail {
template <int W>
void require_dlt_row(index n, const char* what) {
  require_fmt(n % W == 0, what, ": n=", n, " not a multiple of W=",
              static_cast<index>(W));
}

template <typename T, int W>
void dlt_forward(const T* src, T* dst, index n) {
  const index L = n / W;
  for (index i = 0; i < L; ++i)
    for (index j = 0; j < W; ++j) dst[i * W + j] = src[j * L + i];
}

template <typename T, int W>
void dlt_backward(const T* src, T* dst, index n) {
  const index L = n / W;
  for (index i = 0; i < L; ++i)
    for (index j = 0; j < W; ++j) dst[j * L + i] = src[i * W + j];
}
}  // namespace detail

/// dst[i*W + j] = src[j*L + i]. n must be a multiple of W.
template <typename T, int W>
void dlt_forward_row(const T* src, T* dst, index n) {
  detail::require_dlt_row<W>(n, "dlt_forward_row");
  detail::dlt_forward<T, W>(src, dst, n);
}

/// Inverse of dlt_forward_row.
template <typename T, int W>
void dlt_backward_row(const T* src, T* dst, index n) {
  detail::require_dlt_row<W>(n, "dlt_backward_row");
  detail::dlt_backward<T, W>(src, dst, n);
}

/// Whole-grid DLT of a Grid1D/2D/3D of T; @p dst must have the same shape as
/// @p src. The rows split over a team of @p team threads (team_for: a team
/// of 1 runs on the calling thread); the nx check runs once, before any row
/// moves. For rank >= 2 the y/z halo rows are transformed too (neighbour-row
/// loads must share the layout); the x halo of each row keeps original order
/// and is read by the seam-handling code.
template <typename T, int W, typename G>
void dlt_forward_grid(const G& src, G& dst, int team = 1) {
  static_assert(std::is_same_v<typename G::value_type, T>);
  detail::require_dlt_row<W>(src.nx(), "dlt_forward_grid");
  for_each_row(src, team, [&](index y, index z) {
    detail::dlt_forward<T, W>(row_at(src, y, z), row_at(dst, y, z), src.nx());
  });
}

template <typename T, int W, typename G>
void dlt_backward_grid(const G& src, G& dst, int team = 1) {
  static_assert(std::is_same_v<typename G::value_type, T>);
  detail::require_dlt_row<W>(src.nx(), "dlt_backward_grid");
  for_each_row(src, team, [&](index y, index z) {
    detail::dlt_backward<T, W>(row_at(src, y, z), row_at(dst, y, z),
                               src.nx());
  });
}

}  // namespace tsv
