#pragma once
// The paper's register-block ("locally transposed") layout, §3.2.
//
// A unit-stride row whose interior length is a multiple of W² is split into
// blocks of W² elements. Inside block b (base B = b·W²) element B + i·W + j
// moves to position B + j·W + i — i.e. each block is transposed as a W×W
// matrix. One aligned vector at B + j·W (the j-th vector of the block's
// *vector set*) then holds elements {B + j, B + W + j, ..., B + (W-1)·W + j}.
//
// Halo cells and any x >= nx tail stay in original layout; the transforms
// below touch interior cells only.

#include <type_traits>

#include "tsv/common/check.hpp"
#include "tsv/common/grid.hpp"
#include "tsv/simd/transpose.hpp"

namespace tsv {

/// Elements per block for vector width W.
template <int W>
constexpr index block_elems = static_cast<index>(W) * W;

/// Position of interior element @p x inside a block-transposed row.
/// Involution: applying it twice yields x.
template <int W>
constexpr index block_transposed_offset(index x) {
  const index base = x / block_elems<W> * block_elems<W>;
  const index e = x - base;
  const index i = e / W, j = e % W;
  return base + j * W + i;
}

namespace detail {
template <int W>
void require_block_row(index n, const char* what) {
  require_fmt(n % block_elems<W> == 0, what, ": n=", n,
              " not a multiple of W^2=", block_elems<W>);
}

template <typename T, int W>
void transpose_blocks(T* row, index n) {
  for (index b = 0; b < n; b += block_elems<W>)
    transpose_block_inplace<T, W>(row + b);
}
}  // namespace detail

/// Transposes every W² block of @p row[0 .. n). @p n must be a multiple of
/// W²; @p row must be 64-byte aligned. The transform is its own inverse.
template <typename T, int W>
void block_transpose_row(T* row, index n) {
  detail::require_block_row<W>(n, "block_transpose_row");
  detail::transpose_blocks<T, W>(row, n);
}

/// Converts @p g (a Grid1D/2D/3D of T) between original and transpose
/// layout (self-inverse), its rows split over a team of @p team threads
/// (team_for: a team of 1 runs on the calling thread, no parallel region).
/// The nx check runs once, before any row moves.
///
/// For rank >= 2 the transform covers the y/z *halo rows* as well: stencil
/// kernels read neighbour rows at the same transposed offsets, so every row a
/// kernel can touch must share the layout. The x halo of every row stays in
/// original order — boundary assembly reads scalars from it.
template <typename T, int W, typename G>
void block_transpose_grid(G& g, int team = 1) {
  static_assert(std::is_same_v<typename G::value_type, T>);
  detail::require_block_row<W>(g.nx(), "block_transpose_grid");
  for_each_row(g, team, [&](index y, index z) {
    detail::transpose_blocks<T, W>(row_at(g, y, z), g.nx());
  });
}

/// Reads interior element @p x from a block-transposed row (boundary and
/// test helper; hot paths use vector loads).
template <typename T, int W>
T load_transposed(const T* row, index x) {
  return row[block_transposed_offset<W>(x)];
}

template <typename T, int W>
void store_transposed(T* row, index x, T v) {
  row[block_transposed_offset<W>(x)] = v;
}

}  // namespace tsv
