#pragma once
// DLT vectorization (Henretty CC'11; paper §2.2) — the milestone baseline.
//
// The grid is globally transposed per unit-stride row into the DLT layout
// (layout/dlt.hpp) once, runs all T steps inside the layout (amortizing the
// transform, as the paper's Fig. 7(a)/(b) comparison explores), and is
// transposed back. In DLT space a stencil tap at spatial offset dx is an
// aligned load at column offset dx — except at the W-1 lane seams, where the
// neighbour vector is assembled from the wrapped column and one halo scalar.

#include "tsv/layout/dlt.hpp"
#include "tsv/vectorize/method_common.hpp"

namespace tsv {

namespace detail {

/// Vector of column @p c (may be out of [0, L)) of a DLT row. @p rp is the
/// DLT-layout row; halo scalars are read from its original-layout x halo.
template <typename V>
TSV_ALWAYS_INLINE V dlt_column_vec(const vec_value_t<V>* rp, index c, index L,
                                   index nx) {
  constexpr int W = V::width;
  if (c < 0)  // lane 0 wraps to the left halo, lanes shift down
    return assemble_left(V::broadcast(rp[c]), V::load(rp + (L + c) * W));
  if (c >= L)  // lane W-1 wraps to the right halo, lanes shift up
    return assemble_right(V::load(rp + (c - L) * W),
                          V::broadcast(rp[nx + c - L]));
  return V::load(rp + c * W);
}

/// Accumulates one padded tap row at column @p i (seam-safe path).
template <typename V, int R>
TSV_ALWAYS_INLINE V dlt_row_acc_seam(const vec_value_t<V>* rp, index i, index L,
                          index nx,
                          const std::array<vec_value_t<V>, 2 * R + 1>& w,
                          V acc) {
  for (int dx = -R; dx <= R; ++dx)
    if (w[dx + R] != 0)
      acc = fma(V::broadcast(w[dx + R]), dlt_column_vec<V>(rp, i + dx, L, nx),
                acc);
  return acc;
}

/// Accumulates one padded tap row at interior column @p i (aligned loads).
template <typename V, int R>
TSV_ALWAYS_INLINE V dlt_row_acc_core(const vec_value_t<V>* rp, index i,
                          const std::array<vec_value_t<V>, 2 * R + 1>& w,
                          V acc) {
  constexpr int W = V::width;
  static_for<0, 2 * R + 1>([&]<int DXI>() {
    if (w[DXI] != 0)
      acc = fma(V::broadcast(w[DXI]), V::load(rp + (i + (DXI - R)) * W), acc);
  });
  return acc;
}

}  // namespace detail

/// One Jacobi step over columns [ilo, ihi) of a DLT-layout row accumulating
/// NR tap rows. nx must be a multiple of W and nx/W > R. Columns within R of
/// the global column ends take the seam-safe path; everything else is
/// aligned loads. Split tiling (the SDSL baseline) drives this per tile.
///
/// Stream = true writes the column vectors with non-temporal stores; the
/// CALLER fences once per streamed step/region (same contract as
/// transpose_sweep_row_region — a per-row fence would serialize the store
/// buffer once per row in the 2D/3D loops).
template <typename V, int R, int NR, bool Stream = false>
void dlt_sweep_row_region(
    const std::array<const vec_value_t<V>*, NR>& rp, vec_value_t<V>* op,
    const std::array<std::array<vec_value_t<V>, 2 * R + 1>, NR>& w, index nx,
    index ilo, index ihi) {
  constexpr int W = V::width;
  const index L = nx / W;
  const index head = std::min<index>(std::max<index>(R, ilo), ihi);
  const index tail = std::max<index>(head, std::min<index>(L - R, ihi));

  auto emit = [&](V acc, index i) TSV_ALWAYS_INLINE_LAMBDA {
    if constexpr (Stream)
      acc.stream(op + i * W);
    else
      acc.store(op + i * W);
  };
  for (index i = ilo; i < head; ++i) {
    V acc = V::zero();
    for (int r = 0; r < NR; ++r)
      acc = detail::dlt_row_acc_seam<V, R>(rp[r], i, L, nx, w[r], acc);
    emit(acc, i);
  }
  for (index i = head; i < tail; ++i) {
    V acc = V::zero();
    for (int r = 0; r < NR; ++r)
      acc = detail::dlt_row_acc_core<V, R>(rp[r], i, w[r], acc);
    emit(acc, i);
  }
  for (index i = tail; i < ihi; ++i) {
    V acc = V::zero();
    for (int r = 0; r < NR; ++r)
      acc = detail::dlt_row_acc_seam<V, R>(rp[r], i, L, nx, w[r], acc);
    emit(acc, i);
  }
}

// Compiled once in src/tsv/kernels_tu.cpp; see transpose_vs.hpp for why.
#define TSV_DECLARE_DLT_SWEEP(V, R, NR)                                      \
  extern template void dlt_sweep_row_region<V, R, NR, false>(                \
      const std::array<const V::value_type*, NR>&, V::value_type*,           \
      const std::array<std::array<V::value_type, 2 * R + 1>, NR>&, index,    \
      index, index);                                                         \
  extern template void dlt_sweep_row_region<V, R, NR, true>(                 \
      const std::array<const V::value_type*, NR>&, V::value_type*,           \
      const std::array<std::array<V::value_type, 2 * R + 1>, NR>&, index,    \
      index, index);

#define TSV_DECLARE_DLT_SWEEPS_FOR(V) \
  TSV_DECLARE_DLT_SWEEP(V, 1, 1)      \
  TSV_DECLARE_DLT_SWEEP(V, 2, 1)      \
  TSV_DECLARE_DLT_SWEEP(V, 1, 3)      \
  TSV_DECLARE_DLT_SWEEP(V, 1, 5)      \
  TSV_DECLARE_DLT_SWEEP(V, 1, 9)

#if !defined(TSV_KERNELS_TU)
TSV_DECLARE_DLT_SWEEPS_FOR(VecD2)
TSV_DECLARE_DLT_SWEEPS_FOR(VecF4)
#if defined(__AVX2__)
TSV_DECLARE_DLT_SWEEPS_FOR(VecD4)
TSV_DECLARE_DLT_SWEEPS_FOR(VecF8)
#endif
#if defined(__AVX512F__)
TSV_DECLARE_DLT_SWEEPS_FOR(VecD8)
TSV_DECLARE_DLT_SWEEPS_FOR(VecF16)
#endif
#endif  // !TSV_KERNELS_TU

// ---- region step (grids already in DLT layout) ------------------------------

/// One Jacobi step over box @p b of a DLT-layout grid of any rank; the box's
/// x range counts DLT columns, [0, nx / W) for a whole row. Stream = true
/// fences once at the end.
template <typename V, bool Stream = false, typename G, typename S>
void dlt_step(const G& in, G& out, const S& s, const Box& b) {
  using Rows = decltype(tap_rows(s));
  const Rows rows = tap_rows(s);
  walk_rows(b, rows, rows_of(in), rows_of(out),
            [&](const auto& rp, vec_value_t<V>* op, index, index) {
              dlt_sweep_row_region<V, S::radius, Rows::kCap, Stream>(
                  rp, op, rows.w, in.nx(), b.xlo, b.xhi);
            });
  if constexpr (Stream) stream_fence();  // once per step, not per row
}

/// All DLT columns of @p g: the full interior with x counted in columns.
template <int W, typename G>
Box dlt_columns(const G& g) {
  Box b = full_box(g);
  b.xhi = g.nx() / W;
  return b;
}

/// Interior x index map of a DLT row (what a block hook fills the x ghosts
/// through).
template <int W>
struct DltX {
  constexpr index operator()(index x, index nx) const {
    return dlt_offset<W>(x, nx);
  }
};

/// Full run: forward DLT (out-of-place, into a second grid — the extra array
/// the paper counts against DLT), T steps inside the layout, backward DLT.
/// The staging grid and the Jacobi parity buffer live in @p ws; @p stream
/// selects non-temporal write-back (plan-resolved); @p hook runs between
/// steps, inside the layout (see NoBlockHook).
template <typename V, typename Grid, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void dlt_run(Grid& g, const S& s, index steps, Workspace& ws,
                          bool stream = false, Hook&& hook = {}) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  require_fmt(g.nx() % W == 0, "DLT requires nx (", g.nx(),
              ") to be a multiple of W = ", static_cast<index>(W));
  require_fmt(g.nx() / W > S::radius, "DLT requires nx/W > stencil radius");
  Grid& t = ws_grid_like(ws, kWsDltA, g);
  t.copy_halo_from(g);  // seam handling reads original-layout halo scalars
  dlt_forward_grid<T, W>(g, t);
  if (stream)
    jacobi_run(
        t, steps, ws, kWsTmpGrid,
        [&](const Grid& in, Grid& out) {
          dlt_step<V, true>(in, out, s, dlt_columns<W>(in));
        },
        hook, DltX<W>{});
  else
    jacobi_run(
        t, steps, ws, kWsTmpGrid,
        [&](const Grid& in, Grid& out) {
          dlt_step<V>(in, out, s, dlt_columns<W>(in));
        },
        hook, DltX<W>{});
  dlt_backward_grid<T, W>(t, g);
}

}  // namespace tsv
