#pragma once
// The paper's transpose-layout vectorization scheme (§3.2, Fig. 2-3).
//
// The grid's unit-stride rows live in register-block transpose layout (see
// layout/block_transpose.hpp). One W²-element block forms a *vector set* of W
// aligned vectors; updating a set needs only 2R assembled vectors:
//
//   * R left dependents:  assemble_left(prev-set vector W-l, vector W-l)
//     — only lane W-1 of the first operand is read; it equals element B-l.
//   * R right dependents: assemble_right(vector l-1, ·) where lane 0 of the
//     second operand is element B+W²+l-1 — a scalar broadcast from the next
//     block (position (l-1)·W when transposed) or from the original-layout
//     halo at the row end.
//
// Everything else is aligned loads, FMAs and aligned stores. Neighbour rows
// (2D/3D) contribute through the same machinery at their own row pointers;
// rows whose only tap is the centre need no assembly at all. The whole
// scheme is generic over the element type: with float elements every vector
// set covers twice the cells of the double variant at the same register
// count.

#include <algorithm>

#include "tsv/layout/block_transpose.hpp"
#include "tsv/vectorize/method_common.hpp"

namespace tsv {

namespace detail {

/// Per-tap-row sweep state: the previous set's input vectors W-R..W-1.
template <typename V, int R>
struct LeftTail {
  V v[R];

  /// Boundary initialisation: lane W-1 of v[R-l] must equal element -l,
  /// which lives at original position -l in the row's x halo.
  static LeftTail boundary(const vec_value_t<V>* row) {
    LeftTail t;
    static_for<1, R + 1>([&]<int L>() { t.v[R - L] = V::broadcast(row[-L]); });
    return t;
  }

  TSV_ALWAYS_INLINE void update_from_set(const V (&set)[V::width]) {
    static_for<0, R>([&]<int I>() { v[I] = set[V::width - R + I]; });
  }
};

/// Right-dependent scalar #l (l in 1..R) of the set with base @p base:
/// element base+W²+l-1, read from the next transposed block or, at the row
/// end, from the original-layout halo.
template <int W, typename T>
TSV_ALWAYS_INLINE T right_dep_scalar(const T* row, index base, index nx,
                               int l) {
  const index x = base + W * W + (l - 1);
  return (x < nx) ? row[base + W * W + (l - 1) * W] : row[x];
}

/// The tap-accumulate body shared by the transpose sweep and uj's set_step:
/// adds one tap row to the W accumulators of a vector set. @p lt is the
/// left tail (lane W-1 of lt[R-l] = element B-l), @p v the set's W vectors
/// and @p rn the R vectors whose lane 0 holds elements B+W², ..., B+W²+R-1.
///
/// The tap loop is outer, so each live tap pays one zero test and one
/// broadcast for W FMAs. Each accumulator still receives its taps in
/// ascending dx, the order of the scalar reference, so outputs are bit
/// identical to `scalar`.
template <typename V, int R>
TSV_ALWAYS_INLINE void set_acc(const V (&lt)[R], const V (&v)[V::width],
                               const V* rn,
                               const std::array<vec_value_t<V>, 2 * R + 1>& w,
                               V (&acc)[V::width]) {
  constexpr int W = V::width;
  // All indices below are compile-time so ext/v/acc stay in registers even
  // when the surrounding function is compiled without IPA cloning.
  V ext[W + 2 * R];
  static_for<1, R + 1>(
      [&]<int L>() { ext[R - L] = assemble_left(lt[R - L], v[W - L]); });
  static_for<0, V::width>([&]<int J>() { ext[R + J] = v[J]; });
  static_for<1, R + 1>([&]<int L>() {
    ext[R + W - 1 + L] = assemble_right(v[L - 1], rn[L - 1]);
  });
  static_for<0, 2 * R + 1>([&]<int DXI>() TSV_ALWAYS_INLINE_LAMBDA {
    if (w[DXI] != 0) {
      const V wv = V::broadcast(w[DXI]);
      static_for<0, V::width>([&]<int J>() TSV_ALWAYS_INLINE_LAMBDA {
        acc[J] = fma(wv, ext[J + DXI], acc[J]);
      });
    }
  });
}

/// Accumulates one tap row into acc[W] for the vector set at @p base.
/// @p v holds the row's W input vectors; @p tail its left-tail state.
template <typename V, int R>
TSV_ALWAYS_INLINE void transpose_set_acc(
    const vec_value_t<V>* row, index base, index nx, const V (&v)[V::width],
    const std::array<vec_value_t<V>, 2 * R + 1>& w, const LeftTail<V, R>& tail,
    V (&acc)[V::width]) {
  constexpr int W = V::width;
  V rn[R];
  static_for<1, R + 1>([&]<int L>() {
    rn[L - 1] = V::broadcast(right_dep_scalar<W>(row, base, nx, L));
  });
  set_acc<V, R>(tail.v, v, rn, w, acc);
}

/// Centre-tap-only accumulation (star-stencil off-axis rows): plain FMAs.
template <typename V>
TSV_ALWAYS_INLINE void center_only_acc(const V (&v)[V::width], vec_value_t<V> wc,
                            V (&acc)[V::width]) {
  const V wv = V::broadcast(wc);
  static_for<0, V::width>([&]<int J>() { acc[J] = fma(wv, v[J], acc[J]); });
}

template <int R, typename T>
inline bool has_off_center(const std::array<T, 2 * R + 1>& w) {
  for (int dx = -R; dx <= R; ++dx)
    if (dx != 0 && w[dx + R] != 0) return true;
  return false;
}

}  // namespace detail

/// Reads interior element @p x of a transpose-layout row with original-layout
/// x halo (boundary/partial-set path).
template <int W, typename T>
TSV_ALWAYS_INLINE T load_tl(const T* row, index x, index nx) {
  return (x < 0 || x >= nx) ? row[x] : row[block_transposed_offset<W>(x)];
}

/// One Jacobi step over cells [xlo, xhi) of a row in transpose layout,
/// accumulating NR tap rows (rp[r] is the input row for tap row r; op the
/// output row; both in transpose layout with original-layout x halo; the
/// *whole* row is in transpose layout even outside the region).
///
/// Partial vector sets at the region rims (moving tile edges, paper §3.4)
/// are computed with the *same* vector kernel — input values outside
/// [xlo-R, xhi+R) may belong to other time levels, but they only reach
/// output lanes that a masked store then discards. This keeps the rims as
/// cheap as the interior, which is the goal of the paper's Fig. 5(d)
/// boundary treatment.
///
/// Stream = true writes full interior blocks with non-temporal stores (rim
/// blocks keep masked cached stores) — for working sets that exceed the
/// LLC, where write-allocate traffic is pure waste. The CALLER must execute
/// stream_fence() once per streamed step/region before another thread (or
/// the next time level) reads the output; fencing here would serialize the
/// store buffer once per row in the 2D/3D row loops. The plan layer selects
/// the instantiation via ResolvedOptions::streaming.
template <typename V, int R, int NR, bool Stream = false>
void transpose_sweep_row_region(
    const std::array<const vec_value_t<V>*, NR>& rp, vec_value_t<V>* op,
    const std::array<std::array<vec_value_t<V>, 2 * R + 1>, NR>& w, index nx,
    index xlo, index xhi) {
  constexpr int W = V::width;
  constexpr index B = block_elems<W>;
  if (xlo >= xhi) return;

  const index first = xlo / B * B;        // base of first touched block
  const index last = (xhi - 1) / B * B;   // base of last touched block

  std::array<bool, NR> off{};
  for (int r = 0; r < NR; ++r) off[r] = detail::has_off_center<R>(w[r]);

  std::array<detail::LeftTail<V, R>, NR> tails;
  for (int r = 0; r < NR; ++r) {
    if (first == 0) {
      tails[r] = detail::LeftTail<V, R>::boundary(rp[r]);
    } else {
      // Previous set exists in memory at the same time level (only its lane
      // W-1 — elements first-R..first-1, valid by the region contract — is
      // ever consumed).
      static_for<0, R>([&]<int I>() {
        tails[r].v[I] = V::load(rp[r] + (first - B) + (W - R + I) * W);
      });
    }
  }

  for (index base = first; base <= last; base += B) {
    V acc[W];
    static_for<0, W>([&]<int J>() { acc[J] = V::zero(); });
    for (int r = 0; r < NR; ++r) {
      V v[W];
      static_for<0, W>([&]<int J>() { v[J] = V::load(rp[r] + base + J * W); });
      if (off[r]) {
        detail::transpose_set_acc<V, R>(rp[r], base, nx, v, w[r], tails[r],
                                        acc);
        tails[r].update_from_set(v);
      } else {
        detail::center_only_acc<V>(v, w[r][R], acc);
      }
    }
    if (base >= xlo && base + B <= xhi) {
      static_for<0, W>([&]<int J>() {
        if constexpr (Stream)
          acc[J].stream(op + base + J * W);
        else
          acc[J].store(op + base + J * W);
      });
    } else {
      // Rim block: store only the cells inside [xlo, xhi). Lane i of vector
      // J holds x = base + i*W + J, so the lanes inside are
      // [lane(xlo), lane(xhi)) with lane(x) = ceil((x - base - J) / W)
      // clamped to [0, W].
      static_for<0, W>([&]<int J>() {
        auto lane = [&](index x) {
          const index a = x - base - J;
          return a <= 0 ? index{0} : std::min<index>(W, (a + W - 1) / W);
        };
        const unsigned mask = (1u << lane(xhi)) - (1u << lane(xlo));
        acc[J].store_mask(op + base + J * W, mask);
      });
    }
  }
}

/// Full-row sweep (whole interior).
template <typename V, int R, int NR, bool Stream = false>
inline void transpose_sweep_row(
    const std::array<const vec_value_t<V>*, NR>& rp, vec_value_t<V>* op,
    const std::array<std::array<vec_value_t<V>, 2 * R + 1>, NR>& w, index nx) {
  transpose_sweep_row_region<V, R, NR, Stream>(rp, op, w, nx, 0, nx);
}

// The hot sweep is compiled exactly once, in src/tsv/kernels_tu.cpp — a
// minimal translation unit. Large user TUs that instantiate many drivers
// push GCC's inlining/scalarization heuristics into a regime where the
// kernel's Vec register arrays get materialized on the stack (~2x slower);
// extern template pins every caller to the clean instantiation instead.
// Instantiations not on this list still compile implicitly (correct, and
// usually fine because rare combinations imply small TUs).
#define TSV_DECLARE_TRANSPOSE_SWEEP(V, R, NR)                                \
  extern template void transpose_sweep_row_region<V, R, NR, false>(          \
      const std::array<const V::value_type*, NR>&, V::value_type*,           \
      const std::array<std::array<V::value_type, 2 * R + 1>, NR>&, index,    \
      index, index);                                                         \
  extern template void transpose_sweep_row_region<V, R, NR, true>(           \
      const std::array<const V::value_type*, NR>&, V::value_type*,           \
      const std::array<std::array<V::value_type, 2 * R + 1>, NR>&, index,    \
      index, index);

#define TSV_DECLARE_TRANSPOSE_SWEEPS_FOR(V) \
  TSV_DECLARE_TRANSPOSE_SWEEP(V, 1, 1)      \
  TSV_DECLARE_TRANSPOSE_SWEEP(V, 2, 1)      \
  TSV_DECLARE_TRANSPOSE_SWEEP(V, 1, 3)      \
  TSV_DECLARE_TRANSPOSE_SWEEP(V, 1, 5)      \
  TSV_DECLARE_TRANSPOSE_SWEEP(V, 1, 9)

#if !defined(TSV_KERNELS_TU)
TSV_DECLARE_TRANSPOSE_SWEEPS_FOR(VecD2)
TSV_DECLARE_TRANSPOSE_SWEEPS_FOR(VecF4)
#if defined(__AVX2__)
TSV_DECLARE_TRANSPOSE_SWEEPS_FOR(VecD4)
TSV_DECLARE_TRANSPOSE_SWEEPS_FOR(VecF8)
#endif
#if defined(__AVX512F__)
TSV_DECLARE_TRANSPOSE_SWEEPS_FOR(VecD8)
TSV_DECLARE_TRANSPOSE_SWEEPS_FOR(VecF16)
#endif
#endif  // !TSV_KERNELS_TU

// ---- region step (grids already in transpose layout) ------------------------

/// One Jacobi step over box @p b of a transpose-layout grid of any rank.
/// Stream = true fences once at the end.
template <typename V, bool Stream = false, typename G, typename S>
void transpose_step(const G& in, G& out, const S& s, const Box& b) {
  using Rows = decltype(tap_rows(s));
  const Rows rows = tap_rows(s);
  walk_rows(b, rows, rows_of(in), rows_of(out),
            [&](const auto& rp, vec_value_t<V>* op, index, index) {
              transpose_sweep_row_region<V, S::radius, Rows::kCap, Stream>(
                  rp, op, rows.w, in.nx(), b.xlo, b.xhi);
            });
  if constexpr (Stream) stream_fence();  // once per step, not per row
}

// ---- run drivers: transform once, T steps inside the layout, transform back.

namespace detail {
template <typename Grid>
void require_transpose_conforming(const Grid& g, int width) {
  require_fmt(g.nx() % (static_cast<index>(width) * width) == 0,
              "transpose layout requires nx (", g.nx(),
              ") to be a multiple of W^2 = ", static_cast<index>(width) * width);
}
}  // namespace detail

/// Interior x index map of a block-transposed row (what a block hook fills
/// the x ghosts through). Each W^2 block maps onto itself.
template <int W>
struct BlockTransposedX {
  static constexpr index kGranule = block_elems<W>;
  constexpr index operator()(index x, index /*nx*/) const {
    return block_transposed_offset<W>(x);
  }
};

/// Workspace-backed run: the Jacobi parity buffer comes from @p ws (steady
/// state is allocation-free); @p stream selects non-temporal write-back for
/// LLC-exceeding working sets (resolved by the plan layer). @p hook runs
/// between steps, inside the layout (see NoBlockHook).
template <typename V, typename Grid, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void transpose_vs_run(Grid& g, const S& s, index steps,
                                   Workspace& ws, bool stream = false,
                                   Hook&& hook = {}) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  detail::require_transpose_conforming(g, W);
  block_transpose_grid<T, W>(g);
  if (stream)
    jacobi_run(
        g, steps, ws, kWsTmpGrid,
        [&](const Grid& in, Grid& out) {
          transpose_step<V, true>(in, out, s, full_box(in));
        },
        hook, BlockTransposedX<W>{});
  else
    jacobi_run(
        g, steps, ws, kWsTmpGrid,
        [&](const Grid& in, Grid& out) {
          transpose_step<V>(in, out, s, full_box(in));
        },
        hook, BlockTransposedX<W>{});
  block_transpose_grid<T, W>(g);
}

}  // namespace tsv
