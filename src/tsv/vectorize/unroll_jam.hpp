#pragma once
// Time-loop unroll-and-jam (paper §3.3, Algorithm 1).
//
// 1D: a register window of K+1 vector sets slides over the row. Iteration j
// loads set j (time level 0) and raises the window sets one level each
// (downward slot loop, exactly Algorithm 1), storing a set only when it
// reaches level K — one load + one store of each set per K time steps, i.e.
// the in-CPU flops/byte ratio grows K-fold. vrl[] slots preserve each set's
// last R vectors *before* it is raised, providing the left-side lower-level
// values the in-place update would otherwise destroy. Sets beyond the array
// bounds are virtual halo sets: Dirichlet values are constant in time, so a
// broadcast is valid at every level.
//
// 2D/3D: a row (plane) can't live in registers, so the intermediate time
// level is kept in an L1/L2-resident ring of row (plane) scratch buffers and
// the final level is written in place — the same halved main-memory traffic,
// as documented in DESIGN.md §7. Implemented for K = 2 (the paper's choice).

#include <vector>

#include "tsv/vectorize/transpose_vs.hpp"

namespace tsv {

namespace detail {

/// Raises one vector set a single time level, in place (paper's Compute).
/// lt[R]: left-tail vectors (lane W-1 of lt[R-l] = element B-l at the source
/// level). rn: vectors whose lane 0 holds elements B+W², ..., B+W²+R-1 at the
/// source level (the next set's vectors 0..R-1, or halo broadcasts).
template <typename V, int R>
TSV_ALWAYS_INLINE void set_step(const V (&lt)[R], V (&v)[V::width], const V* rn,
                     const std::array<vec_value_t<V>, 2 * R + 1>& w) {
  V out[V::width];
  static_for<0, V::width>([&]<int J>() { out[J] = V::zero(); });
  set_acc<V, R>(lt, v, rn, w, out);
  static_for<0, V::width>([&]<int J>() { v[J] = out[J]; });
}

}  // namespace detail

/// Advances a transpose-layout row by K time levels in place (Algorithm 1
/// with boot and epilogue folded into the slot guards). @p row must hold a
/// whole number of W² blocks; the x halo provides Dirichlet values.
template <typename V, int R, int K>
void unroll_jam_sweep_row(vec_value_t<V>* row,
                          const std::array<vec_value_t<V>, 2 * R + 1>& w,
                          index nx) {
  constexpr int W = V::width;
  constexpr index B = block_elems<W>;
  const index nsets = nx / B;

  // VS[1..K+1]: window slots; VS[i] holds set j-K+i-1 at level K-i+1 (after
  // this iteration's update). vrl[i]: the pre-update last R vectors of the
  // set in VS[i] (its level == K-i). Index 0 of vrl is the left neighbour of
  // VS[1]'s set.
  V VS[K + 2][W];
  V vrl[K + 1][R];

  // Virtual left halo: lane W-1 of vrl[i][R-l] must be element -l.
  for (int i = 0; i <= K; ++i)
    for (int l = 1; l <= R; ++l) vrl[i][R - l] = V::broadcast(row[-l]);
  // Window slots start as virtual sets; their content is never consumed for
  // a real update until a real set has been shifted in.
  for (int i = 1; i <= K + 1; ++i)
    for (int j = 0; j < W; ++j) VS[i][j] = V::broadcast(row[-1]);

  for (index jj = 0; jj <= nsets + K - 1; ++jj) {
    // Load set jj at level 0, or the virtual right-halo set: its vector j
    // only ever contributes lane 0 = element nsets*B + j = row[nx + j].
    if (jj < nsets) {
      for (int j = 0; j < W; ++j) VS[K + 1][j] = V::load(row + jj * B + j * W);
    } else {
      for (int j = 0; j < W && j < 2 * R; ++j)
        VS[K + 1][j] = V::broadcast(row[nx + j]);
    }

    for (int i = K; i >= 1; --i) {
      const index s_idx = jj - K + i - 1;
      if (s_idx < 0 || s_idx >= nsets) continue;
      for (int r = 0; r < R; ++r) vrl[i][r] = VS[i][W - R + r];  // pre-update
      detail::set_step<V, R>(vrl[i - 1], VS[i], VS[i + 1], w);
    }

    const index store_idx = jj - K;
    if (store_idx >= 0)
      for (int j = 0; j < W; ++j) VS[1][j].store(row + store_idx * B + j * W);

    for (int i = 1; i <= K; ++i)
      for (int j = 0; j < W; ++j) VS[i][j] = VS[i + 1][j];
    for (int i = 1; i <= K; ++i)
      for (int r = 0; r < R; ++r) vrl[i - 1][r] = vrl[i][r];
  }
}

// Compiled once in src/tsv/kernels_tu.cpp; see transpose_vs.hpp for why.
#define TSV_DECLARE_UJ_SWEEP(V, R, K)                   \
  extern template void unroll_jam_sweep_row<V, R, K>(   \
      V::value_type*, const std::array<V::value_type, 2 * R + 1>&, index);

#define TSV_DECLARE_UJ_SWEEPS_FOR(V) \
  TSV_DECLARE_UJ_SWEEP(V, 1, 1)      \
  TSV_DECLARE_UJ_SWEEP(V, 1, 2)      \
  TSV_DECLARE_UJ_SWEEP(V, 1, 3)      \
  TSV_DECLARE_UJ_SWEEP(V, 1, 4)      \
  TSV_DECLARE_UJ_SWEEP(V, 2, 2)

#if !defined(TSV_KERNELS_TU)
TSV_DECLARE_UJ_SWEEPS_FOR(VecD2)
TSV_DECLARE_UJ_SWEEPS_FOR(VecF4)
#if defined(__AVX2__)
TSV_DECLARE_UJ_SWEEPS_FOR(VecD4)
TSV_DECLARE_UJ_SWEEPS_FOR(VecF8)
#endif
#if defined(__AVX512F__)
TSV_DECLARE_UJ_SWEEPS_FOR(VecD8)
TSV_DECLARE_UJ_SWEEPS_FOR(VecF16)
#endif
#endif  // !TSV_KERNELS_TU

/// 1D run driver: transform to transpose layout, ⌊T/K⌋ pipelined in-place
/// sweeps + remainder Jacobi steps, transform back. The remainder parity
/// buffer lives in @p ws. @p hook runs before every K-step sweep and every
/// remainder step (see NoBlockHook); a per-step hook needs a boundary
/// after every step, which a fused sweep does not have, so every step then
/// runs as a remainder step.
template <typename V, int R, int K = 2, typename Hook = NoBlockHook>
TSV_NOINLINE void unroll_jam_run(Grid1D<vec_value_t<V>>& g,
                                 const Stencil1D<R, vec_value_t<V>>& s,
                                 index steps, Workspace& ws,
                                 Hook&& hook = {}) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  detail::require_transpose_conforming(g, W);
  block_transpose_grid<T, W>(g);
  const index sweeps = hook.per_step() ? 0 : steps / K;
  bool go = true;
  for (index q = 0; q < sweeps; ++q) {
    if (!hook(g, BlockTransposedX<W>{})) {
      go = false;
      break;
    }
    unroll_jam_sweep_row<V, R, K>(g.x0(), s.w, g.nx());
  }
  const index rem = steps - sweeps * K;
  if (go && rem > 0)
    jacobi_run(
        g, rem, ws, kWsTmpGrid,
        [&](const Grid1D<T>& in, Grid1D<T>& out) {
          transpose_step<V>(in, out, s, full_box(in));
        },
        hook, BlockTransposedX<W>{});
  block_transpose_grid<T, W>(g);
}

// ---- 2D: ring of row buffers holding the intermediate level -----------------

namespace detail {

/// Scratch row with the same alignment/halo contract as a grid row.
template <typename T>
class ScratchRow {
 public:
  ScratchRow() = default;
  ScratchRow(index nx, index halo)
      : lead_(round_up(std::max<index>(halo, 1),
                       static_cast<index>(kAlignment / sizeof(T)))),
        buf_(lead_ + nx + lead_) {}

  T* x0() { return buf_.data() + lead_; }
  const T* x0() const { return buf_.data() + lead_; }

  /// Copies the (constant) x halo from a grid row so boundary assembly works.
  void copy_halo(const T* grid_row, index nx, index halo) {
    for (index l = 1; l <= halo; ++l) x0()[-l] = grid_row[-l];
    for (index l = 0; l < halo; ++l) x0()[nx + l] = grid_row[nx + l];
  }

 private:
  index lead_ = 0;
  AlignedBuffer<T> buf_;
};

/// The level-1 ring of the 2D driver: 2R+1 scratch rows in @p ws.
template <int R, typename T>
auto& uj_ring(Workspace& ws, const Grid2D<T>& g) {
  using Ring = std::array<ScratchRow<T>, 2 * R + 1>;
  return ws.slot<Ring>(kWsRing, ws_key(g.nx(), R), [&] {
    Ring r;
    for (auto& row : r) row = ScratchRow<T>(g.nx(), R);
    return r;
  });
}

/// The level-1 ring of the 3D driver: 2R+1 plane buffers in @p ws.
template <int R, typename T>
auto& uj_ring(Workspace& ws, const Grid3D<T>& g) {
  using Ring = std::vector<Grid2D<T>>;
  return ws.slot<Ring>(kWsRing, ws_key(g.nx(), g.ny(), R), [&] {
    Ring r;
    r.reserve(2 * R + 1);
    for (int i = 0; i < 2 * R + 1; ++i) r.emplace_back(g.nx(), g.ny(), R);
    return r;
  });
}

}  // namespace detail

/// Creates every workspace slot unroll_jam_run(g, s, steps, ws, hook)
/// fetches: the level-1 ring (2D/3D, when pairs run) and the parity buffer
/// of the remainder steps — the odd last one, or every step when
/// @p single_steps (a per-step hook).
template <int R, typename G>
void unroll_jam_prepare(const G& g, index steps, bool single_steps,
                        Workspace& ws) {
  if constexpr (G::kRank > 1)
    if (!single_steps && steps >= 2) detail::uj_ring<R>(ws, g);
  if (single_steps || steps % 2 != 0) ws_grid_like(ws, kWsTmpGrid, g);
}

/// 2D K=2 run driver (see header comment). Grid ends in original layout;
/// the level-1 row ring and the remainder parity buffer live in @p ws.
/// @p hook runs before every pair and remainder step, as in 1D.
template <typename V, int R, int NR, typename Hook = NoBlockHook>
TSV_NOINLINE void unroll_jam_run(Grid2D<vec_value_t<V>>& g,
                                 const Stencil2D<R, NR, vec_value_t<V>>& s,
                                 index steps, Workspace& ws,
                                 Hook&& hook = {}) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  detail::require_transpose_conforming(g, W);
  const index nx = g.nx(), ny = g.ny();
  const auto rows = tap_rows(s);

  block_transpose_grid<T, W>(g);

  const index pairs = hook.per_step() ? 0 : steps / 2;
  bool go = true;
  if (pairs > 0) {
    // Ring of 2R+1 level-1 rows; level-1 values of halo rows are the halo
    // rows themselves (Dirichlet), provided by pointer selection in row_l1().
    constexpr index RB = 2 * R + 1;
    auto& ring = detail::uj_ring<R>(ws, g);
    auto ring_slot = [&](index y) { return ((y % RB) + RB) % RB; };
    auto row_l1 = [&](index y) -> const T* {
      return (y < 0 || y >= ny) ? g.row(y) : ring[ring_slot(y)].x0();
    };
    for (index q = 0; q < pairs; ++q) {
      if (!hook(g, BlockTransposedX<W>{})) {
        go = false;
        break;
      }
      for (index yy = 0; yy <= ny - 1 + R; ++yy) {
        if (yy < ny) {
          // Level 1 of row yy from level-0 rows (still intact in g).
          detail::ScratchRow<T>& dst = ring[ring_slot(yy)];
          dst.copy_halo(g.row(yy), nx, R);
          std::array<const T*, NR> rp;
          for (int r = 0; r < NR; ++r) rp[r] = g.row(yy + rows.dy[r]);
          transpose_sweep_row<V, R, NR>(rp, dst.x0(), rows.w, nx);
        }
        const index y2 = yy - R;
        if (y2 >= 0 && y2 < ny) {
          // Level 2 of row y2 from the ring, written in place.
          std::array<const T*, NR> rp;
          for (int r = 0; r < NR; ++r) rp[r] = row_l1(y2 + rows.dy[r]);
          transpose_sweep_row<V, R, NR>(rp, g.row(y2), rows.w, nx);
        }
      }
    }
  }
  const index rem = steps - pairs * 2;
  if (go && rem > 0)
    jacobi_run(
        g, rem, ws, kWsTmpGrid,
        [&](const Grid2D<T>& in, Grid2D<T>& out) {
          transpose_step<V>(in, out, s, full_box(in));
        },
        hook, BlockTransposedX<W>{});
  block_transpose_grid<T, W>(g);
}

// ---- 3D: ring of plane buffers ----------------------------------------------

/// 3D K=2 run driver: the intermediate level lives in 2R+1 plane buffers
/// (Grid2D scratch, same row layout as g's planes); ring and remainder
/// parity buffer live in @p ws. @p hook runs before every pair and
/// remainder step, as in 1D.
template <typename V, int R, int NR, typename Hook = NoBlockHook>
TSV_NOINLINE void unroll_jam_run(Grid3D<vec_value_t<V>>& g,
                                 const Stencil3D<R, NR, vec_value_t<V>>& s,
                                 index steps, Workspace& ws,
                                 Hook&& hook = {}) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  detail::require_transpose_conforming(g, W);
  const index nx = g.nx(), ny = g.ny(), nz = g.nz();
  const auto rows = tap_rows(s);

  block_transpose_grid<T, W>(g);

  const index pairs = hook.per_step() ? 0 : steps / 2;
  bool go = true;
  if (pairs > 0) {
    constexpr index RB = 2 * R + 1;
    auto& ring = detail::uj_ring<R>(ws, g);
    auto ring_slot = [&](index z) { return ((z % RB) + RB) % RB; };
    // Row y of the level-1 plane z; halo planes and halo rows resolve to the
    // main grid (Dirichlet values, valid at every level).
    auto row_l1 = [&](index y, index z) -> const T* {
      if (z < 0 || z >= nz || y < 0 || y >= ny) return g.row(y, z);
      return ring[ring_slot(z)].row(y);
    };
    for (index q = 0; q < pairs; ++q) {
      if (!hook(g, BlockTransposedX<W>{})) {
        go = false;
        break;
      }
      for (index zz = 0; zz <= nz - 1 + R; ++zz) {
        if (zz < nz) {
          Grid2D<T>& dst = ring[ring_slot(zz)];
          for (index y = 0; y < ny; ++y) {
            // x halo of the scratch rows must carry the Dirichlet values.
            T* d = dst.row(y);
            const T* srow = g.row(y, zz);
            for (index l = 1; l <= R; ++l) d[-l] = srow[-l];
            for (index l = 0; l < R; ++l) d[nx + l] = srow[nx + l];
            std::array<const T*, NR> rp;
            for (int r = 0; r < NR; ++r)
              rp[r] = g.row(y + rows.dy[r], zz + rows.dz[r]);
            transpose_sweep_row<V, R, NR>(rp, d, rows.w, nx);
          }
        }
        const index z2 = zz - R;
        if (z2 >= 0 && z2 < nz) {
          for (index y = 0; y < ny; ++y) {
            std::array<const T*, NR> rp;
            for (int r = 0; r < NR; ++r)
              rp[r] = row_l1(y + rows.dy[r], z2 + rows.dz[r]);
            transpose_sweep_row<V, R, NR>(rp, g.row(y, z2), rows.w, nx);
          }
        }
      }
    }
  }
  const index rem = steps - pairs * 2;
  if (go && rem > 0)
    jacobi_run(
        g, rem, ws, kWsTmpGrid,
        [&](const Grid3D<T>& in, Grid3D<T>& out) {
          transpose_step<V>(in, out, s, full_box(in));
        },
        hook, BlockTransposedX<W>{});
  block_transpose_grid<T, W>(g);
}

}  // namespace tsv
