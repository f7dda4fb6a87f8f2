#pragma once
// Tiled method drivers: each paper method composed with its tiling framework.
//
//  * tess_autovec_run      — "Tessellation" baseline (Yuan SC'17): tessellate
//                            tiling + compiler-vectorized kernels.
//  * tess_multiload/reorg  — ablation variants.
//  * tess_generic_run      — the generic interpreter under tessellation.
//  * tess_transpose_run    — the paper's scheme ("Our"): tessellate tiling +
//                            transpose-layout vector sets; partial sets at
//                            moving tile edges via the layout index map.
//  * tess_transpose_uj2_run— "Our (2 steps)": tessellation at two-step *pair*
//                            granularity (triangle slope 2r per pair, paper
//                            Fig. 5); the intermediate odd time level lives
//                            only in a per-thread L1/L2 scratch, so main
//                            memory sees one read + one write per two steps.
//  * sdsl_run              — SDSL baseline (Henretty ICS'13): DLT layout +
//                            split tiling (1D: triangles over DLT columns
//                            with a wrapped seam at the lane boundary;
//                            2D/3D: hybrid tiling — outer-dimension
//                            tessellation over full DLT rows/planes).
//
// Every driver serves ranks 1-3 through one tessellation engine (tess.hpp)
// and takes its blocks as {bx, by, bz} (entries beyond the rank ignored).
// Every driver is generic over the element type: the V-parameterized ones
// compute in vec_value_t<V>, the autovec ones in the grid's own T.
// Every driver takes a block hook (NoBlockHook in common/grid.hpp by
// default) that the engines call between time blocks, inside the layout: a
// plan polls its cancel/timeout control there. Per-step (periodic/Neumann)
// ghosts ride the same hook — the tessellation engine has it write each
// box's ghost images, the split engines have it refresh the ghosts between
// steps — so the layout transforms run once per execute whatever the
// boundary.
//
// Memory behaviour: every buffer a driver needs beyond the user's grid —
// the tessellation parity buffer, DLT staging grids, per-thread uj2 scratch
// pools — comes from the plan-owned Workspace (core/workspace.hpp), so the
// second and subsequent executes of a plan are allocation-free; the plan's
// prepare step creates them all before a driver writes the grid
// (tess_transpose_uj2_prepare covers the uj2 pool). Parity /
// staging buffers only need their *halo* refreshed per execute (every time
// unit rewrites the whole interior before reading it); per-thread pools are
// first-touched by their owning threads.
// Whole-grid passes — the layout transforms in and out and those halo
// refreshes — split their rows over the same team as the tile loops
// (omp_get_max_threads(), which a tiled plan's prepare pins); the untiled
// drivers run them on the calling thread.
// The @p stream flag (plan-resolved; see ResolvedOptions::streaming) selects
// non-temporal write-back in the vector sweeps — only ever enabled when the
// working set exceeds the LLC threshold and the temporal block is 1, i.e.
// when there is no cache reuse for regular stores to protect.

#include <omp.h>

#include <vector>

#include "tsv/core/workspace.hpp"
#include "tsv/tiling/tess.hpp"
#include "tsv/vectorize/autovec.hpp"
#include "tsv/vectorize/dlt_method.hpp"
#include "tsv/vectorize/generic.hpp"
#include "tsv/vectorize/multiload.hpp"
#include "tsv/vectorize/reorg.hpp"
#include "tsv/vectorize/unroll_jam.hpp"

namespace tsv {

namespace detail {

/// Tessellates @p steps Jacobi steps of @p g with adv(in, out, box); the
/// parity buffer comes from @p ws (only its halo is refreshed per execute,
/// on the team). @p hook runs between time blocks of @p bt steps (see
/// NoBlockHook).
template <typename G, typename AdvanceFn, typename Hook,
          typename XMap = IdentityX>
void tess_jacobi(G& g, index steps, const Blocks& b, index bt, index slope,
                 Workspace& ws, AdvanceFn&& adv, Hook&& hook,
                 const XMap& xmap = {}) {
  G& tmp = ws_grid_like(ws, kWsTmpGrid, g);
  tmp.copy_halo_from(g, omp_get_max_threads());
  tess_engine(g, tmp, extents(g), b, steps, bt, slope, adv, hook, xmap);
}

/// Per-thread scratch pool in @p ws, one make() per thread, each
/// first-touched by its owning thread (static schedule = thread i zeroes
/// pool[i] when the team matches, which is how the tile loops index it).
template <typename Scratch, typename Make>
std::vector<Scratch>& thread_pool(Workspace& ws, std::uint64_t key,
                                  int nthreads, Make&& make) {
  using Pool = std::vector<Scratch>;
  return ws.slot<Pool>(kWsScratchPool, key, [&] {
    Pool p;
    p.reserve(static_cast<std::size_t>(nthreads));
    for (int i = 0; i < nthreads; ++i) p.push_back(make());
#pragma omp parallel for schedule(static)
    for (int i = 0; i < nthreads; ++i) p[i].zero();
    return p;
  });
}

/// The per-thread level +1 scratch pool of tess_transpose_uj2_run.
/// 1D: a row segment just wider than one tile; the level +1 range lands at
/// a block-aligned virtual row origin, and the lead halo must cover the
/// deepest left-tail vector load of the second sweep — R*W elements before
/// the first touched block when that origin sits below x = 0 of the
/// scratch. 2D/3D: a grid of full rows that holds one tile grown by R on
/// every tiled axis above x. A tile never spans more than its block on an
/// axis: triangles, boundary trapezoids and ragged last tiles are at most
/// the block, and inverted seams at most 2·slope·(tau−1) < block. (Only a
/// ring's folded tile is wider, and rings need a per-step hook, under
/// which the run takes no pool.)
template <int W, int R, typename G>
auto& uj2_pool(Workspace& ws, const G& g, const Blocks& b, int nthreads) {
  using T = typename G::value_type;
  if constexpr (G::kRank == 1) {
    constexpr index B = block_elems<W>;
    const index scr_len = (b[0] > 0 ? b[0] : g.nx()) + 2 * B + 2 * R + 16;
    const index scr_halo = std::max<index>(static_cast<index>(R) * W, 8);
    return thread_pool<ScratchRow<T>>(
        ws, ws_key(scr_len, scr_halo, nthreads), nthreads, [&] {
          return ScratchRow<T>(scr_len, scr_halo, FirstTouch::kNone);
        });
  } else {
    std::array<index, 3> se = extents(g);
    for (int k = 1; k < G::kRank; ++k)
      se[k] = (b[k] > 0 ? std::min(se[k], b[k]) : se[k]) + 2 * R + 4;
    return thread_pool<G>(
        ws, ws_key(se[0], se[1], se[2], R, nthreads), nthreads, [&] {
          return make_grid<G>(se, std::max<index>(R, 1), FirstTouch::kNone);
        });
  }
}

}  // namespace detail

template <typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void tess_autovec_run(G& g, const S& s, index steps,
                                   const Blocks& b, index bt, Workspace& ws,
                                   Hook&& hook = {}) {
  detail::tess_jacobi(
      g, steps, b, bt, S::radius, ws,
      [&](const G& in, G& out, const Box& r) {
        autovec_step_region(in, out, s, r);
      },
      hook);
}

template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void tess_multiload_run(G& g, const S& s, index steps,
                                     const Blocks& b, index bt, Workspace& ws,
                                     Hook&& hook = {}) {
  detail::tess_jacobi(
      g, steps, b, bt, S::radius, ws,
      [&](const G& in, G& out, const Box& r) {
        multiload_step_region<V>(in, out, s, r);
      },
      hook);
}

template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void tess_reorg_run(G& g, const S& s, index steps,
                                 const Blocks& b, index bt, Workspace& ws,
                                 Hook&& hook = {}) {
  detail::tess_jacobi(
      g, steps, b, bt, S::radius, ws,
      [&](const G& in, G& out, const Box& r) {
        reorg_step_region<V>(in, out, s, r);
      },
      hook);
}

template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void tess_generic_run(G& g, const S& s, index steps,
                                   const Blocks& b, index bt, Workspace& ws,
                                   Hook&& hook = {}) {
  detail::tess_jacobi(
      g, steps, b, bt, S::radius, ws,
      [&](const G& in, G& out, const Box& r) {
        generic_step_region<V>(in, out, s, r);
      },
      hook);
}

template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void tess_transpose_run(G& g, const S& s, index steps,
                                     const Blocks& b, index bt, Workspace& ws,
                                     bool stream = false, Hook&& hook = {}) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  detail::require_transpose_conforming(g, W);
  const int team = omp_get_max_threads();
  block_transpose_grid<T, W>(g, team);
  detail::tess_jacobi(
      g, steps, b, bt, S::radius, ws,
      [&](const G& in, G& out, const Box& r) {
        if (stream)  // fences once per region
          transpose_step<V, true>(in, out, s, r);
        else
          transpose_step<V>(in, out, s, r);
      },
      hook, BlockTransposedX<W>{});
  block_transpose_grid<T, W>(g, team);
}

/// "Our (2 steps)" with tiling: pair-granular tessellation. @p bt is the time
/// range in *steps* (must be even when tiling is active). A pair advances a
/// box in two sweeps: level +1 over the box grown by R (clipped to the
/// domain) into a per-thread scratch, then level +2 from the scratch into
/// the opposite parity buffer. @p hook runs between time blocks (see
/// NoBlockHook). A per-step hook needs every level's ghosts, which a pair
/// does not have: the run then advances single tiled steps (the odd tail's
/// sweep, slope R) in time blocks of @p bt steps, and takes no scratch
/// pool.
template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void tess_transpose_uj2_run(G& g, const S& s, index steps,
                                         const Blocks& b, index bt,
                                         Workspace& ws, Hook&& hook = {}) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  constexpr int R = S::radius;
  using Rows = decltype(tap_rows(s));
  detail::require_transpose_conforming(g, W);
  const bool single = hook.per_step();
  if (!single)
    require_fmt(bt % 2 == 0, "uj2 tiling: time range bt=", bt,
                " must be even");
  const Rows rows = tap_rows(s);
  const index nx = g.nx();
  const int nthreads = omp_get_max_threads();
  auto sweep = [&](const auto& rp, T* op, index xlo, index xhi) {
    transpose_sweep_row_region<V, R, Rows::kCap>(rp, op, rows.w, nx, xlo,
                                                 xhi);
  };
  auto run = [&](auto&& pair_adv) {
    G& tmp = ws_grid_like(ws, kWsTmpGrid, g);
    tmp.copy_halo_from(g, nthreads);
    const index pairs = single ? 0 : steps / 2;
    const BlockTransposedX<W> xmap;
    if (pairs > 0 && !tess_engine(g, tmp, extents(g), b, pairs,
                                  std::max<index>(1, bt / 2), 2 * R,
                                  pair_adv, hook, xmap))
      return;
    // The odd tail, or every step under a per-step hook: ordinary tiled
    // steps.
    if (steps > 2 * pairs)
      tess_engine(
          g, tmp, extents(g), b, steps - 2 * pairs, single ? bt : 1, R,
          [&](const G& in, G& out, const Box& r) {
            transpose_step<V>(in, out, s, r);
          },
          hook, xmap);
  };

  auto* pool = single ? nullptr : &detail::uj2_pool<W, R>(ws, g, b, nthreads);
  block_transpose_grid<T, W>(g, nthreads);
  if constexpr (G::kRank == 1) {
    constexpr index B = block_elems<W>;
    run([&](const G& in, G& out, const Box& r) {
      detail::ScratchRow<T>& scr = (*pool)[omp_get_thread_num()];
      const index c_lo = std::max<index>(0, r.xlo - R);
      const index c_hi = std::min(nx, r.xhi + R);
      const index b0 = c_lo / B * B;
      T* view = scr.x0() - b0;  // virtual row origin, block-aligned
      if (c_lo == 0)
        for (index l = 1; l <= R; ++l) view[-l] = in.x0()[-l];
      if (c_hi == nx)
        for (index l = 0; l < R; ++l) view[nx + l] = in.x0()[nx + l];
      // Level +1 (odd, transient) over the extended range into scratch.
      sweep(std::array<const T*, 1>{in.x0()}, view, c_lo, c_hi);
      // Level +2 over the store range into the opposite parity buffer.
      sweep(std::array<const T*, 1>{view}, out.x0(), r.xlo, r.xhi);
    });
  } else {
    // Scratch row (y, z) stores grid row (y + c.ylo, z + c.zlo).
    const Box dom = full_box(g);
    run([&](const G& in, G& out, const Box& r) {
      G& scr = (*pool)[omp_get_thread_num()];
      const Box c{std::max(dom.xlo, r.xlo - R), std::min(dom.xhi, r.xhi + R),
                  std::max(dom.ylo, r.ylo - R), std::min(dom.yhi, r.yhi + R),
                  std::max(dom.zlo, r.zlo - R), std::min(dom.zhi, r.zhi + R)};
      auto scr_row = [&](index y, index z) {
        return row_at(scr, y - c.ylo, z - c.zlo);
      };
      // Level +1 into the scratch rows, whose x halo carries the grid's.
      walk_rows(c, rows, rows_of(in), scr_row,
                [&](const auto& rp, T* d, index y, index z) {
                  const T* src = row_at(in, y, z);
                  for (index l = 1; l <= R; ++l) d[-l] = src[-l];
                  for (index l = 0; l < R; ++l) d[nx + l] = src[nx + l];
                  sweep(rp, d, c.xlo, c.xhi);
                });
      // Level +2 into the opposite parity buffer; rows outside the grown box
      // are grid halo rows.
      auto l1_row = [&](index y, index z) -> const T* {
        const bool inside =
            y >= c.ylo && y < c.yhi && z >= c.zlo && z < c.zhi;
        return inside ? scr_row(y, z) : row_at(in, y, z);
      };
      walk_rows(r, rows, l1_row, rows_of(out),
                [&](const auto& rp, T* op, index, index) {
                  sweep(rp, op, r.xlo, r.xhi);
                });
    });
  }
  block_transpose_grid<T, W>(g, nthreads);
}

/// Creates every workspace slot tess_transpose_uj2_run(g, s, steps, b, bt,
/// ws, hook) fetches under the calling thread's OpenMP team: the parity
/// buffer and, unless the run advances @p single_steps (a per-step hook),
/// the per-thread scratch pool.
template <typename V, typename G, typename S>
void tess_transpose_uj2_prepare(const G& g, const S&, const Blocks& b,
                                bool single_steps, Workspace& ws) {
  ws_grid_like(ws, kWsTmpGrid, g);
  if (!single_steps)
    detail::uj2_pool<V::width, S::radius>(ws, g, b, omp_get_max_threads());
}

/// Split-tiling engine over DLT columns: like tess_engine on one axis (the
/// same block hook protocol and return value included), but
/// *all* tiles shrink (the domain ends are not physical boundaries —
/// columns 0 and L-1 are coupled through the lane seam) and the seam set
/// includes the wrapped seam at column 0/L, processed as two ranges.
///
/// Both stage loops stay schedule(dynamic): the last tile may be ragged
/// (tile_count rounds up) and tile 0 of the seam stage does the wrapped
/// seam's two disjoint ranges, so per-tile work is NOT homogeneous here —
/// unlike the tessellate engine (see tess.hpp), where the legality bound
/// makes all interior tiles identical and static scheduling measured no
/// worse while saving the dynamic dispatch.
template <typename GridT, typename AdvanceFn, typename Hook, typename XMap>
bool split1d_wrap_engine(GridT& A, GridT& B, index domain, index units,
                         index tau, index slope, index blk, AdvanceFn&& adv,
                         Hook&& hook, const XMap& xmap) {
  const index ntiles = tile_count(domain, blk);
  // Every tile, including a ragged last one, must be wide enough that the
  // inverted seams (and the wrapped seam) never overlap. tau == 1 degenerates
  // to plain full sweeps with no cross-tile dependencies and is always legal.
  const index last_tile = domain - (ntiles - 1) * blk;
  if (tau > 1)
    require_fmt(std::min(blk, last_tile) >= 2 * slope * tau &&
                    domain >= 2 * slope * tau,
                "split tiling: tile/domain too small for tau=", tau);
  index parity = 0;
  auto in_buf = [&](index u) -> const GridT& {
    return ((parity + u) % 2 == 0) ? A : B;
  };
  auto out_buf = [&](index u) -> GridT& {
    return ((parity + u + 1) % 2 == 0) ? A : B;
  };
  index done = 0;
  bool go = true;
  while (done < units) {
    if (!hook(parity % 2 == 0 ? A : B, xmap)) {
      go = false;
      break;
    }
    const index t = std::min(tau, units - done);
#pragma omp parallel for schedule(dynamic)
    for (index c = 0; c < ntiles; ++c)
      for (index u = 0; u < t; ++u) {
        const index lo = c * blk, hi = std::min(domain, lo + blk);
        const index a = lo + slope * u, b = hi - slope * u;
        if (a < b) adv(in_buf(u), out_buf(u), a, b);
      }
#pragma omp parallel for schedule(dynamic)
    for (index c = 0; c < ntiles; ++c)
      for (index u = 1; u < t; ++u) {
        if (c == 0) {  // wrapped seam: both domain ends, same level
          adv(in_buf(u), out_buf(u), 0, std::min(domain, slope * u));
          adv(in_buf(u), out_buf(u), std::max<index>(0, domain - slope * u),
              domain);
        } else {
          const index m = c * blk;
          adv(in_buf(u), out_buf(u), std::max<index>(0, m - slope * u),
              std::min(domain, m + slope * u));
        }
      }
    parity += t;
    done += t;
  }
  if (parity % 2 != 0) A.swap_storage(B);
  return go;
}

/// SDSL baseline (Henretty ICS'13): DLT layout + split tiling. 1D: split
/// tiling over DLT columns with a wrapped seam at the lane boundary; 2D/3D:
/// hybrid tiling — tessellation of the outermost axis (rows, planes) over
/// full DLT rows. @p split is that axis's block: DLT columns in 1D (elements
/// / W), rows in 2D, planes in 3D. @p hook runs between time blocks, inside
/// the DLT layout (see NoBlockHook).
template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void sdsl_run(G& g, const S& s, index steps, index split,
                           index bt, Workspace& ws, bool stream = false,
                           Hook&& hook = {}) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  constexpr int R = S::radius;
  require_fmt(g.nx() % W == 0, "SDSL/DLT requires nx % W == 0");
  const int team = omp_get_max_threads();
  const Box cols = dlt_columns<W>(g);
  G& dltA = ws_grid_like(ws, kWsDltA, g);
  dltA.copy_halo_from(g, team);
  dlt_forward_grid<T, W>(g, dltA, team);
  G& dltB = ws_grid_like(ws, kWsDltB, g);
  dltB.copy_halo_from(dltA, team);
  // The plan only resolves stream=true at bt == 1 — every sweep is then a
  // full pass with no cross-unit cache reuse.
  auto adv = [&](const G& in, G& out, const Box& r) {
    if (stream)  // fences once per region
      dlt_step<V, true>(in, out, s, r);
    else
      dlt_step<V>(in, out, s, r);
  };
  if constexpr (G::kRank == 1) {
    // Clamp the temporal range so the inverted seams fit the smallest tile
    // (ragged last tiles would otherwise make seam regions overlap the wrap).
    const index L = cols.xhi;
    const index ntiles = tile_count(L, split);
    const index last_tile = L - (ntiles - 1) * split;
    const index tau =
        std::max<index>(1, std::min(bt, std::min(split, last_tile) / (2 * R)));
    split1d_wrap_engine(
        dltA, dltB, L, steps, tau, R, split,
        [&](const G& in, G& out, index ilo, index ihi) {
          adv(in, out, Box{ilo, ihi});
        },
        hook, DltX<W>{});
  } else {
    Blocks blk{};  // x and the inner axis untiled: full DLT rows/planes
    blk[G::kRank - 1] = split;
    tess_engine(dltA, dltB, {cols.xhi, cols.yhi, cols.zhi}, blk, steps, bt, R,
                adv, hook, DltX<W>{});
  }
  dlt_backward_grid<T, W>(dltA, g, team);
}

}  // namespace tsv
