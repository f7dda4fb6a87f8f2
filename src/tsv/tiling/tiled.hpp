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
// the tessellation parity buffer, DLT staging grids — comes from the
// plan-owned Workspace (core/workspace.hpp), so the second and subsequent
// executes of a plan are allocation-free; the plan's prepare step creates
// them all before a driver writes the grid. Parity / staging buffers only
// need their *halo* refreshed per execute (every time unit rewrites the
// whole interior before reading it).
// Whole-grid passes — the layout transforms in and out and those halo
// refreshes — split their rows over the same team as the tile loops
// (omp_get_max_threads(), which a tiled plan's prepare pins); the untiled
// drivers run them on the calling thread.
// The @p stream flag (plan-resolved; see ResolvedOptions::streaming) selects
// non-temporal write-back in the vector sweeps — only ever enabled when the
// working set exceeds the LLC threshold and the temporal block is 1, i.e.
// when there is no cache reuse for regular stores to protect.

#include <omp.h>

#include "tsv/core/workspace.hpp"
#include "tsv/tiling/tess.hpp"
#include "tsv/vectorize/autovec.hpp"
#include "tsv/vectorize/dlt_method.hpp"
#include "tsv/vectorize/generic.hpp"
#include "tsv/vectorize/multiload.hpp"
#include "tsv/vectorize/reorg.hpp"
#include "tsv/vectorize/transpose_vs.hpp"

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
