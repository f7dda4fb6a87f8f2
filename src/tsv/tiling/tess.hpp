#pragma once
// Tessellate tiling engine (paper §3.4; Yuan SC'17).
//
// Space-time is covered by triangles (stage 0) and inverted triangles
// (stage 1) per dimension; multidimensional domains use the tensor product
// of the per-dimension shapes, with one stage per subset of dimensions using
// the inverted profile, processed in subset order (DESIGN.md §6.3). All
// tiles within a stage are independent and run under `omp parallel for`.
//
// One engine serves every rank. It is generic over the *advance* callback,
// which moves a Box of cells forward one time unit between the two Jacobi
// parity buffers. Every driver advances one time step per unit
// (slope = r), but the engine is agnostic to what a unit is.
//
// Boundary tiles do not shrink at physical domain edges (Dirichlet halo
// values are valid at every time level, and a Neumann mirror reads cells
// within the stencil radius of its face), making boundary triangles
// trapezoids; the seams between tiles are filled by inverted triangles. A
// periodic axis whose ghost images the block hook writes through (see
// NoBlockHook) has no edge: its tiles form a ring, every triangle shrinks
// at both domain ends, and one more inverted seam sits on the wrap at
// extent == 0, advanced as two boxes (one at each end, same level) like
// split1d_wrap_engine's wrapped seam.
//
// Inside a tile the time units sweep z as a wavefront (plane v of unit u
// at step v + slope*u; see tess_engine), so a time block keeps only about
// slope*(tau + 1) + 1 planes of a tile in cache however deep the tile is
// in z. A 3D grid can then leave z one tile: its time block runs two y
// stages, each streaming the grid once, instead of four y/z stages.

#include <omp.h>

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "tsv/common/check.hpp"
#include "tsv/common/grid.hpp"

namespace tsv {

/// Half-open range of a (possibly boundary-extended) triangle tile at unit u.
inline std::pair<index, index> tri_range(index c, index ntiles, index n,
                                         index blk, index slope, index u) {
  const index lo = c * blk;
  const index hi = std::min(n, lo + blk);
  const index a = (c == 0) ? 0 : lo + slope * u;
  const index b = (c == ntiles - 1) ? n : hi - slope * u;
  return {a, std::min(b, n)};
}

/// Half-open range of the inverted triangle at seam m, unit u (empty at u=0).
inline std::pair<index, index> inv_range(index m, index n, index slope,
                                         index u) {
  return {std::max<index>(0, m - slope * u), std::min(n, m + slope * u)};
}

inline index tile_count(index n, index blk) { return (n + blk - 1) / blk; }

/// Validates a tiling configuration for one dimension.
inline void check_tile_dim(index n, index blk, index slope, index tau,
                           const char* dim) {
  require_fmt(blk > 0 && tau > 0, "tess: block and time range must be > 0 (",
              dim, ")");
  if (tile_count(n, blk) > 1)
    require_fmt(blk >= 2 * slope * tau, "tess: block ", blk, " in ", dim,
                " must be >= 2*slope*tau = ", 2 * slope * tau,
                " (shrinking triangles must not invert)");
}

/// Per-axis tile blocks {bx, by, bz}. A block <= 0 leaves its axis untiled:
/// one tile spanning the whole extent (how axes beyond a grid's rank, and
/// the full-row axes of the hybrid tilings, arrive).
using Blocks = std::array<index, 3>;

/// Advances @p units time units over the domain [0, extent) of each axis; A
/// holds even-parity units, B odd. The result is guaranteed to end in A.
/// adv(in, out, box) advances one unit of @p box; hook.images(out, box,
/// xmap) then writes the ghost images of the cells it wrote. A time block
/// is @p tau units: hook(cur, xmap) runs at the top of every block with the
/// buffer holding the current level (see NoBlockHook); when it returns
/// false the engine stops at that block boundary, still ending in A, and
/// returns false.
///
/// Stage `mask` uses the inverted profile on the axes whose bit is set;
/// stages run in mask order, and a stage with no tile on some axis (an
/// untiled axis has no inverted seams) is skipped, so a rank-D domain runs
/// its 2^D tensor-product stages. The extents are explicit so the hybrid
/// tilings can tile full DLT rows or planes with the same engine.
///
/// An axis in hook.wraps() with two or more tiles is a ring: every tile
/// shrinks at both ends and the seam after the last tile wraps to x = 0. A
/// ragged last tile narrower than the legality floor (2*slope*tau) folds
/// into the tile before it, so every ring tile is legal.
///
/// Inside a tile the units sweep z as a wavefront: plane v of unit u runs
/// at step v + slope*u, and the units of one step run in ascending order.
/// Each plane then reads its unit-(u-1) inputs after they are written
/// (plane v + slope ran one step earlier, or earlier in the same step) and
/// before unit u+1 overwrites them (its plane v - slope runs at this step,
/// after unit u), so the tile's cells get the same values as a unit-major
/// sweep while a time block keeps only about slope*(tau + 1) + 1 planes of
/// the tile in cache: the tau units of one step span slope*(tau - 1) + 1
/// planes, and their reads reach slope more on each side. A rank-1 or
/// rank-2 grid has one plane, and its boxes run in the unit-major order.
/// The wrap seam of a z ring is swept in unrolled order, from n - s
/// through n + s, so plane 0 follows plane n - 1 whose ghost image it
/// reads. A periodic z axis left as one tile has no seam to order that
/// read, so there each unit sweeps the whole tile as one box.
template <typename GridT, typename AdvanceFn, typename Hook = NoBlockHook,
          typename XMap = IdentityX>
bool tess_engine(GridT& A, GridT& B, const std::array<index, 3>& extent,
                 Blocks blk, index units, index tau, index slope,
                 AdvanceFn&& adv, Hook&& hook = {}, const XMap& xmap = {}) {
  static const char* const kAxis[3] = {"x", "y", "z"};
  std::array<index, 3> count;
  std::array<bool, 3> ring;
  for (int a = 0; a < 3; ++a) {
    if (blk[a] <= 0) blk[a] = extent[a];
    check_tile_dim(extent[a], blk[a], slope, tau, kAxis[a]);
    count[a] = tile_count(extent[a], blk[a]);
    ring[a] = (hook.wraps() >> a & 1u) && count[a] > 1;
    if (ring[a] && extent[a] - (count[a] - 1) * blk[a] < 2 * slope * tau)
      ring[a] = --count[a] > 1;  // fold the ragged last tile
  }
  // Planes per wavefront step: one, or the whole extent on a periodic z
  // axis that is a single tile.
  const index depth =
      (hook.wraps() >> 2 & 1u) && !ring[2] ? extent[2] : index{1};
  index parity = 0;
  auto in_buf = [&](index u) -> const GridT& {
    return ((parity + u) % 2 == 0) ? A : B;
  };
  auto out_buf = [&](index u) -> GridT& {
    return ((parity + u + 1) % 2 == 0) ? A : B;
  };
  // Axis a's extent at unit u of tile c (a triangle, or the inverted seam
  // after tile c), as one half-open span of unrolled coordinates: the seam
  // on a ring's wrap runs from n - s to n + s, where v >= n stands for
  // v - n.
  auto range = [&](int a, bool inverted, index c,
                   index u) -> std::pair<index, index> {
    const index n = extent[a], s = slope * u;
    if (ring[a] && !inverted) {
      const index lo = c * blk[a];
      return {lo + s, (c == count[a] - 1 ? n : lo + blk[a]) - s};
    }
    if (ring[a] && c == count[a] - 1) return {n - s, n + s};
    return inverted ? inv_range((c + 1) * blk[a], n, slope, u)
                    : tri_range(c, count[a], n, blk[a], slope, u);
  };
  // The two pieces of unrolled span r on axis a: [lo, n) and the wrapped
  // [0, hi - n), either possibly empty.
  auto pieces = [&](int a, std::pair<index, index> r) {
    const index n = extent[a];
    return std::array<std::pair<index, index>, 2>{
        {{r.first, std::min(r.second, n)},
         {std::max(r.first, n) - n, r.second - n}}};
  };
  // Inverted tiles on axis a: the seams between tiles, and a ring's wrap.
  auto seams = [&](int a) { return count[a] - (ring[a] ? 0 : 1); };

  index done = 0;
  bool go = true;
  while (done < units) {
    if (!hook(parity % 2 == 0 ? A : B, xmap)) {
      go = false;
      break;
    }
    const index t = std::min(tau, units - done);
    for (int mask = 0; mask < 8; ++mask) {
      const bool ix = mask & 1, iy = mask & 2, iz = mask & 4;
      const index n_x = ix ? seams(0) : count[0];
      const index n_y = iy ? seams(1) : count[1];
      const index n_z = iz ? seams(2) : count[2];
      if (n_x <= 0 || n_y <= 0 || n_z <= 0) continue;
      const index u0 = (mask == 0) ? 0 : 1;
      // Static schedule on purpose: the legality bound (blk >= 2*slope*tau)
      // makes every interior tile's work identical at each unit, and the
      // boundary trapezoids differ by at most slope*tau cells (a ring's
      // folded tile by under 2*slope*tau, its wrap seam by none) — so there
      // is nothing for a dynamic scheduler to balance. Static dispatch
      // drops the per-tile queue traffic and keeps the tile->thread mapping
      // stable across time blocks, which is what the workspace first-touch
      // relies on for NUMA locality. (fig8/fig9 smoke showed
      // parity-or-better on this box; the ragged-tile split engine in
      // tiling/tiled.hpp is the one place dynamic stays.)
#pragma omp parallel for collapse(3) schedule(static)
      for (index tx = 0; tx < n_x; ++tx)
        for (index ty = 0; ty < n_y; ++ty)
          for (index tz = 0; tz < n_z; ++tz) {
            // The tile's wavefront steps: slab p = floor(v / depth) of
            // unit u runs at step p + slope*u.
            index first = std::numeric_limits<index>::max(), last = 0;
            for (index u = u0; u < t; ++u) {
              const auto zr = range(2, iz, tz, u);
              if (zr.first >= zr.second) continue;
              first = std::min(first, zr.first / depth + slope * u);
              last = std::max(last, (zr.second - 1) / depth + 1 + slope * u);
            }
            for (index st = first; st < last; ++st) {
              for (index u = u0; u < t && st - slope * u >= 0; ++u) {
                const index p = st - slope * u;
                const auto zr = range(2, iz, tz, u);
                index zlo = std::max(zr.first, p * depth);
                index zhi = std::min(zr.second, (p + 1) * depth);
                if (zlo >= zhi) continue;
                if (zlo >= extent[2]) {  // past a z ring's wrap
                  zlo -= extent[2];
                  zhi -= extent[2];
                }
                for (const auto& xs : pieces(0, range(0, ix, tx, u)))
                  for (const auto& ys : pieces(1, range(1, iy, ty, u))) {
                    const Box box{xs.first, xs.second, ys.first,
                                  ys.second, zlo, zhi};
                    if (box.xlo < box.xhi && box.ylo < box.yhi) {
                      adv(in_buf(u), out_buf(u), box);
                      hook.images(out_buf(u), box, xmap);
                    }
                  }
              }
            }
          }
    }
    parity += t;
    done += t;
  }
  if (parity % 2 != 0) A.swap_storage(B);
  return go;
}

}  // namespace tsv
