#pragma once
// Boundary-condition ghost fills (the halo-exchange layer).
//
// Every grid already carries ghost cells (the halo) and every kernel in the
// library reads them for out-of-domain taps — that is how the seed
// implemented frozen Dirichlet boundaries with branch-free interior loops.
// This header adds the fills that make the other Boundary conditions work
// with the SAME kernels: fill_ghosts() writes the ghost cells of the
// radius-deep rim from the interior (periodic wrap, Neumann mirror) or with
// zeros, in O(halo) memcpy/loop segments — never an interior sweep.
//
// Axis order and corners: axes are filled x, then y, then z. The x fill
// covers interior rows only; the y fill copies whole extended rows
// (including the just-filled x ghosts) into the ghost rows; the z fill
// copies whole extended planes. Corner/edge ghost cells therefore get the
// standard sequential-exchange values (e.g. the periodic diagonal wrap),
// and because the scalar reference oracle (kernels/reference.hpp) uses this
// very function, optimized methods and the oracle always read identical
// ghost values.
//
// Execution model (see TypedPlan::execute in core/plan.hpp): kDirichlet
// axes are never touched; kZero axes are filled once per execute; a
// kPeriodic or kNeumann axis makes the ghosts depend on the evolving
// interior. The plan fills every ghost once per execute (level 0), and the
// run still makes one driver call: the driver transforms into its layout
// once, and the ghosts track every later level in one of two ways.
//
//  * Tessellated plans write them through: after the engine advances a box,
//    write_ghost_images() (below) writes the images of the cells that box
//    wrote into the same output buffer. A deep temporal block is then
//    exact: periodic axes tile as rings (tiling/tess.hpp) so each image is
//    written before any tile reads it, and Neumann images sit within the
//    radius of their face, inside the edge tile.
//  * Untiled and split-tiled plans refresh them: the block hook fills the
//    ghosts of the buffer holding the current level between steps, in
//    place; those plans resolve bt = 1, and the untiled 2-step unroll&jam
//    scheme advances single steps.
//
// Layout rows keep their x halo in original order, so the x fill reads the
// interior through the layout's index map (the xmap argument below); the
// y/z ghost rows are whole-row copies and carry the layout with them.

#include <algorithm>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include "tsv/common/grid.hpp"
#include "tsv/core/options.hpp"

namespace tsv {

/// Every Boundary enumerator, for exhaustive sweeps (registry-style).
const std::vector<Boundary>& all_boundaries();

/// Name -> enum inverse of boundary_name(); nullopt for unknown spellings.
std::optional<Boundary> boundary_from_name(std::string_view name);

/// Reason the boundary spec cannot run on this shape (static storage), or
/// nullptr when it is valid. Wrap/mirror fills read @p radius interior
/// cells next to each face, so a periodic or Neumann axis needs an extent
/// of at least the stencil radius. Used by resolve_options.
const char* boundary_violation(int rank, index nx, index ny, index nz,
                               int radius, const BoundarySpec& bc);

namespace detail {

/// Row-granular ghost copies: the y/z-axis fills move whole extended rows,
/// so they are straight memcpy/memset segments (IEEE zero is all-zero
/// bytes).
template <typename T>
void copy_row_segment(T* dst, const T* src, index n) {
  std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(T));
}

template <typename T>
void zero_row_segment(T* dst, index n) {
  std::memset(dst, 0, static_cast<std::size_t>(n) * sizeof(T));
}

/// x-axis fill for one unit-stride row: the ghost cells at [-r, 0) and
/// [nx, nx + r) around the interior [0, nx), whose element x sits at
/// row[xmap(x, nx)] (the layout's index map; the ghost cells themselves are
/// always in original order). Element loops, O(r).
template <typename T, typename XMap>
TSV_ALWAYS_INLINE void fill_row_x(T* row, index nx, int r, Boundary b,
                                  const XMap& xmap) {
  switch (b) {
    case Boundary::kDirichlet:
      break;
    case Boundary::kZero:
      for (int d = 1; d <= r; ++d) row[-d] = T(0);
      for (int d = 0; d < r; ++d) row[nx + d] = T(0);
      break;
    case Boundary::kPeriodic:
      for (int d = 1; d <= r; ++d) row[-d] = row[xmap(nx - d, nx)];
      for (int d = 0; d < r; ++d) row[nx + d] = row[xmap(d, nx)];
      break;
    case Boundary::kNeumann:
      for (int d = 1; d <= r; ++d) row[-d] = row[xmap(d - 1, nx)];
      for (int d = 0; d < r; ++d) row[nx + d] = row[xmap(nx - 1 - d, nx)];
      break;
  }
}

/// Source index (in the interior) a ghost layer at distance @p d outside a
/// face copies from, for the axis-granular (row/plane) fills. Low face:
/// ghost index -d; high face: ghost index n-1+d.
inline index ghost_src_lo(index n, int d, Boundary b) {
  return b == Boundary::kPeriodic ? n - d : d - 1;  // wrap : mirror
}
inline index ghost_src_hi(index n, int d, Boundary b) {
  return b == Boundary::kPeriodic ? d - 1 : n - d;  // wrap : mirror
}

/// Fills ONE face of the grid's outermost axis (y for 2D, z for 3D): the
/// radius-deep ghost strip outside the low (high=false) or high (high=true)
/// face, per boundary @p b. kDirichlet is a no-op. The copied strips are
/// whole extended rows/planes, so inner-axis ghosts must already be filled.
/// The 3D face splits its rows over @p team threads (team_for); a 2D face
/// is radius rows and stays on the calling thread.
template <typename T>
void fill_ghost_face(Grid2D<T>& g, Boundary b, int radius, bool high) {
  if (b == Boundary::kDirichlet) return;
  const index ny = g.ny();
  const int r = radius;
  const index w = g.nx() + 2 * r;
  for (int d = 1; d <= r; ++d) {
    T* dst = (high ? g.row(ny - 1 + d) : g.row(-d)) - r;
    if (b == Boundary::kZero) {
      zero_row_segment(dst, w);
      continue;
    }
    const index src = high ? ghost_src_hi(ny, d, b) : ghost_src_lo(ny, d, b);
    copy_row_segment(dst, g.row(src) - r, w);
  }
}

template <typename T>
void fill_ghost_face(Grid3D<T>& g, Boundary b, int radius, bool high,
                     int team = 1) {
  if (b == Boundary::kDirichlet) return;
  const index ny = g.ny(), nz = g.nz();
  const int r = radius;
  const index w = g.nx() + 2 * r, rows_y = ny + 2 * r;
  team_for(r * rows_y, team, [&](index i) {
    const int d = static_cast<int>(i / rows_y) + 1;
    const index y = i % rows_y - r;
    T* dst = (high ? g.row(y, nz - 1 + d) : g.row(y, -d)) - r;
    if (b == Boundary::kZero) {
      zero_row_segment(dst, w);
      return;
    }
    const index src = high ? ghost_src_hi(nz, d, b) : ghost_src_lo(nz, d, b);
    copy_row_segment(dst, g.row(y, src) - r, w);
  });
}

/// Calls f(ghost, src) for every ghost index on an axis of extent @p n
/// whose source (wrap or mirror, as in the fills above) lies in [lo, hi).
/// Frozen conditions have no images.
template <typename F>
void for_each_image(index n, int r, Boundary b, index lo, index hi, F&& f) {
  if (!boundary_per_step(b)) return;
  for (int d = 1; d <= r; ++d) {
    const index src_lo = ghost_src_lo(n, d, b);
    if (src_lo >= lo && src_lo < hi) f(-d, src_lo);
    const index src_hi = ghost_src_hi(n, d, b);
    if (src_hi >= lo && src_hi < hi) f(n - 1 + d, src_hi);
  }
}

/// Copies, from row @p src to row @p dst (same layout), the interior cells
/// [xlo, xhi) and the x ghosts whose sources lie there. An XMap with a
/// kGranule maps each aligned run of that many cells onto itself, so the
/// whole runs inside [xlo, xhi) move with one memcpy; the partial runs at
/// either end, and every cell under any other map, go through the map.
template <typename T, typename XMap>
void copy_row_images(T* dst, const T* src, index nx, int r, Boundary bx,
                     index xlo, index xhi, const XMap& xmap) {
  index a = xhi, b = xhi;  // [a, b): whole runs
  if constexpr (requires { XMap::kGranule; }) {
    constexpr index g = XMap::kGranule;
    a = std::min(xhi, (xlo + g - 1) / g * g);
    b = std::max(a, xhi / g * g);
    if (b > a) copy_row_segment(dst + a, src + a, b - a);
  }
  for (index x = xlo; x < a; ++x) dst[xmap(x, nx)] = src[xmap(x, nx)];
  for (index x = b; x < xhi; ++x) dst[xmap(x, nx)] = src[xmap(x, nx)];
  for_each_image(nx, r, bx, xlo, xhi, [&](index gx, index) {
    dst[gx] = src[gx];
  });
}

/// Write-through ghost images: after a kernel wrote box @p b of @p g, this
/// writes every periodic/Neumann ghost image of those cells, and only those,
/// so a ghost another box owns is never touched. The phases follow
/// fill_ghosts: the box's rows get their x ghosts first; then the y ghost
/// rows of the box's planes, and the z ghost planes (the box's rows and
/// their y images), get the row segments of the box's cells together with
/// those x ghosts. Every image therefore holds the value fill_ghosts would
/// give it, corners and edges included, once every box of a time level has
/// run. Frozen axes write nothing (their ghosts, and the corners they reach,
/// stay as the once-per-execute fill left them).
template <typename G, typename XMap>
void write_ghost_images(G& g, const BoundarySpec& bc, int r, const Box& b,
                        const XMap& xmap) {
  const index nx = g.nx();
  if (boundary_per_step(bc.x))
    for (index z = b.zlo; z < b.zhi; ++z)
      for (index y = b.ylo; y < b.yhi; ++y) {
        auto* row = row_at(g, y, z);
        for_each_image(nx, r, bc.x, b.xlo, b.xhi, [&](index gx, index sx) {
          row[gx] = row[xmap(sx, nx)];
        });
      }
  if constexpr (G::kRank >= 2) {
    const index ny = g.ny();
    auto copy_row = [&](index yd, index zd, index ys, index zs) {
      copy_row_images(row_at(g, yd, zd), row_at(g, ys, zs), nx, r, bc.x,
                      b.xlo, b.xhi, xmap);
    };
    for (index z = b.zlo; z < b.zhi; ++z)
      for_each_image(ny, r, bc.y, b.ylo, b.yhi,
                     [&](index gy, index sy) { copy_row(gy, z, sy, z); });
    if constexpr (G::kRank == 3)
      for_each_image(g.nz(), r, bc.z, b.zlo, b.zhi, [&](index gz, index sz) {
        for (index y = b.ylo; y < b.yhi; ++y) copy_row(y, gz, y, sz);
        for_each_image(ny, r, bc.y, b.ylo, b.yhi,
                       [&](index gy, index) { copy_row(gy, gz, gy, sz); });
      });
  }
}

}  // namespace detail

/// Fills the radius-@p radius ghost rim of @p g according to @p bc (see the
/// header comment for semantics and corner handling). kDirichlet axes are
/// left untouched. The grid's halo must be >= radius (plan-validated).
/// @p xmap is the x index map of the layout the rows are held in. Each
/// axis phase splits its rows over @p team threads (team_for; a team of 1
/// runs the plain loops). A phase writes only ghost cells and reads only
/// cells earlier phases finished, so any team gives the same bytes.
template <typename T, typename XMap = IdentityX>
void fill_ghosts(Grid1D<T>& g, const BoundarySpec& bc, int radius,
                 const XMap& xmap = {}, int /*team*/ = 1) {
  detail::fill_row_x(g.x0(), g.nx(), radius, bc.x, xmap);
}

template <typename T, typename XMap = IdentityX>
void fill_ghosts(Grid2D<T>& g, const BoundarySpec& bc, int radius,
                 const XMap& xmap = {}, int team = 1) {
  const index nx = g.nx(), ny = g.ny();
  const int r = radius;
  if (bc.x != Boundary::kDirichlet)
    team_for(ny, team, [&](index y) {
      detail::fill_row_x(g.row(y), nx, r, bc.x, xmap);
    });
  // Ghost rows copy the whole extended row [-r, nx + r) so corners inherit
  // the x fill of their source row (fill_ghost_face implements the copies).
  detail::fill_ghost_face(g, bc.y, r, /*high=*/false);
  detail::fill_ghost_face(g, bc.y, r, /*high=*/true);
}

template <typename T, typename XMap = IdentityX>
void fill_ghosts(Grid3D<T>& g, const BoundarySpec& bc, int radius,
                 const XMap& xmap = {}, int team = 1) {
  const index nx = g.nx(), ny = g.ny(), nz = g.nz();
  const int r = radius;
  if (bc.x != Boundary::kDirichlet)
    team_for(ny * nz, team, [&](index i) {
      detail::fill_row_x(g.row(i % ny, i / ny), nx, r, bc.x, xmap);
    });
  const index w = nx + 2 * r;
  if (bc.y != Boundary::kDirichlet)
    team_for(nz * r, team, [&](index i) {
      const index z = i / r;
      const int d = static_cast<int>(i % r) + 1;
      if (bc.y == Boundary::kZero) {
        detail::zero_row_segment(g.row(-d, z) - r, w);
        detail::zero_row_segment(g.row(ny - 1 + d, z) - r, w);
        return;
      }
      detail::copy_row_segment(
          g.row(-d, z) - r, g.row(detail::ghost_src_lo(ny, d, bc.y), z) - r,
          w);
      detail::copy_row_segment(g.row(ny - 1 + d, z) - r,
                               g.row(detail::ghost_src_hi(ny, d, bc.y), z) - r,
                               w);
    });
  // Ghost planes copy whole extended planes (rows [-r, ny + r), each row
  // extended by the x rim) so edges and corners inherit the x and y fills
  // (fill_ghost_face implements the copies).
  detail::fill_ghost_face(g, bc.z, r, /*high=*/false, team);
  detail::fill_ghost_face(g, bc.z, r, /*high=*/true, team);
}

}  // namespace tsv
