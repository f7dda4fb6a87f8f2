#pragma once
// Row-major grid containers with symmetric halos.
//
// Layout guarantees relied upon by the SIMD kernels:
//  * the first interior element of every unit-stride row is 64-byte aligned;
//  * the x stride between consecutive rows/planes is a multiple of the widest
//    vector length, so aligned row kernels stay aligned on every row.
//
// Halo semantics: halo cells carry the boundary condition. By default
// (Boundary::kDirichlet) they hold user-supplied fixed values the stencil
// drivers never write, so they are constant in time; the other conditions
// (zero, periodic wrap, Neumann mirror) are realized by the plan layer
// writing these same cells via core/halo.hpp — the kernels are identical.

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

#include "tsv/common/aligned.hpp"
#include "tsv/common/check.hpp"

namespace tsv {

namespace detail {
template <typename T>
constexpr index align_elems() {
  return static_cast<index>(kAlignment / sizeof(T));
}
}  // namespace detail

/// Runs body(i) for every i in [0, n): a static `omp for` over a team of
/// @p team threads, or — for a team of 1 or a single row — the plain loop
/// on the calling thread with no parallel region. @p body must not throw.
template <typename F>
void team_for(index n, int team, F&& body) {
  if (team <= 1 || n <= 1) {
    for (index i = 0; i < n; ++i) body(i);
    return;
  }
#pragma omp parallel for num_threads(team) schedule(static)
  for (index i = 0; i < n; ++i) body(i);
}

/// One-dimensional grid: interior x in [0, nx), halo x in [-halo, 0) and
/// [nx, nx+halo).
template <typename T>
class Grid1D {
 public:
  using value_type = T;
  static constexpr int kRank = 1;

  Grid1D(index nx, index halo, FirstTouch ft = FirstTouch::kSerial)
      : nx_(nx), halo_(halo) {
    require(nx > 0 && halo >= 0, "Grid1D: need nx > 0, halo >= 0");
    lead_ = round_up(std::max<index>(halo, 1), detail::align_elems<T>());
    buf_ = AlignedBuffer<T>(lead_ + nx + lead_, ft);
  }

  index nx() const { return nx_; }
  index halo() const { return halo_; }

  /// Pointer to x = 0 (64-byte aligned).
  T* x0() { return buf_.data() + lead_; }
  const T* x0() const { return buf_.data() + lead_; }

  T& at(index x) { return x0()[x]; }
  const T& at(index x) const { return x0()[x]; }

  /// Applies f(x) to every cell including halo.
  template <typename F>
  void fill(F&& f) {
    for (index x = -halo_; x < nx_ + halo_; ++x) at(x) = f(x);
  }

  /// Copies halo cells (both sides) from @p other. One row: @p team is
  /// taken for rank-generic callers and ignored.
  void copy_halo_from(const Grid1D& other, int /*team*/ = 1) {
    for (index x = -halo_; x < 0; ++x) at(x) = other.at(x);
    for (index x = nx_; x < nx_ + halo_; ++x) at(x) = other.at(x);
  }

  /// Zeroes every cell (interior and halo) on the calling thread.
  void zero() { buf_.zero(); }
  /// Zeroes every cell under an OpenMP static team (NUMA first touch).
  void zero_parallel() { buf_.zero_parallel(); }

  /// O(1) exchange of storage with a same-shaped grid (Jacobi buffer swap).
  void swap_storage(Grid1D& other) {
    require(nx_ == other.nx_ && halo_ == other.halo_,
            "swap_storage: shape mismatch");
    buf_.swap(other.buf_);
  }

 private:
  index nx_, halo_, lead_;
  AlignedBuffer<T> buf_;
};

/// Two-dimensional grid, row-major, x unit-stride.
template <typename T>
class Grid2D {
 public:
  using value_type = T;
  static constexpr int kRank = 2;

  Grid2D(index nx, index ny, index halo, FirstTouch ft = FirstTouch::kSerial)
      : nx_(nx), ny_(ny), halo_(halo) {
    require(nx > 0 && ny > 0 && halo >= 0, "Grid2D: bad extents");
    lead_ = round_up(std::max<index>(halo, 1), detail::align_elems<T>());
    stride_ = lead_ + round_up(nx + std::max<index>(halo, 1),
                               detail::align_elems<T>());
    buf_ = AlignedBuffer<T>(stride_ * (ny + 2 * halo_) + lead_, ft);
  }

  index nx() const { return nx_; }
  index ny() const { return ny_; }
  index halo() const { return halo_; }
  /// Distance in elements between (x, y) and (x, y+1).
  index row_stride() const { return stride_; }

  /// Pointer to (0, y); y in [-halo, ny+halo). 64-byte aligned.
  T* row(index y) { return buf_.data() + lead_ + (y + halo_) * stride_; }
  const T* row(index y) const {
    return buf_.data() + lead_ + (y + halo_) * stride_;
  }

  T& at(index x, index y) { return row(y)[x]; }
  const T& at(index x, index y) const { return row(y)[x]; }

  template <typename F>
  void fill(F&& f) {
    for (index y = -halo_; y < ny_ + halo_; ++y)
      for (index x = -halo_; x < nx_ + halo_; ++x) at(x, y) = f(x, y);
  }

  /// Copies every halo cell from @p other. Halo-only rows are copied with
  /// one memcpy per row; interior rows copy just their two x-halo segments —
  /// this runs once per Plan::execute to refresh reusable workspace buffers,
  /// so it must cost O(halo), not O(interior). The rows split over a team of
  /// @p team threads (team_for).
  void copy_halo_from(const Grid2D& other, int team = 1) {
    const std::size_t row_bytes =
        static_cast<std::size_t>(nx_ + 2 * halo_) * sizeof(T);
    const std::size_t side_bytes = static_cast<std::size_t>(halo_) * sizeof(T);
    team_for(ny_ + 2 * halo_, team, [&](index i) {
      const index y = i - halo_;
      if (y < 0 || y >= ny_) {
        std::memcpy(row(y) - halo_, other.row(y) - halo_, row_bytes);
      } else if (halo_ > 0) {
        std::memcpy(row(y) - halo_, other.row(y) - halo_, side_bytes);
        std::memcpy(row(y) + nx_, other.row(y) + nx_, side_bytes);
      }
    });
  }

  /// Zeroes every cell (interior and halo) on the calling thread.
  void zero() { buf_.zero(); }
  /// Zeroes every cell under an OpenMP static team (NUMA first touch).
  void zero_parallel() { buf_.zero_parallel(); }

  /// O(1) exchange of storage with a same-shaped grid (Jacobi buffer swap).
  void swap_storage(Grid2D& other) {
    require(nx_ == other.nx_ && ny_ == other.ny_ && halo_ == other.halo_,
            "swap_storage: shape mismatch");
    buf_.swap(other.buf_);
  }

 private:
  index nx_, ny_, halo_, lead_, stride_;
  AlignedBuffer<T> buf_;
};

/// Three-dimensional grid, x unit-stride, then y, then z.
template <typename T>
class Grid3D {
 public:
  using value_type = T;
  static constexpr int kRank = 3;

  Grid3D(index nx, index ny, index nz, index halo,
         FirstTouch ft = FirstTouch::kSerial)
      : nx_(nx), ny_(ny), nz_(nz), halo_(halo) {
    require(nx > 0 && ny > 0 && nz > 0 && halo >= 0, "Grid3D: bad extents");
    lead_ = round_up(std::max<index>(halo, 1), detail::align_elems<T>());
    stride_ = lead_ + round_up(nx + std::max<index>(halo, 1),
                               detail::align_elems<T>());
    plane_ = stride_ * (ny + 2 * halo_);
    buf_ = AlignedBuffer<T>(plane_ * (nz + 2 * halo_) + lead_, ft);
  }

  index nx() const { return nx_; }
  index ny() const { return ny_; }
  index nz() const { return nz_; }
  index halo() const { return halo_; }
  index row_stride() const { return stride_; }
  index plane_stride() const { return plane_; }

  /// Pointer to (0, y, z). 64-byte aligned.
  T* row(index y, index z) {
    return buf_.data() + lead_ + (z + halo_) * plane_ + (y + halo_) * stride_;
  }
  const T* row(index y, index z) const {
    return buf_.data() + lead_ + (z + halo_) * plane_ + (y + halo_) * stride_;
  }

  T& at(index x, index y, index z) { return row(y, z)[x]; }
  const T& at(index x, index y, index z) const { return row(y, z)[x]; }

  template <typename F>
  void fill(F&& f) {
    for (index z = -halo_; z < nz_ + halo_; ++z)
      for (index y = -halo_; y < ny_ + halo_; ++y)
        for (index x = -halo_; x < nx_ + halo_; ++x)
          at(x, y, z) = f(x, y, z);
  }

  /// Copies every halo cell from @p other (see the Grid2D overload: O(halo)
  /// memcpy segments, not an O(interior) sweep; rows split over @p team).
  void copy_halo_from(const Grid3D& other, int team = 1) {
    const std::size_t row_bytes =
        static_cast<std::size_t>(nx_ + 2 * halo_) * sizeof(T);
    const std::size_t side_bytes = static_cast<std::size_t>(halo_) * sizeof(T);
    const index rows_y = ny_ + 2 * halo_;
    team_for(rows_y * (nz_ + 2 * halo_), team, [&](index i) {
      const index y = i % rows_y - halo_, z = i / rows_y - halo_;
      if (z < 0 || z >= nz_ || y < 0 || y >= ny_) {
        std::memcpy(row(y, z) - halo_, other.row(y, z) - halo_, row_bytes);
      } else if (halo_ > 0) {
        std::memcpy(row(y, z) - halo_, other.row(y, z) - halo_, side_bytes);
        std::memcpy(row(y, z) + nx_, other.row(y, z) + nx_, side_bytes);
      }
    });
  }

  /// Zeroes every cell (interior and halo) on the calling thread.
  void zero() { buf_.zero(); }
  /// Zeroes every cell under an OpenMP static team (NUMA first touch).
  void zero_parallel() { buf_.zero_parallel(); }

  /// O(1) exchange of storage with a same-shaped grid (Jacobi buffer swap).
  void swap_storage(Grid3D& other) {
    require(nx_ == other.nx_ && ny_ == other.ny_ && nz_ == other.nz_ &&
                halo_ == other.halo_,
            "swap_storage: shape mismatch");
    buf_.swap(other.buf_);
  }

 private:
  index nx_, ny_, nz_, halo_, lead_, stride_, plane_;
  AlignedBuffer<T> buf_;
};

// ---------------------------------------------------------------------------
// Rank-generic access: the kernel layers iterate every grid rank as a box of
// unit-stride rows over (y, z).
// ---------------------------------------------------------------------------

/// Half-open box of interior cells [xlo, xhi) x [ylo, yhi) x [zlo, zhi).
/// Axes beyond a grid's rank are [0, 1).
struct Box {
  index xlo = 0, xhi = 1, ylo = 0, yhi = 1, zlo = 0, zhi = 1;
};

/// The whole interior of @p g.
template <typename G>
Box full_box(const G& g) {
  Box b{0, g.nx()};
  if constexpr (G::kRank >= 2) b.yhi = g.ny();
  if constexpr (G::kRank >= 3) b.zhi = g.nz();
  return b;
}

/// Interior extents {nx, ny, nz} of @p g; 1 on axes beyond its rank.
template <typename G>
std::array<index, 3> extents(const G& g) {
  const Box b = full_box(g);
  return {b.xhi, b.yhi, b.zhi};
}

/// Pointer to x = 0 of row (y, z); coordinates beyond the rank are ignored.
template <typename G>
auto* row_at(G& g, index y, index z) {
  if constexpr (G::kRank == 1)
    return g.x0();
  else if constexpr (G::kRank == 2)
    return g.row(y);
  else
    return g.row(y, z);
}

/// Runs f(y, z) for every unit-stride row of @p g, the y/z halo rows
/// included (the one row of a Grid1D is (0, 0)), split over a team of
/// @p team threads (team_for). @p f must not throw.
template <typename G, typename F>
void for_each_row(const G& g, int team, F&& f) {
  index ny = 1, nz = 1;
  if constexpr (G::kRank >= 2) ny = g.ny() + 2 * g.halo();
  if constexpr (G::kRank >= 3) nz = g.nz() + 2 * g.halo();
  const index ylo = G::kRank >= 2 ? g.halo() : 0;
  const index zlo = G::kRank >= 3 ? g.halo() : 0;
  team_for(ny * nz, team, [&](index i) { f(i % ny - ylo, i / ny - zlo); });
}

/// A grid of G's rank with interior extents @p e (entries beyond the rank
/// are ignored).
template <typename G>
G make_grid(const std::array<index, 3>& e, index halo) {
  if constexpr (G::kRank == 1)
    return G(e[0], halo);
  else if constexpr (G::kRank == 2)
    return G(e[0], e[1], halo);
  else
    return G(e[0], e[1], e[2], halo);
}

/// Interior x index map of a row held in original layout: x -> x. The
/// layout drivers hold their levels under another map (the transpose
/// layout's block_transposed_offset, DLT's dlt_offset) and hand it to the
/// block hook below, so ghost fills can find interior cells. A map that
/// sends every aligned run of kGranule cells onto itself declares it, so
/// ghost-image copies can move whole runs (core/halo.hpp).
struct IdentityX {
  static constexpr index kGranule = 1;
  constexpr index operator()(index x, index /*nx*/) const { return x; }
};

/// The between-time-blocks hook protocol of every run driver and tiling
/// engine: at the top of each time block the driver calls hook(cur, xmap),
/// where @p cur is the buffer holding the current level and @p xmap its x
/// index map. A false return stops the run at that block boundary; the
/// driver still delivers the current level to the caller's grid, in the
/// original layout. per_step() is true when the ghost cells track every
/// time level (a hook that refreshes them at every call, or one that
/// writes them through with images()). Only the untiled unroll&jam driver
/// keys on it: it then advances single steps, since a fused pair has no
/// boundary between its steps. The tessellation engine (tiling/tess.hpp)
/// also calls images(out, box, xmap) after every box it advances, with
/// @p out the buffer the box was written to, and tiles every axis whose
/// bit is set in wraps() as a ring (a periodic axis whose images the hook
/// writes). This no-op hook is the default of a direct driver call (tests,
/// benches); a plan always passes its own hook (core/plan.hpp's
/// detail::BlockHook), which is inert on a plain run.
struct NoBlockHook {
  static constexpr bool per_step() { return false; }
  static constexpr unsigned wraps() { return 0; }
  template <typename G, typename XMap>
  constexpr bool operator()(G&, const XMap&) const {
    return true;
  }
  template <typename G, typename XMap>
  constexpr void images(G&, const Box&, const XMap&) const {}
};

/// Largest |a-b| over the interior of two grids (used by the test suite).
template <typename T>
T max_abs_diff(const Grid1D<T>& a, const Grid1D<T>& b) {
  T m = 0;
  for (index x = 0; x < a.nx(); ++x)
    m = std::max(m, std::abs(a.at(x) - b.at(x)));
  return m;
}

template <typename T>
T max_abs_diff(const Grid2D<T>& a, const Grid2D<T>& b) {
  T m = 0;
  for (index y = 0; y < a.ny(); ++y)
    for (index x = 0; x < a.nx(); ++x)
      m = std::max(m, std::abs(a.at(x, y) - b.at(x, y)));
  return m;
}

template <typename T>
T max_abs_diff(const Grid3D<T>& a, const Grid3D<T>& b) {
  T m = 0;
  for (index z = 0; z < a.nz(); ++z)
    for (index y = 0; y < a.ny(); ++y)
      for (index x = 0; x < a.nx(); ++x)
        m = std::max(m, std::abs(a.at(x, y, z) - b.at(x, y, z)));
  return m;
}

}  // namespace tsv
