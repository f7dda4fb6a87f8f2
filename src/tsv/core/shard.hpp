#pragma once
// Sharded grids: domain decomposition along the outermost axis.
//
// A ShardedGrid<G> splits one logical grid into `count` contiguous slabs
// along the OUTERMOST axis (x for 1D, y for 2D, z for 3D — the only axis
// whose slabs are whole unit-stride rows/planes, so every per-row layout
// transform the kernels rely on sees exactly the data it would see in the
// monolithic grid). Each shard is a full Grid with its own radius-deep
// ghost rim; the ghost strips on the two split faces are by construction
// either
//
//   * INTERNAL faces — refreshed every step by copying the neighboring
//     shard's interior edge (exchange_shard_ghosts); a periodic split axis
//     wraps the same copies around the ring, or
//   * PHYSICAL faces — the global domain boundary, filled by the same
//     machinery the monolithic plan uses (fill_ghosts for the non-split
//     axes, fill_ghost_face for the split faces), so Dirichlet halos stay
//     frozen and zero/Neumann faces get bit-identical values.
//
// The exchange copies whole EXTENDED rows/planes (interior plus the
// inner-axis ghost rim, which the neighbor filled first), reproducing the
// sequential x -> y -> z fill order of core/halo.hpp exactly: every corner
// and edge ghost of every shard holds the same bits the monolithic
// fill_ghosts would have written. That is what makes sharded execution
// bit-identical to the monolithic plan (tests/test_shard.cpp pins this).
//
// ShardedPlan (core/plan.hpp) owns the step loop and drives these fills as
// parallel waves over Scheduler gangs; this header owns the geometry and the
// per-shard copy bodies.

#include <vector>

#include "tsv/common/grid.hpp"
#include "tsv/core/halo.hpp"
#include "tsv/core/options.hpp"

namespace tsv {

/// How to decompose a grid into shards and how to place them.
struct ShardSpec {
  /// Split axis: -1 selects the outermost axis of the grid's rank (x for
  /// 1D, y for 2D, z for 3D). An explicit axis must BE that outermost axis
  /// (0-based: 0=x, 1=y, 2=z) — inner axes would break the unit-stride row
  /// layout the vector kernels transform, and are rejected.
  int axis = -1;
  /// Number of shards; 0 = one per logical core, clamped so every shard
  /// keeps at least one interior slab.
  int count = 0;
  /// Cap on each shard plan's OpenMP team (Options::max_threads). The
  /// default 1 runs every shard single-threaded — pure shard-level
  /// parallelism, one shard per Scheduler gang; raise it when gangs span
  /// several cores. 0 leaves the plan's own resolution uncapped.
  int threads_per_shard = 1;
  /// First-touch policy for the per-shard buffers (NUMA placement: with
  /// kParallel each shard's pages are touched by the team that computes
  /// it).
  FirstTouch first_touch = FirstTouch::kSerial;
};

/// Resolved decomposition: concrete axis/count plus each shard's base
/// offset and extent along the split axis. Extents are as even as possible
/// (the remainder goes to the leading shards, one slab each).
struct ShardLayout {
  int axis = 0;
  int count = 1;
  std::vector<index> base;    ///< global offset of shard i's first slab
  std::vector<index> extent;  ///< slabs of shard i (>= 1)
};

/// Resolves @p spec against a rank-@p rank grid whose outermost-axis extent
/// is @p outer. Throws std::invalid_argument for a non-outermost axis or a
/// count the extent cannot satisfy. Defined in shard.cpp.
ShardLayout shard_layout(int rank, index outer, const ShardSpec& spec);

/// Reason the layout cannot run a radius-@p radius stencil (static
/// storage), or nullptr when it can. The exchange copies radius slabs of
/// neighbor interior into each internal face, so every shard extent must be
/// >= radius. Used by ShardedPlan validation. Defined in shard.cpp.
const char* shard_violation(const ShardLayout& layout, int radius);

/// One logical grid stored as per-shard subgrids (see the header comment).
/// G is Grid1D/2D/3D<T>. The sharded grid never aliases the monolithic
/// one: scatter()/gather() copy data in and out explicitly.
template <typename G>
class ShardedGrid {
 public:
  using value_type = typename G::value_type;
  static constexpr int kRank = G::kRank;

  /// Decomposes the geometry of @p like (extents + halo; its data is not
  /// read — use scatter()). Throws std::invalid_argument on a bad spec.
  ShardedGrid(const G& like, const ShardSpec& spec)
      : nx_(like.nx()), ny_(1), nz_(1), halo_(like.halo()) {
    if constexpr (kRank >= 2) ny_ = like.ny();
    if constexpr (kRank >= 3) nz_ = like.nz();
    layout_ = shard_layout(kRank, outer_extent(), spec);
    shards_.reserve(static_cast<std::size_t>(layout_.count));
    for (int i = 0; i < layout_.count; ++i) {
      const index e = layout_.extent[static_cast<std::size_t>(i)];
      if constexpr (kRank == 1)
        shards_.emplace_back(e, halo_, spec.first_touch);
      else if constexpr (kRank == 2)
        shards_.emplace_back(nx_, e, halo_, spec.first_touch);
      else
        shards_.emplace_back(nx_, ny_, e, halo_, spec.first_touch);
    }
  }

  int shards() const { return layout_.count; }
  const ShardLayout& layout() const { return layout_; }
  G& shard(int i) { return shards_[static_cast<std::size_t>(i)]; }
  const G& shard(int i) const { return shards_[static_cast<std::size_t>(i)]; }

  /// Global extents and halo of the logical grid.
  index nx() const { return nx_; }
  index ny() const { return ny_; }
  index nz() const { return nz_; }
  index halo() const { return halo_; }

  /// Copies @p src (same geometry as the prototype) into the shards,
  /// INCLUDING each shard's full halo-deep ghost rim: internal-face ghosts
  /// land on neighbor interior (refreshed by the exchange anyway) and
  /// physical-face ghosts inherit src's halo — which is how frozen
  /// Dirichlet boundary values enter the shards.
  void scatter(const G& src) {
    check_geometry(src, "ShardedGrid::scatter");
    const index h = halo_;
    const index w = nx_ + 2 * h;
    for (int i = 0; i < layout_.count; ++i) {
      G& d = shards_[static_cast<std::size_t>(i)];
      const index b = layout_.base[static_cast<std::size_t>(i)];
      const index e = layout_.extent[static_cast<std::size_t>(i)];
      if constexpr (kRank == 1) {
        detail::copy_row_segment(d.x0() - h, src.x0() + b - h, e + 2 * h);
      } else if constexpr (kRank == 2) {
        for (index y = -h; y < e + h; ++y)
          detail::copy_row_segment(d.row(y) - h, src.row(b + y) - h, w);
      } else {
        for (index z = -h; z < e + h; ++z)
          for (index y = -h; y < ny_ + h; ++y)
            detail::copy_row_segment(d.row(y, z) - h, src.row(y, b + z) - h,
                                     w);
      }
    }
  }

  /// Copies every shard's interior back into @p dst (ghosts untouched).
  void gather(G& dst) const {
    check_geometry(dst, "ShardedGrid::gather");
    for (int i = 0; i < layout_.count; ++i) {
      const G& s = shards_[static_cast<std::size_t>(i)];
      const index b = layout_.base[static_cast<std::size_t>(i)];
      const index e = layout_.extent[static_cast<std::size_t>(i)];
      if constexpr (kRank == 1) {
        detail::copy_row_segment(dst.x0() + b, s.x0(), e);
      } else if constexpr (kRank == 2) {
        for (index y = 0; y < e; ++y)
          detail::copy_row_segment(dst.row(b + y), s.row(y), nx_);
      } else {
        for (index z = 0; z < e; ++z)
          for (index y = 0; y < ny_; ++y)
            detail::copy_row_segment(dst.row(y, b + z), s.row(y, z), nx_);
      }
    }
  }

  /// Fills shard @p i's boundary ghosts: the non-split axes via fill_ghosts
  /// (exactly the monolithic fills — every shard spans those axes fully),
  /// then the PHYSICAL split faces of the first/last shard via
  /// fill_ghost_face, after the inner axes so the face strips inherit fresh
  /// corner values. Periodic split faces are left to the ring exchange;
  /// Dirichlet faces stay frozen (scatter installed them). Touches only
  /// shard i — safe to run for all shards concurrently.
  void fill_shard_ghosts(int i, const BoundarySpec& bc, int radius) {
    BoundarySpec inner = bc;
    split_boundary_ref(inner) = Boundary::kDirichlet;
    G& g = shards_[static_cast<std::size_t>(i)];
    fill_ghosts(g, inner, radius);
    const Boundary b = split_boundary(bc);
    if (b == Boundary::kZero || b == Boundary::kNeumann) {
      if (i == 0) fill_ghost_face(g, b, radius, /*high=*/false);
      if (i == layout_.count - 1) fill_ghost_face(g, b, radius, /*high=*/true);
    }
  }

  /// Refreshes shard @p i's split-axis ghost strips from its neighbors'
  /// interior edges: radius extended rows/planes per internal face, plus
  /// the ring wrap when the split axis is periodic. Reads only neighbor
  /// interiors and writes only shard i's own ghosts, so all shards may
  /// exchange concurrently between two fill waves.
  void exchange_shard_ghosts(int i, const BoundarySpec& bc, int radius) {
    const int n = layout_.count;
    const bool wrap = split_boundary(bc) == Boundary::kPeriodic;
    if (i > 0)
      copy_split_face(i, i - 1, /*high=*/false, radius);
    else if (wrap)
      copy_split_face(i, n - 1, /*high=*/false, radius);
    if (i < n - 1)
      copy_split_face(i, i + 1, /*high=*/true, radius);
    else if (wrap)
      copy_split_face(i, 0, /*high=*/true, radius);
  }

 private:
  index outer_extent() const {
    return kRank == 1 ? nx_ : kRank == 2 ? ny_ : nz_;
  }

  Boundary split_boundary(const BoundarySpec& bc) const {
    return kRank == 1 ? bc.x : kRank == 2 ? bc.y : bc.z;
  }
  Boundary& split_boundary_ref(BoundarySpec& bc) const {
    return kRank == 1 ? bc.x : kRank == 2 ? bc.y : bc.z;
  }

  void check_geometry(const G& g, const char* who) const {
    bool ok = g.nx() == nx_ && g.halo() == halo_;
    if constexpr (kRank >= 2) ok = ok && g.ny() == ny_;
    if constexpr (kRank >= 3) ok = ok && g.nz() == nz_;
    require(ok, std::string(who) + ": grid does not match the sharded geometry");
  }

  /// Copies the low (high=false) or high ghost strip of shard @p dst_i from
  /// the facing interior edge of shard @p src_i. The strips are EXTENDED
  /// rows/planes (width nx + 2*radius), so the neighbor's inner-axis ghost
  /// fill rides along — identical corner bits to the monolithic fill order.
  void copy_split_face(int dst_i, int src_i, bool high, int radius) {
    G& d = shards_[static_cast<std::size_t>(dst_i)];
    const G& s = shards_[static_cast<std::size_t>(src_i)];
    const int r = radius;
    const index de = layout_.extent[static_cast<std::size_t>(dst_i)];
    const index se = layout_.extent[static_cast<std::size_t>(src_i)];
    if constexpr (kRank == 1) {
      for (int k = 1; k <= r; ++k) {
        if (high)
          d.at(de - 1 + k) = s.at(k - 1);
        else
          d.at(-k) = s.at(se - k);
      }
    } else if constexpr (kRank == 2) {
      const index w = nx_ + 2 * r;
      for (int k = 1; k <= r; ++k) {
        const index dy = high ? de - 1 + k : -k;
        const index sy = high ? k - 1 : se - k;
        detail::copy_row_segment(d.row(dy) - r, s.row(sy) - r, w);
      }
    } else {
      const index w = nx_ + 2 * r;
      for (int k = 1; k <= r; ++k) {
        const index dz = high ? de - 1 + k : -k;
        const index sz = high ? k - 1 : se - k;
        for (index y = -r; y < ny_ + r; ++y)
          detail::copy_row_segment(d.row(y, dz) - r, s.row(y, sz) - r, w);
      }
    }
  }

  index nx_, ny_, nz_, halo_;
  ShardLayout layout_;
  std::vector<G> shards_;
};

}  // namespace tsv
