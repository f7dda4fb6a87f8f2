#pragma once
// Helpers shared by the vectorization methods: the tap-row table and the
// row walker every region sweep is built on, plus the Jacobi run loop.
//
// The paper's methods differ only in how one output row's shifted vectors
// are formed (unaligned loads, shuffles, or a layout). Everything around
// that — which rows of the input feed which output row, over which box of
// the grid — is written once here, for every rank: a 1D grid is one row
// at (y, z) = (0, 0), and a 1D stencil is one tap row at (dy, dz) = (0, 0).

#include <array>
#include <iterator>
#include <utility>

#include "tsv/common/grid.hpp"
#include "tsv/core/workspace.hpp"
#include "tsv/kernels/stencil.hpp"
#include "tsv/simd/shift.hpp"
#include "tsv/simd/vec.hpp"

namespace tsv {

/// Element type a vector kernel computes in (the dtype the plan resolved).
template <typename V>
using vec_value_t = typename V::value_type;

/// Compile-time counted loop: static_for<0, N>([&]<int I>() { ... }).
///
/// Deliberately flat (one fold expression, no recursion): a recursive
/// formulation creates an N-deep call chain whose inlining GCC may abandon
/// under unit-growth pressure, at which point the lambda's by-reference
/// captures (typically Vec register arrays) get materialized on the stack
/// and every hot kernel built on this helper slows down ~2x.
template <int Begin, int End, typename F>
TSV_ALWAYS_INLINE constexpr void static_for(F&& f) {
  if constexpr (Begin < End) {
    [&]<int... I>(std::integer_sequence<int, I...>) TSV_ALWAYS_INLINE_LAMBDA {
      (f.template operator()<Begin + I>(), ...);
    }(std::make_integer_sequence<int, End - Begin>{});
  }
}

/// The tap rows of a stencil as every sweep consumes them: per row the
/// padded weights w[r][dx + R] — zero where the row has no tap, so kernels
/// unroll the tap loop at compile time and skip structural zeros at run
/// time — and the (dy, dz) offset of its input row.
/// @p Fixed rows have a compile-time count (Cap); otherwise count() is the
/// runtime n <= Cap of a lowered GenericStencil.
template <typename T, int R, int Cap, bool Fixed>
struct TapRows {
  using value_type = T;
  static constexpr int radius = R;
  static constexpr int kCap = Cap;

  std::array<std::array<T, 2 * R + 1>, Cap> w{};
  std::array<int, Cap> dy{}, dz{};
  int n = Cap;

  constexpr int count() const {
    if constexpr (Fixed)
      return Cap;
    else
      return n;
  }
};

/// Builds the tap-row table of any stencil descriptor: one row at (0, 0)
/// for 1D; the descriptor's rows for 2D/3D, whose count bound is the
/// compile-time NR or, for the lowered runtime shapes, (2R+1)^(dim-1).
template <typename S>
auto tap_rows(const S& s) {
  using T = typename S::value_type;
  constexpr int R = S::radius;
  if constexpr (S::dim == 1) {
    TapRows<T, R, 1, true> t;
    t.w[0] = s.w;
    return t;
  } else {
    constexpr bool fixed = requires { S::nrows; };
    constexpr int cap = [] {
      if constexpr (fixed)
        return S::nrows;
      else
        return S::dim == 2 ? 2 * R + 1 : (2 * R + 1) * (2 * R + 1);
    }();
    TapRows<T, R, cap, fixed> t;
    t.n = static_cast<int>(std::size(s.rows));
    for (int r = 0; r < t.n; ++r) {
      const auto& row = s.rows[r];
      for (int dx = row.xlo; dx <= row.xhi; ++dx)
        t.w[r][dx + R] = row.w[dx - row.xlo];
      t.dy[r] = row.dy;
      if constexpr (S::dim == 3) t.dz[r] = row.dz;
    }
    return t;
  }
}

/// Row source of a grid for walk_rows: (y, z) -> row pointer.
template <typename G>
auto rows_of(G& g) {
  return [&g](index y, index z) { return row_at(g, y, z); };
}

/// The row walker: visits every row (y, z) of box @p b, gathers the input
/// row of each tap row — in_row(y + dy, z + dz) — and calls
/// body(rp, out_row(y, z), y, z). The body sweeps x over [b.xlo, b.xhi).
template <typename Rows, typename InRow, typename OutRow, typename Body>
TSV_ALWAYS_INLINE void walk_rows(const Box& b, const Rows& rows,
                                 InRow&& in_row, OutRow&& out_row,
                                 Body&& body) {
  using T = typename Rows::value_type;
  for (index z = b.zlo; z < b.zhi; ++z)
    for (index y = b.ylo; y < b.yhi; ++y) {
      std::array<const T*, Rows::kCap> rp;
      for (int r = 0; r < rows.count(); ++r)
        rp[r] = in_row(y + rows.dy[r], z + rows.dz[r]);
      body(rp, out_row(y, z), y, z);
    }
}

/// Runs @p step (in, out) @p steps times with buffer swapping; the result
/// lands back in @p g. The parity buffer lives in @p ws under @p slot, so
/// steady-state runs are allocation-free. Only the halo is refreshed from
/// @p g — every step writes the whole interior before reading it, so stale
/// interior contents are never observed. @p step must leave halo cells
/// alone. Each step is one time block: @p hook (see NoBlockHook) sees g,
/// which holds the current level in the layout @p xmap describes, before
/// every step. Returns false when the hook stopped the run; g then holds
/// the last completed level.
template <typename Grid, typename StepFn, typename Hook = NoBlockHook,
          typename XMap = IdentityX>
bool jacobi_run(Grid& g, index steps, Workspace& ws, int slot, StepFn&& step,
                Hook&& hook = {}, const XMap& xmap = {}) {
  if (steps <= 0) return true;
  Grid& tmp = ws_grid_like(ws, slot, g);
  tmp.copy_halo_from(g);
  for (index t = 0; t < steps; ++t) {
    if (!hook(g, xmap)) return false;
    step(std::as_const(g), tmp);
    g.swap_storage(tmp);
  }
  return true;
}

}  // namespace tsv
