#pragma once
// Generalized transpose layout with a runtime block row size m (paper §3.2).
//
// The paper's layout views each sub-sequence of vl*m elements as a vl x m
// matrix and transposes it. m spans a continuum:
//   m = 1    -> every vector needs assembled neighbours (reorg-like extreme),
//   m = W    -> the paper's choice (square register-transpose blocks),
//   m = nx/W -> one block per row = exactly DLT.
// The paper argues m >= 3 hides the 4r data-reorganization instructions per
// block behind the (2r+1)(m-1)+1 arithmetic vector operations, and fixes
// m = vl so the transpose itself stays in registers. bench/ablation_m sweeps
// m with this implementation to reproduce that analysis.
//
// This variant is deliberately runtime-m (vector window slides over each
// block); the production path (m == W, compile-time) lives in
// transpose_vs.hpp.

#include "tsv/vectorize/method_common.hpp"

namespace tsv {

/// Position of interior element @p x within the m-blocked layout.
template <int W>
constexpr index blocked_m_offset(index x, index m) {
  const index bl = W * m;
  const index base = x / bl * bl;
  const index e = x - base;
  return base + (e % m) * W + e / m;
}

/// In-place layout transform (self-inverse would not hold for m != W, so
/// forward/backward are separate). nx must be a multiple of W*m.
template <typename T, int W>
void blocked_m_forward_row(T* row, index nx, index m) {
  require_fmt(nx % (W * m) == 0, "blocked_m: nx=", nx,
              " not a multiple of W*m=", static_cast<index>(W) * m);
  std::vector<T> tmp(static_cast<std::size_t>(W) * m);
  const index bl = W * m;
  for (index base = 0; base < nx; base += bl) {
    for (index e = 0; e < bl; ++e) tmp[(e % m) * W + e / m] = row[base + e];
    for (index e = 0; e < bl; ++e) row[base + e] = tmp[e];
  }
}

template <typename T, int W>
void blocked_m_backward_row(T* row, index nx, index m) {
  require_fmt(nx % (W * m) == 0, "blocked_m: nx=", nx,
              " not a multiple of W*m=", static_cast<index>(W) * m);
  std::vector<T> tmp(static_cast<std::size_t>(W) * m);
  const index bl = W * m;
  for (index base = 0; base < nx; base += bl) {
    for (index e = 0; e < bl; ++e) tmp[e / W * 1 + (e % W) * m] = row[base + e];
    for (index e = 0; e < bl; ++e) row[base + e] = tmp[e];
  }
}

namespace detail {

/// Vector j of the block at @p base (j may spill into [-R, m+R) for edge
/// dependents; assembled exactly like the m == W scheme).
template <typename V, int R>
TSV_ALWAYS_INLINE V blocked_m_vec_at(const vec_value_t<V>* ip, index base,
                                     index m, index nx, index j) {
  constexpr int W = V::width;
  const index bl = W * m;
  if (j >= 0 && j < m) return V::load(ip + base + j * W);
  if (j < 0) {  // left dependent #l, l = -j
    const index l = -j;
    const V cur = V::load(ip + base + (m - l) * W);
    const V prev = (base == 0) ? V::broadcast(ip[-l])
                               : V::load(ip + base - bl + (m - l) * W);
    return assemble_left(prev, cur);
  }
  const index l = j - m + 1;  // right dependent #l
  const vec_value_t<V> sc = (base + bl + l - 1 < nx)
                                ? ip[base + bl + (l - 1) * W]
                                : ip[nx + l - 1];
  return assemble_right(V::load(ip + base + (l - 1) * W), V::broadcast(sc));
}

}  // namespace detail

/// One Jacobi step over an m-blocked row (out of place, full row).
template <typename V, int R>
void blocked_m_sweep_row(const vec_value_t<V>* ip, vec_value_t<V>* op,
                         const std::array<vec_value_t<V>, 2 * R + 1>& w,
                         index nx, index m) {
  constexpr int W = V::width;
  require_fmt(m >= R, "blocked_m: m must be >= stencil radius");
  const index bl = W * m;
  for (index base = 0; base < nx; base += bl) {
    V win[2 * R + 1];
    static_for<0, 2 * R + 1>([&]<int K>() {
      win[K] = detail::blocked_m_vec_at<V, R>(ip, base, m, nx, K - R);
    });
    for (index j = 0; j < m; ++j) {
      V acc = V::zero();
      static_for<0, 2 * R + 1>([&]<int DXI>() {
        if (w[DXI] != 0)
          acc = fma(V::broadcast(w[DXI]), win[DXI], acc);
      });
      acc.store(op + base + j * W);
      static_for<0, 2 * R>([&]<int K>() { win[K] = win[K + 1]; });
      win[2 * R] = detail::blocked_m_vec_at<V, R>(ip, base, m, nx, j + 1 + R);
    }
  }
}

/// Full run driver: forward transform, T Jacobi steps, backward transform.
/// The parity buffer lives in @p ws.
template <typename V, int R>
TSV_NOINLINE void blocked_m_run(Grid1D<vec_value_t<V>>& g,
                                const Stencil1D<R, vec_value_t<V>>& s,
                                index steps, index m, Workspace& ws) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  blocked_m_forward_row<T, W>(g.x0(), g.nx(), m);
  jacobi_run(g, steps, ws, kWsTmpGrid, [&](const Grid1D<T>& in,
                                           Grid1D<T>& out) {
    blocked_m_sweep_row<V, R>(in.x0(), out.x0(), s.w, in.nx(), m);
  });
  blocked_m_backward_row<T, W>(g.x0(), g.nx(), m);
}

}  // namespace tsv
