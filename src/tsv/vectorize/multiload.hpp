#pragma once
// "Multiple loads" vectorization baseline (paper §2.1, first solution).
//
// Every shifted input vector is re-loaded from memory with an unaligned
// load — no inter-register data reorganization at all. This inflates the
// CPU-memory transfer volume and incurs unaligned-access penalties, which is
// exactly the behaviour the paper measures for this method.
//
// The unaligned-load row body below is shared with the generic interpreter
// (vectorize/generic.hpp): multiload instantiates it with one output vector
// per iteration — the paper's unblocked Table-2 baseline — and the
// interpreter with four.

#include "tsv/vectorize/method_common.hpp"

namespace tsv {

namespace detail {

/// Vector tap accumulate of one padded row over NB consecutive output
/// vectors at x: one broadcast per live tap, NB unaligned loads + fused
/// multiply-adds per broadcast.
template <typename V, int R, int NB>
TSV_ALWAYS_INLINE void unaligned_row_acc(
    const vec_value_t<V>* p, index x,
    const std::array<vec_value_t<V>, 2 * R + 1>& w, std::array<V, NB>& acc) {
  static_for<0, 2 * R + 1>([&]<int DXI>() TSV_ALWAYS_INLINE_LAMBDA {
    if (w[DXI] != 0) {
      const V wv = V::broadcast(w[DXI]);
      static_for<0, NB>([&]<int B>() TSV_ALWAYS_INLINE_LAMBDA {
        acc[B] = fma(wv, V::loadu(p + x + B * V::width + (DXI - R)), acc[B]);
      });
    }
  });
}

/// Scalar tap application on one padded row, in dx order and rounded like
/// the vector fma (madd), so rim cells match the vector body bit for bit.
template <int R, typename T>
TSV_ALWAYS_INLINE T scalar_row_acc(const T* p, index x,
                             const std::array<T, 2 * R + 1>& w, T acc) {
  for (int dx = -R; dx <= R; ++dx) acc = madd(w[dx + R], p[x + dx], acc);
  return acc;
}

/// NB output vectors at x from every tap row, each optionally scaled by the
/// per-cell coefficient row @p sp (nullptr = no scale).
template <typename V, int NB, typename Rows>
TSV_ALWAYS_INLINE void unaligned_vectors(
    const std::array<const vec_value_t<V>*, Rows::kCap>& rp,
    vec_value_t<V>* op, const Rows& rows, index x, const vec_value_t<V>* sp) {
  constexpr int W = V::width;
  std::array<V, NB> acc;
  static_for<0, NB>([&]<int B>() { acc[B] = V::zero(); });
  for (int r = 0; r < rows.count(); ++r)
    unaligned_row_acc<V, Rows::radius, NB>(rp[r], x, rows.w[r], acc);
  static_for<0, NB>([&]<int B>() {
    V v = acc[B];
    if (sp != nullptr) v = v * V::loadu(sp + x + B * W);
    v.storeu(op + x + B * W);
  });
}

/// One output row over [xlo, xhi) from unaligned loads: NB output vectors
/// per iteration, then single vectors, then scalar cells.
template <typename V, int NB, typename Rows>
TSV_ALWAYS_INLINE void unaligned_row(
    const std::array<const vec_value_t<V>*, Rows::kCap>& rp,
    vec_value_t<V>* op, const Rows& rows, index xlo, index xhi,
    const vec_value_t<V>* sp) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  index x = xlo;
  if constexpr (NB > 1)
    for (; x + NB * W <= xhi; x += NB * W)
      unaligned_vectors<V, NB>(rp, op, rows, x, sp);
  for (; x + W <= xhi; x += W) unaligned_vectors<V, 1>(rp, op, rows, x, sp);
  for (; x < xhi; ++x) {
    T acc = 0;
    for (int r = 0; r < rows.count(); ++r)
      acc = scalar_row_acc<Rows::radius>(rp[r], x, rows.w[r], acc);
    op[x] = sp != nullptr ? sp[x] * acc : acc;
  }
}

}  // namespace detail

template <typename V, typename G, typename S>
TSV_NOINLINE void multiload_step_region(const G& in, G& out, const S& s,
                                        const Box& b) {
  const auto rows = tap_rows(s);
  walk_rows(b, rows, rows_of(in), rows_of(out),
            [&](const auto& rp, vec_value_t<V>* op, index, index) {
              detail::unaligned_row<V, 1>(rp, op, rows, b.xlo, b.xhi,
                                          nullptr);
            });
}

template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void multiload_run(G& g, const S& s, index steps, Workspace& ws,
                                Hook&& hook = {}) {
  jacobi_run(
      g, steps, ws, kWsTmpGrid,
      [&](const G& in, G& out) {
        multiload_step_region<V>(in, out, s, full_box(in));
      },
      hook);
}

}  // namespace tsv
