#pragma once
// "Data reorganization" vectorization baseline (paper §2.1, second solution).
//
// Each input element is loaded exactly once with an *aligned* load; the
// shifted vectors a stencil tap needs are assembled from the neighbouring
// aligned vectors with inter-register shuffles (concat_shift). This halves
// the memory traffic of multiload but pressures the shuffle execution port —
// the trade-off the paper discusses.
//
// Vectorized spans must start at W-aligned x positions; regions with
// unaligned edges fall back to scalar cells at the rims. Both paths sum the
// taps in dx order, so a cell's value does not depend on which path a tile
// rim routes it through.

#include "tsv/vectorize/method_common.hpp"
#include "tsv/vectorize/multiload.hpp"

namespace tsv {

namespace detail {

/// Accumulates all taps of one padded row for the aligned vector at x
/// (x % W == 0), in dx order: left taps, centre, right taps. Aligned loads
/// of prev/cur/next (each at most once, and only when a live tap needs it)
/// + compile-time shifts.
template <typename V, int R>
TSV_ALWAYS_INLINE V reorg_row_acc(const vec_value_t<V>* p, index x,
                       const std::array<vec_value_t<V>, 2 * R + 1>& w, V acc) {
  constexpr int W = V::width;
  const V cur = V::load(p + x);

  bool need_prev = false, need_next = false;
  for (int dx = -R; dx < 0; ++dx) need_prev |= (w[dx + R] != 0);
  for (int dx = 1; dx <= R; ++dx) need_next |= (w[dx + R] != 0);

  if (need_prev) {
    const V prev = V::load(p + x - W);
    static_for<0, R>([&]<int I>() {
      constexpr int dx = I - R;  // dx in [-R, 0)
      if (w[I] != 0)
        acc = fma(V::broadcast(w[I]), concat_shift<W + dx>(prev, cur), acc);
    });
  }
  if (w[R] != 0) acc = fma(V::broadcast(w[R]), cur, acc);
  if (need_next) {
    const V next = V::load(p + x + W);
    static_for<R + 1, 2 * R + 1>([&]<int I>() {
      constexpr int dx = I - R;  // dx in (0, R]
      if (w[I] != 0)
        acc = fma(V::broadcast(w[I]), concat_shift<dx>(cur, next), acc);
    });
  }
  return acc;
}

}  // namespace detail

template <typename V, typename G, typename S>
TSV_NOINLINE void reorg_step_region(const G& in, G& out, const S& s,
                                    const Box& b) {
  using T = vec_value_t<V>;
  constexpr int W = V::width;
  constexpr int R = S::radius;
  const auto rows = tap_rows(s);
  const index xv = std::min(round_up(b.xlo, W), b.xhi);
  walk_rows(b, rows, rows_of(in), rows_of(out),
            [&](const auto& rp, T* op, index, index) {
              auto scalar_cell = [&](index x) {
                T acc = 0;
                for (int r = 0; r < rows.count(); ++r)
                  acc = detail::scalar_row_acc<R>(rp[r], x, rows.w[r], acc);
                op[x] = acc;
              };
              index x = b.xlo;
              for (; x < xv; ++x) scalar_cell(x);
              for (; x + W <= b.xhi; x += W) {
                V acc = V::zero();
                for (int r = 0; r < rows.count(); ++r)
                  acc = detail::reorg_row_acc<V, R>(rp[r], x, rows.w[r], acc);
                acc.store(op + x);
              }
              for (; x < b.xhi; ++x) scalar_cell(x);
            });
}

template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void reorg_run(G& g, const S& s, index steps, Workspace& ws,
                            Hook&& hook = {}) {
  jacobi_run(
      g, steps, ws, kWsTmpGrid,
      [&](const G& in, G& out) {
        reorg_step_region<V>(in, out, s, full_box(in));
      },
      hook);
}

}  // namespace tsv
