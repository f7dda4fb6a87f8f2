#pragma once
// Register-blocked generic interpreter (Method::kGeneric).
//
// Executes any row-based stencil descriptor — the lowered runtime shapes
// from core/generic_stencil.hpp as well as the compiled Table-1 descriptors
// — without a shape-specialized kernel. It runs the multiload baseline's
// unaligned-load row body (vectorize/multiload.hpp), with two twists that
// keep the interpreter within reach of the precompiled kernels:
//
//  * The tap loop is unrolled at compile time over the padded span 2R+1
//    (static_for) with a runtime zero-skip, so a star row costs its live
//    taps only; the *row* loop is runtime — that is the interpreted part.
//  * Register blocking: the main loop produces NB=4 output vectors per
//    iteration, so each broadcast weight register is reused across 4 FMAs
//    and the per-(row, tap) overhead amortizes. A W-granular loop and a
//    scalar loop mop up the tail.
//
// The lowered descriptors may carry a per-cell coefficient field
// ("scale"): out[c] = scale[c] * sum of taps, applied as one extra vector
// multiply before the store. Descriptors without the accessor (the
// compiled kinds) compile to the plain sum — the `requires` gate keeps the
// field access out of their instantiation entirely.

#include "tsv/core/generic_stencil.hpp"
#include "tsv/vectorize/method_common.hpp"
#include "tsv/vectorize/multiload.hpp"

namespace tsv {

template <typename V, typename G, typename S>
TSV_NOINLINE void generic_step_region(const G& in, G& out, const S& s,
                                      const Box& b) {
  using T = vec_value_t<V>;
  const auto rows = tap_rows(s);
  walk_rows(b, rows, rows_of(in), rows_of(out),
            [&](const auto& rp, T* op, index y, index z) {
              const T* sp = nullptr;
              if constexpr (requires { s.scale_row(y, z); })
                sp = s.scale_row(y, z);
              detail::unaligned_row<V, 4>(rp, op, rows, b.xlo, b.xhi, sp);
            });
}

template <typename V, typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void generic_run(G& g, const S& s, index steps, Workspace& ws,
                              Hook&& hook = {}) {
  jacobi_run(
      g, steps, ws, kWsTmpGrid,
      [&](const G& in, G& out) {
        generic_step_region<V>(in, out, s, full_box(in));
      },
      hook);
}

}  // namespace tsv
