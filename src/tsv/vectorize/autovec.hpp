#pragma once
// Compiler auto-vectorization baseline.
//
// The loops are written the way application programmers write stencils —
// plain scalar bodies over restrict pointers with an `omp simd` hint — and
// the compiler is left to vectorize them. This is the kernel the paper's
// "Tessellation" baseline uses inside its tiles (Yuan SC'17 relies on
// compiler auto-vectorization), and it stands in for "what ICC does".
//
// The region sweep takes a half-open Box so the tiling frameworks can drive
// it tile-by-tile; autovec_run sweeps the whole interior. Each tap is an
// explicit madd (simd/vec.hpp), the scalar reference's rounding, so the
// result does not hang on the compiler contracting `acc += w * p` — which
// it does not at -O0.

#include "tsv/vectorize/method_common.hpp"

namespace tsv {

template <typename G, typename S>
TSV_NOINLINE void autovec_step_region(const G& in, G& out, const S& s,
                                      const Box& b) {
  using T = typename S::value_type;
  constexpr int R = S::radius;
  // Local table: lets the vectorizer keep the weights in registers.
  const auto rows = tap_rows(s);
  walk_rows(b, rows, rows_of(in), rows_of(out),
            [&](const auto& rp, T* __restrict op, index, index) {
#pragma omp simd
              for (index x = b.xlo; x < b.xhi; ++x) {
                T acc = 0;
                for (int r = 0; r < rows.count(); ++r)
                  for (int dx = -R; dx <= R; ++dx)
                    acc = madd(rows.w[r][dx + R], rp[r][x + dx], acc);
                op[x] = acc;
              }
            });
}

template <typename G, typename S, typename Hook = NoBlockHook>
TSV_NOINLINE void autovec_run(G& g, const S& s, index steps, Workspace& ws,
                              Hook&& hook = {}) {
  jacobi_run(
      g, steps, ws, kWsTmpGrid,
      [&](const G& in, G& out) {
        autovec_step_region(in, out, s, full_box(in));
      },
      hook);
}

}  // namespace tsv
