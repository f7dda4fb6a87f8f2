#pragma once
// Scalar reference implementations — the ground truth every optimized method
// is tested against, in the same element type T the method runs in.
// Intentionally simple; no vectorization pragmas, no parallelism (multicore
// execution in this library always goes through a tiling framework, as in
// the paper's experiments).

#include "tsv/common/grid.hpp"
#include "tsv/core/generic_stencil.hpp"
#include "tsv/core/halo.hpp"
#include "tsv/kernels/stencil.hpp"

namespace tsv {

template <int R, typename T>
void reference_step(const Grid1D<T>& in, Grid1D<T>& out,
                    const Stencil1D<R, T>& s) {
  const T* ip = in.x0();
  T* op = out.x0();
  for (index x = 0; x < in.nx(); ++x) op[x] = s.apply(ip + x);
}

template <int R, int NR, typename T>
void reference_step(const Grid2D<T>& in, Grid2D<T>& out,
                    const Stencil2D<R, NR, T>& s) {
  for (index y = 0; y < in.ny(); ++y) {
    T* op = out.row(y);
    for (index x = 0; x < in.nx(); ++x)
      op[x] = s.apply([&](int dy) { return in.row(y + dy); }, x);
  }
}

template <int R, int NR, typename T>
void reference_step(const Grid3D<T>& in, Grid3D<T>& out,
                    const Stencil3D<R, NR, T>& s) {
  for (index z = 0; z < in.nz(); ++z)
    for (index y = 0; y < in.ny(); ++y) {
      T* op = out.row(y, z);
      for (index x = 0; x < in.nx(); ++x)
        op[x] =
            s.apply([&](int dy, int dz) { return in.row(y + dy, z + dz); }, x);
    }
}

// Lowered generic descriptors (core/generic_stencil.hpp): the tap sum plus
// the optional per-cell scale multiply, in the same element type T the
// interpreter runs in.

template <int R, typename T>
void reference_step(const Grid1D<T>& in, Grid1D<T>& out,
                    const GenericStencil1D<R, T>& s) {
  const T* ip = in.x0();
  T* op = out.x0();
  const T* sp = s.scale_row(0, 0);
  for (index x = 0; x < in.nx(); ++x) {
    const T acc = s.apply(ip + x);
    op[x] = sp != nullptr ? sp[x] * acc : acc;
  }
}

template <int R, typename T>
void reference_step(const Grid2D<T>& in, Grid2D<T>& out,
                    const GenericStencil2D<R, T>& s) {
  for (index y = 0; y < in.ny(); ++y) {
    T* op = out.row(y);
    const T* sp = s.scale_row(y, 0);
    for (index x = 0; x < in.nx(); ++x) {
      const T acc = s.apply([&](int dy) { return in.row(y + dy); }, x);
      op[x] = sp != nullptr ? sp[x] * acc : acc;
    }
  }
}

template <int R, typename T>
void reference_step(const Grid3D<T>& in, Grid3D<T>& out,
                    const GenericStencil3D<R, T>& s) {
  for (index z = 0; z < in.nz(); ++z)
    for (index y = 0; y < in.ny(); ++y) {
      T* op = out.row(y, z);
      const T* sp = s.scale_row(y, z);
      for (index x = 0; x < in.nx(); ++x) {
        const T acc =
            s.apply([&](int dy, int dz) { return in.row(y + dy, z + dz); }, x);
        op[x] = sp != nullptr ? sp[x] * acc : acc;
      }
    }
}

// Runtime-tap oracle: steps an UNLOWERED GenericStencil directly, one tap at
// a time, weights and scale rounded into the grid's own T — the ground truth
// the generic interpreter (and its lowering) is fuzzed against. No template
// radius anywhere: the ghost refresh uses the shape's effective radius.

template <typename T>
void generic_reference_step(const Grid1D<T>& in, Grid1D<T>& out,
                            const GenericStencil& gs) {
  const T* ip = in.x0();
  T* op = out.x0();
  for (index x = 0; x < in.nx(); ++x) {
    T acc = 0;
    for (const GenericTap& t : gs.taps) acc += T(t.weight) * ip[x + t.dx];
    if (!gs.scale.empty()) acc *= T(gs.scale[x]);
    op[x] = acc;
  }
}

template <typename T>
void generic_reference_step(const Grid2D<T>& in, Grid2D<T>& out,
                            const GenericStencil& gs) {
  for (index y = 0; y < in.ny(); ++y) {
    T* op = out.row(y);
    for (index x = 0; x < in.nx(); ++x) {
      T acc = 0;
      for (const GenericTap& t : gs.taps)
        acc += T(t.weight) * in.row(y + t.dy)[x + t.dx];
      if (!gs.scale.empty()) acc *= T(gs.scale[y * gs.scale_nx + x]);
      op[x] = acc;
    }
  }
}

template <typename T>
void generic_reference_step(const Grid3D<T>& in, Grid3D<T>& out,
                            const GenericStencil& gs) {
  for (index z = 0; z < in.nz(); ++z)
    for (index y = 0; y < in.ny(); ++y) {
      T* op = out.row(y, z);
      for (index x = 0; x < in.nx(); ++x) {
        T acc = 0;
        for (const GenericTap& t : gs.taps)
          acc += T(t.weight) * in.row(y + t.dy, z + t.dz)[x + t.dx];
        if (!gs.scale.empty())
          acc *= T(gs.scale[(z * gs.scale_ny + y) * gs.scale_nx + x]);
        op[x] = acc;
      }
    }
}

/// Boundary-aware runtime-tap oracle, the generic counterpart of the
/// reference_run overload below: ghosts refreshed with the same fill_ghosts
/// the plan layer uses, at the shape's effective radius, before every step.
template <typename Grid>
void generic_reference_run(Grid& g, const GenericStencil& gs, index steps,
                           const BoundarySpec& bc) {
  const int radius = gs.effective_radius();
  Grid tmp = g;  // copies shape, interior and halo (frozen-axis ghosts)
  for (index t = 0; t < steps; ++t) {
    fill_ghosts(g, bc, radius);
    generic_reference_step(g, tmp, gs);
    g.swap_storage(tmp);
  }
}

/// Advances @p g by @p steps Jacobi steps; result (including untouched halo)
/// ends up back in @p g. Works for all three grid ranks. The halo is frozen
/// — this is the all-kDirichlet behaviour of the boundary-aware overload
/// below.
template <typename Grid, typename S>
void reference_run(Grid& g, const S& s, index steps) {
  Grid tmp = g;  // copies shape, interior and halo
  for (index t = 0; t < steps; ++t) {
    reference_step(g, tmp, s);
    g.swap_storage(tmp);
  }
}

/// Boundary-aware oracle: ghost cells are refreshed with the SAME
/// fill_ghosts the plan layer uses (core/halo.hpp) before every step, so an
/// optimized method under any BoundarySpec must reproduce this bit-for-bit
/// in exact arithmetic (and within the dtype tolerance otherwise). Only the
/// interior of the result is meaningful — final ghost contents depend on
/// the swap parity.
template <typename Grid, typename S>
void reference_run(Grid& g, const S& s, index steps, const BoundarySpec& bc) {
  Grid tmp = g;  // copies shape, interior and halo (frozen-axis ghosts)
  for (index t = 0; t < steps; ++t) {
    fill_ghosts(g, bc, S::radius);
    reference_step(g, tmp, s);
    g.swap_storage(tmp);
  }
}

}  // namespace tsv
