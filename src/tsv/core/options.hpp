#pragma once
// Public run options: which vectorization method, which tiling framework,
// which ISA, and the blocking parameters.

#include <string>

#include "tsv/common/aligned.hpp"
#include "tsv/common/cpu.hpp"

namespace tsv {

/// Vectorization schemes evaluated by the paper.
enum class Method {
  kScalar,       ///< plain scalar reference
  kAutoVec,      ///< compiler auto-vectorization (pragma simd)
  kMultiLoad,    ///< unaligned load per shifted vector (paper §2.1)
  kReorg,        ///< aligned loads + register shuffles (paper §2.1)
  kDlt,          ///< dimension-lifting transpose (Henretty; paper §2.2)
  kTranspose,    ///< register-block transpose layout (paper §3.2) — "Our"
  kTransposeUJ,  ///< + time unroll-and-jam, k=2 (paper §3.3) — "Our (2 steps)"
  kGeneric,      ///< register-blocked interpreter over runtime tap lists
                 ///< (core/generic_stencil.hpp); also runs the compiled kinds
};

/// Tiling frameworks.
enum class Tiling {
  kNone,        ///< untiled sweeps (paper §4.2 block-free experiments)
  kTessellate,  ///< tessellate tiling (paper §3.4; Yuan SC'17)
  kSplit,       ///< split tiling over DLT layout (SDSL baseline)
};

/// Block-size autotuning policy (core/tuner.hpp). Tuning runs at plan time,
/// never inside Plan::execute.
enum class Tune {
  kOff,     ///< use explicit blocks / fixed heuristics (default)
  kCached,  ///< reuse a memoized (or JSON-imported) result; trial on miss
  kFull,    ///< always re-run timed trials, then update the cache
};

/// Non-temporal (streaming) store policy for the vector write-back paths.
/// kOn/kOff override the working-set-vs-LLC heuristic only; the structural
/// temporal-reuse gate always applies (tiled runs stream only at bt == 1),
/// and ResolvedOptions::streaming reports the decision that executes.
enum class StreamMode {
  kAuto,  ///< stream when the working set exceeds the LLC threshold and the
          ///< schedule has no temporal reuse (default)
  kOff,   ///< never stream
  kOn,    ///< stream whenever the schedule permits it (ignore the threshold)
};

/// Boundary condition applied on one grid axis. The halo ("ghost") cells of
/// the grid are the carrier in every case; the conditions differ only in who
/// writes them and when (core/halo.hpp implements the fills):
///
///  * kDirichlet — ghost cells hold user-supplied fixed boundary values and
///    are never touched by the library (the seed's convention: fill() the
///    halo yourself; it stays frozen in time). This is the default.
///  * kZero     — Dirichlet with value 0, enforced: the library zeroes the
///    ghost cells once per execute (the paper's implicit zero halo).
///  * kPeriodic — the axis wraps; ghost cells hold the opposite interior
///    edge at every time step.
///  * kNeumann  — zero-gradient (reflecting): the ghost cell at distance d
///    outside a face mirrors the interior cell at distance d-1 inside it,
///    at every time step.
///
/// Periodic and Neumann ghosts depend on the evolving interior, so plans
/// with such an axis keep them current inside the driver's layout (see
/// TypedPlan::execute): tessellated plans write each tile's ghost images
/// through, the others refresh the ghosts between time steps. The interior
/// kernels stay branch-free.
enum class Boundary {
  kDirichlet,  ///< frozen user-supplied halo values (default)
  kZero,       ///< enforced zero halo (paper's implicit convention)
  kPeriodic,   ///< wrap-around, current at every step
  kNeumann,    ///< zero-gradient mirror, current at every step
};

/// Per-axis boundary conditions. Axes beyond the grid rank are ignored (and
/// normalized to kDirichlet in ResolvedOptions).
struct BoundarySpec {
  Boundary x = Boundary::kDirichlet;
  Boundary y = Boundary::kDirichlet;
  Boundary z = Boundary::kDirichlet;

  /// The same condition on every axis.
  static BoundarySpec uniform(Boundary b) { return {b, b, b}; }

  friend bool operator==(const BoundarySpec&, const BoundarySpec&) = default;
};

/// True when @p b needs its ghosts rewritten at every time step (the ghost
/// values depend on the evolving interior).
inline bool boundary_per_step(Boundary b) {
  return b == Boundary::kPeriodic || b == Boundary::kNeumann;
}

/// True when any axis of @p bc needs per-step ghost writes.
inline bool needs_per_step_fill(const BoundarySpec& bc) {
  return boundary_per_step(bc.x) || boundary_per_step(bc.y) ||
         boundary_per_step(bc.z);
}

/// Stable human-readable names ("transpose", "tessellate", ...). Defined in
/// core/registry.cpp; registry.hpp adds the name -> enum inverses.
/// boundary_name lives in core/halo.cpp with its name -> enum inverse.
const char* method_name(Method m);
const char* tiling_name(Tiling t);
const char* boundary_name(Boundary b);

/// Stable names for the tuning knob ("off", "cached", "full"); inverse in
/// core/tuner.hpp.
const char* tune_name(Tune t);

/// Output health scan (core/health.hpp): after every execute, check the
/// result for NaN/Inf and throw NumericalError (with the first bad interior
/// index) on corruption. kBoundary scans only the outermost interior ring —
/// O(surface), catches halo/boundary corruption where it shows first;
/// kFull scans the whole interior — O(volume), catches everything.
enum class HealthCheck {
  kOff,       ///< no scan (default)
  kBoundary,  ///< outermost interior ring only
  kFull,      ///< entire interior
};

/// Stable names ("off", "boundary", "full") and the inverse; core/health.cpp.
const char* health_check_name(HealthCheck h);
HealthCheck health_check_from_name(const std::string& name);

/// Default x-block target (elements) for tiled plans when Options::bx is 0:
/// a few thousand elements keeps a tile's working set in L1/L2 while
/// amortizing tile overheads. Shared by the resolver (plan.cpp) and the
/// autotuner's candidate seeding (tuner.cpp) so the two cannot drift.
inline constexpr index kDefaultBxTarget = 4096;

/// Elements per spatial block such that one tile's two parity regions fit a
/// fraction of @p cache_bytes; rounded down to a 256-element granule (every
/// layout rule accepts multiples of 256 at every compiled width/dtype).
/// Sizes resolve's default 2D/3D tessellate tile and the tuner's seeds.
inline index cache_fit_elems(index cache_bytes, index elem_size,
                             double frac) {
  const index raw =
      static_cast<index>(static_cast<double>(cache_bytes) * frac) /
      (2 * elem_size);
  return raw < 256 ? index{256} : raw / 256 * 256;
}

/// Smallest legal block on a multi-tile tessellated axis: 2 * slope * tau,
/// so shrinking triangles never invert. Every tessellated driver advances
/// single steps (slope = r, tau = bt). Shared by the resolver and the
/// autotuner's candidate legalization.
inline index tess_min_block(int radius, index bt) {
  return 2 * index{radius} * (bt < 1 ? index{1} : bt);
}

struct Options {
  Method method = Method::kTranspose;
  Tiling tiling = Tiling::kNone;
  Isa isa = Isa::kAuto;     ///< kAuto resolves to best_isa() at plan time
  Dtype dtype = Dtype::kF64;  ///< element type; typed plans derive it from
                              ///< the stencil instead
  index steps = 1;          ///< time steps T
  index bx = 0, by = 0, bz = 0;  ///< spatial block sizes (0 = plan default)
  /// Temporal block (0 = plan default: 4, or on a 2D/3D tessellated grid
  /// tiled from the L2 budget the deepest block up to steps whose legal
  /// tile's two buffers still fit the per-thread L2). An explicit value is
  /// kept. Under a periodic/Neumann boundary split tiling resolves 1, and
  /// tessellate lowers the value to the deepest legal block (down to 1).
  index bt = 0;
  int threads = 0;          ///< tiled plans' OpenMP team; 0 = runtime default
                            ///< (an untiled plan always resolves 1)
  /// Upper bound on the resolved OpenMP team (0 = no cap). This is the
  /// Scheduler's gang hint (core/scheduler.hpp): a batched service partitions
  /// the machine into gangs and caps every request's team at its gang size,
  /// so concurrent requests compose instead of each claiming the whole
  /// machine. Applies after the `threads` default resolves; an explicit
  /// `threads` larger than the cap is clamped, never an error.
  int max_threads = 0;
  Tune tune = Tune::kOff;   ///< block autotuning (fills only fields left 0)
  StreamMode stream = StreamMode::kAuto;  ///< non-temporal store policy
  double stream_threshold = 0.0;  ///< LLC multiple for kAuto; 0 = default
  /// Per-axis boundary conditions (core/halo.hpp). The default, kDirichlet
  /// on every axis, is the seed behaviour: the halo you fill()ed is frozen.
  BoundarySpec boundary;
  /// Post-execute NaN/Inf output scan (core/health.hpp). Off by default —
  /// the scan costs an extra pass over the scanned cells.
  HealthCheck health_check = HealthCheck::kOff;
};

}  // namespace tsv
