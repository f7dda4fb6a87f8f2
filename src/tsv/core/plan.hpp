#pragma once
// Executable plans: configure once, execute many.
//
//   auto plan = tsv::make_plan(tsv::shape_of(grid), stencil,
//                              {.method = tsv::Method::kTransposeUJ,
//                               .tiling = tsv::Tiling::kTessellate,
//                               .steps = 1000, .bx = 256, .by = 128,
//                               .bt = 32});
//   plan.execute(grid);   // repeatable; no re-validation, no re-dispatch
//
// make_plan validates the configuration ONCE against the capability
// registry (core/registry.hpp), resolves ISA / threads / block sizes to
// concrete values (Options fields left at 0 / kAuto get sane defaults), and
// binds the kernel through a rank-generic dispatch table. Invalid
// configurations throw tsv::ConfigError at plan time — never from deep
// inside a kernel. Plan::execute then only checks that the grid matches the
// planned shape and jumps through the resolved function pointer.
//
// The dispatch table below is the ONLY place that maps (method, tiling) to
// kernels; it is written once, generically over grid rank, replacing the
// seed's three hand-written per-rank switch pyramids.

#include <omp.h>

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "tsv/common/timer.hpp"
#include "tsv/core/fault.hpp"
#include "tsv/core/halo.hpp"
#include "tsv/core/health.hpp"
#include "tsv/core/problems.hpp"
#include "tsv/core/registry.hpp"
#include "tsv/core/tuner.hpp"
#include "tsv/core/workspace.hpp"
#include "tsv/kernels/reference.hpp"
#include "tsv/tiling/tiled.hpp"
#include "tsv/vectorize/generic.hpp"
#include "tsv/vectorize/unroll_jam.hpp"

namespace tsv {

/// Grid geometry a plan is built for. ny/nz stay 1 for lower ranks.
struct Shape {
  int rank = 1;
  index nx = 0, ny = 1, nz = 1;
  index halo = 1;

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.rank == b.rank && a.nx == b.nx && a.ny == b.ny && a.nz == b.nz &&
           a.halo == b.halo;
  }
};

inline Shape shape1d(index nx, index halo = 1) {
  return {.rank = 1, .nx = nx, .ny = 1, .nz = 1, .halo = halo};
}
inline Shape shape2d(index nx, index ny, index halo = 1) {
  return {.rank = 2, .nx = nx, .ny = ny, .nz = 1, .halo = halo};
}
inline Shape shape3d(index nx, index ny, index nz, index halo = 1) {
  return {.rank = 3, .nx = nx, .ny = ny, .nz = nz, .halo = halo};
}

template <typename T>
Shape shape_of(const Grid1D<T>& g) {
  return shape1d(g.nx(), g.halo());
}
template <typename T>
Shape shape_of(const Grid2D<T>& g) {
  return shape2d(g.nx(), g.ny(), g.halo());
}
template <typename T>
Shape shape_of(const Grid3D<T>& g) {
  return shape3d(g.nx(), g.ny(), g.nz(), g.halo());
}

/// Fully resolved execution parameters: every field is concrete (no kAuto,
/// no 0-means-default). Introspectable via Plan::config().
struct ResolvedOptions {
  Method method = Method::kTranspose;
  Tiling tiling = Tiling::kNone;
  Isa isa = Isa::kScalar;  ///< concrete ISA the kernels were bound for
  Dtype dtype = Dtype::kF64;  ///< concrete element type the kernels compute in
  index width = 2;         ///< kernel vector width in dtype lanes (2..16)
  index steps = 0;
  index bx = 0, by = 0, bz = 0;  ///< resolved tessellation blocks (elements)
  index bt = 0;                  ///< resolved temporal block
  /// Split tiling blocks exactly one axis; this is its resolved block size in
  /// units of that axis: DLT columns (1D), rows (2D) or planes (3D). See
  /// "resolved-blocking rule" in plan.cpp.
  index split_block = 0;
  int threads = 1;  ///< resolved OpenMP team (1 for untiled sweeps)
  /// Post-execute NaN/Inf scan scope (core/health.hpp); part of the plan
  /// identity so cached plans with different scan scopes never collide.
  HealthCheck health = HealthCheck::kOff;
  /// Non-temporal write-back resolved on: the working set exceeds the LLC
  /// threshold and the schedule has no temporal cache reuse to protect
  /// (untiled sweeps, or tiled with bt == 1). See core/workspace.cpp.
  bool streaming = false;
  Tune tune = Tune::kOff;  ///< tuning mode the plan was built with
  /// Per-axis boundary conditions, normalized (axes beyond the rank are
  /// kDirichlet). When any axis is periodic/Neumann a tessellated plan
  /// writes the ghost images through and keeps a deep bt; the other plans
  /// refresh the ghosts between steps and bt reports 1. See core/halo.hpp.
  BoundarySpec boundary;
};

/// Validates (shape, stencil radius, options) against the registry and
/// resolves every parameter. Throws ConfigError on invalid configurations.
/// This is the single validation path; make_plan calls it once.
ResolvedOptions resolve_options(const Shape& shape, int radius,
                                const Options& o);

// ---------------------------------------------------------------------------
// Rank-generic dispatch table.
// ---------------------------------------------------------------------------

namespace detail {

/// The OpenMP team a tiled plan resolves when Options::threads is 0:
/// captured once, at first use, from the calling thread (plan.cpp). The
/// Scheduler constructor invokes this before spawning its ICV-pinned gang
/// workers so the capture can never come from a gang-sized worker thread.
int runtime_default_threads();

template <int Dim, typename T>
struct grid_for;
template <typename T>
struct grid_for<1, T> {
  using type = Grid1D<T>;
};
template <typename T>
struct grid_for<2, T> {
  using type = Grid2D<T>;
};
template <typename T>
struct grid_for<3, T> {
  using type = Grid3D<T>;
};
template <typename S>
using grid_for_t = typename grid_for<S::dim, typename S::value_type>::type;

/// The between-time-blocks hook every plan execute hands its driver (the
/// NoBlockHook protocol, common/grid.hpp). It polls @p ctl without
/// throwing, so a fired control stops the driver at a block boundary with
/// the current level delivered to the grid. Under a periodic/Neumann
/// boundary @p bc (null otherwise) it keeps the ghosts current: with
/// @p write_through (tessellated plans) images() writes the ghost images of
/// every box the engine advances and wraps() names the periodic axes, else
/// each call refreshes the ghosts of the buffer holding the current level
/// on a team of @p team threads, through the layout's x index map. On a
/// plain run both pointers are null and every call returns true after two
/// pointer tests. The first call is the block the plan itself prepared (the
/// dispatch poll and the ghost fill before the driver call cover it), so it
/// does nothing.
class BlockHook {
 public:
  BlockHook(const ExecControl* ctl, const BoundarySpec* bc, int radius,
            bool write_through, int team)
      : ctl_(ctl),
        refresh_(write_through ? nullptr : bc),
        images_(write_through ? bc : nullptr),
        radius_(radius),
        team_(team) {}

  bool per_step() const { return refresh_ != nullptr || images_ != nullptr; }

  unsigned wraps() const {
    if (images_ == nullptr) return 0;
    auto wrap = [](Boundary b) { return b == Boundary::kPeriodic ? 1u : 0u; };
    return wrap(images_->x) | wrap(images_->y) << 1 | wrap(images_->z) << 2;
  }

  template <typename Grid, typename XMap>
  bool operator()(Grid& cur, const XMap& xmap) {
    if (std::exchange(first_, false)) return true;
    if (ctl_ != nullptr && (stop_ = ctl_->poll()) != ExecControl::Stop::kNone)
      return false;
    if (refresh_ != nullptr)
      fill_ghosts(cur, *refresh_, radius_, xmap, team_);
    return true;
  }

  template <typename Grid, typename XMap>
  void images(Grid& out, const Box& box, const XMap& xmap) const {
    if (images_ != nullptr)
      detail::write_ghost_images(out, *images_, radius_, box, xmap);
  }

  /// After the driver returns: the end of the run is a block boundary too,
  /// so a control that fired during the last block is polled here. Throws
  /// CancelledError / TimeoutError when the control fired; the grid then
  /// holds a whole-block prefix of the run, in the original layout.
  void finish() {
    if (ctl_ != nullptr && stop_ == ExecControl::Stop::kNone)
      stop_ = ctl_->poll();
    ExecControl::raise(stop_);
  }

 private:
  const ExecControl* ctl_;
  const BoundarySpec* refresh_;
  const BoundarySpec* images_;
  int radius_;
  int team_;
  bool first_ = true;
  ExecControl::Stop stop_ = ExecControl::Stop::kNone;
};

template <typename G, typename S>
using ExecFn = void (*)(G&, const S&, const ResolvedOptions&, Workspace&,
                        BlockHook&);
template <typename G, typename S>
using PrepFn = void (*)(const G&, const S&, const ResolvedOptions&,
                        Workspace&);

/// One bound kernel: the driver, instantiated once with BlockHook (plain,
/// polled and per-step-boundary runs all take it), and the prepare step
/// that creates every workspace slot the driver fetches for the same grid
/// and options.
template <typename G, typename S>
struct Kernel {
  ExecFn<G, S> run = nullptr;
  PrepFn<G, S> prepare = nullptr;
};

/// The kernel adapters: each (method, tiling) combination defined ONCE.
/// Every driver serves ranks 1-3, so no adapter branches on the rank: the
/// tiled ones pass {bx, by, bz}, whose entries beyond the rank are unused.
/// Every adapter passes the plan's Workspace down so steady-state executes
/// never allocate; the vector write-back drivers also receive the resolved
/// streaming flag.
template <typename V, typename G, typename S>
struct Exec {
  static Blocks blocks(const ResolvedOptions& r) { return {r.bx, r.by, r.bz}; }

  // -- untiled --------------------------------------------------------------
  static void scalar(G& g, const S& s, const ResolvedOptions& r,
                     Workspace& ws, BlockHook& h) {
    jacobi_run(
        g, r.steps, ws, kWsTmpGrid,
        [&](const G& in, G& out) { reference_step(in, out, s); }, h);
  }
  static void autovec(G& g, const S& s, const ResolvedOptions& r,
                      Workspace& ws, BlockHook& h) {
    autovec_run(g, s, r.steps, ws, h);
  }
  static void multiload(G& g, const S& s, const ResolvedOptions& r,
                        Workspace& ws, BlockHook& h) {
    multiload_run<V>(g, s, r.steps, ws, h);
  }
  static void reorg(G& g, const S& s, const ResolvedOptions& r,
                    Workspace& ws, BlockHook& h) {
    reorg_run<V>(g, s, r.steps, ws, h);
  }
  static void dlt(G& g, const S& s, const ResolvedOptions& r, Workspace& ws,
                  BlockHook& h) {
    dlt_run<V>(g, s, r.steps, ws, r.streaming, h);
  }
  static void transpose(G& g, const S& s, const ResolvedOptions& r,
                        Workspace& ws, BlockHook& h) {
    transpose_vs_run<V>(g, s, r.steps, ws, r.streaming, h);
  }
  static void transpose_uj(G& g, const S& s, const ResolvedOptions& r,
                           Workspace& ws, BlockHook& h) {
    unroll_jam_run<V>(g, s, r.steps, ws, h);
  }

  // -- tessellate tiling ----------------------------------------------------
  static void tess_autovec(G& g, const S& s, const ResolvedOptions& r,
                           Workspace& ws, BlockHook& h) {
    tess_autovec_run(g, s, r.steps, blocks(r), r.bt, ws, h);
  }
  static void tess_multiload(G& g, const S& s, const ResolvedOptions& r,
                             Workspace& ws, BlockHook& h) {
    tess_multiload_run<V>(g, s, r.steps, blocks(r), r.bt, ws, h);
  }
  static void tess_reorg(G& g, const S& s, const ResolvedOptions& r,
                         Workspace& ws, BlockHook& h) {
    tess_reorg_run<V>(g, s, r.steps, blocks(r), r.bt, ws, h);
  }
  static void tess_transpose(G& g, const S& s, const ResolvedOptions& r,
                             Workspace& ws, BlockHook& h) {
    tess_transpose_run<V>(g, s, r.steps, blocks(r), r.bt, ws, r.streaming, h);
  }

  // -- split tiling (uniform signature: the split axis is resolved) ---------
  static void split_dlt(G& g, const S& s, const ResolvedOptions& r,
                        Workspace& ws, BlockHook& h) {
    sdsl_run<V>(g, s, r.steps, r.split_block, r.bt, ws, r.streaming, h);
  }

  // -- generic interpreter (any row-based S, compiled or lowered) -----------
  static void generic(G& g, const S& s, const ResolvedOptions& r,
                      Workspace& ws, BlockHook& h) {
    generic_run<V>(g, s, r.steps, ws, h);
  }
  static void tess_generic(G& g, const S& s, const ResolvedOptions& r,
                           Workspace& ws, BlockHook& h) {
    tess_generic_run<V>(g, s, r.steps, blocks(r), r.bt, ws, h);
  }

  // -- the workspace slots each driver fetches (TypedPlan::prepare) ---------
  static void parity_slot(const G& g, const S&, const ResolvedOptions&,
                          Workspace& ws) {
    ws_grid_like(ws, kWsTmpGrid, g);
  }
  static void dlt_slots(const G& g, const S&, const ResolvedOptions&,
                        Workspace& ws) {
    ws_grid_like(ws, kWsDltA, g);
    ws_grid_like(ws, kWsTmpGrid, g);
  }
  static void split_dlt_slots(const G& g, const S&, const ResolvedOptions&,
                              Workspace& ws) {
    ws_grid_like(ws, kWsDltA, g);
    ws_grid_like(ws, kWsDltB, g);
  }
  // The 2-step scheme advances single steps under a per-step boundary
  // (TypedPlan::execute hands it a per-step hook).
  static void transpose_uj_slots(const G& g, const S&,
                                 const ResolvedOptions& r, Workspace& ws) {
    unroll_jam_prepare<S::radius>(g, r.steps,
                                  needs_per_step_fill(r.boundary), ws);
  }
};

/// Enum -> kernel adapter for one vector width. The one and only
/// method/tiling switch, shared by every rank. Returns an empty Kernel for
/// combinations the registry must not claim.
template <typename V, typename G, typename S>
Kernel<G, S> exec_for(Method m, Tiling t) {
  using E = Exec<V, G, S>;
  // Runtime-row descriptors (lowered GenericStencils) execute ONLY through
  // the generic interpreter. The branch below is `if constexpr` on purpose:
  // taking a specialized adapter's address instantiates its body, and the
  // layout kernels (transpose, DLT, unroll&jam) sweep a compile-time row
  // count — they must never be bound to a runtime-row descriptor.
  if constexpr (is_generic_stencil_v<S>) {
    if (m != Method::kGeneric) return {};
    if (t == Tiling::kNone) return {&E::generic, &E::parity_slot};
    if (t == Tiling::kTessellate) return {&E::tess_generic, &E::parity_slot};
    return {};
  } else {
    switch (t) {
      case Tiling::kNone:
        switch (m) {
          case Method::kScalar: return {&E::scalar, &E::parity_slot};
          case Method::kAutoVec: return {&E::autovec, &E::parity_slot};
          case Method::kMultiLoad: return {&E::multiload, &E::parity_slot};
          case Method::kReorg: return {&E::reorg, &E::parity_slot};
          case Method::kDlt: return {&E::dlt, &E::dlt_slots};
          case Method::kTranspose: return {&E::transpose, &E::parity_slot};
          case Method::kTransposeUJ:
            return {&E::transpose_uj, &E::transpose_uj_slots};
          // The interpreter also runs the compiled descriptors — that is
          // what the fig14 overhead bench and the registry sweep measure.
          case Method::kGeneric: return {&E::generic, &E::parity_slot};
        }
        return {};
      case Tiling::kTessellate:
        switch (m) {
          case Method::kAutoVec: return {&E::tess_autovec, &E::parity_slot};
          // The tiled ablation variants are registered for 1D only; other
          // ranks are never instantiated.
          case Method::kMultiLoad:
            if constexpr (G::kRank == 1)
              return {&E::tess_multiload, &E::parity_slot};
            return {};
          case Method::kReorg:
            if constexpr (G::kRank == 1)
              return {&E::tess_reorg, &E::parity_slot};
            return {};
          // The tiled 2-step row runs transpose's tessellated steps: a
          // register-level tiled unroll&jam does not exist yet.
          case Method::kTranspose:
          case Method::kTransposeUJ:
            return {&E::tess_transpose, &E::parity_slot};
          case Method::kGeneric: return {&E::tess_generic, &E::parity_slot};
          default: return {};
        }
      case Tiling::kSplit:
        if (m == Method::kDlt) return {&E::split_dlt, &E::split_dlt_slots};
        return {};
    }
    return {};
  }
}

template <typename G, typename S>
struct ExecEntry {
  Method method;
  Tiling tiling;
  Isa isa;
  Kernel<G, S> kernel;
};

template <typename V, typename G, typename S>
void add_entries(std::vector<ExecEntry<G, S>>& table, Isa isa) {
  for (const Capability& cap : capabilities()) {
    if (!cap.supports_rank(G::kRank)) continue;
    const Kernel<G, S> k = exec_for<V, G, S>(cap.method, cap.tiling);
    if (k.run != nullptr) table.push_back({cap.method, cap.tiling, isa, k});
  }
}

/// Per-(grid, stencil) dispatch table, built once from the registry: one row
/// per registry capability per compiled vector width. The element type comes
/// from the stencil; a float table binds the same kernels at 2x the lanes.
template <typename G, typename S>
const std::vector<ExecEntry<G, S>>& exec_table() {
  using T = typename S::value_type;
  static const std::vector<ExecEntry<G, S>> table = [] {
    std::vector<ExecEntry<G, S>> t;
    add_entries<Vec<T, 16 / sizeof(T)>, G, S>(t, Isa::kScalar);
#if defined(__AVX2__)
    add_entries<Vec<T, 32 / sizeof(T)>, G, S>(t, Isa::kAvx2);
#endif
#if defined(__AVX512F__)
    add_entries<Vec<T, 64 / sizeof(T)>, G, S>(t, Isa::kAvx512);
#endif
    return t;
  }();
  return table;
}

template <typename G, typename S>
Kernel<G, S> lookup_exec(const ResolvedOptions& r) {
  for (const ExecEntry<G, S>& e : exec_table<G, S>())
    if (e.method == r.method && e.tiling == r.tiling && e.isa == r.isa)
      return e.kernel;
  throw ConfigError(r.method, r.tiling, G::kRank,
                    "registry/dispatch-table mismatch: no kernel bound for "
                    "this combination (internal error)");
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Plans.
// ---------------------------------------------------------------------------

/// A validated, fully resolved execution plan for one (grid shape, stencil)
/// pair. Cheap to copy; execute() is const and reusable.
///
/// The plan owns a Workspace holding every scratch buffer its kernels need;
/// the first execute populates it (NUMA first touch by the compute threads)
/// before it writes to the grid, and all subsequent executes are
/// allocation-free. Copies of a plan SHARE
/// the workspace, so one plan object must not be executed from two threads
/// concurrently THROUGH THE OWNED WORKSPACE — either build one plan per
/// concurrent execution stream, or use the execute(g, ws) overload with a
/// distinct Workspace per in-flight call (what the Scheduler's
/// per-request workspace pool does; everything else in the plan is
/// immutable after construction and safe to share).
template <typename G, typename S>
class TypedPlan {
 public:
  TypedPlan(const Shape& shape, const S& stencil, const ResolvedOptions& cfg)
      : shape_(shape),
        stencil_(stencil),
        cfg_(cfg),
        kernel_(detail::lookup_exec<G, S>(cfg)),
        ws_(std::make_shared<Workspace>()) {}

  /// Advances @p g by config().steps time steps. The grid must match the
  /// planned shape (checked; everything else was validated at plan time).
  ///
  /// Boundary handling (core/halo.hpp): kDirichlet axes never touch the
  /// ghost cells; kZero axes are zeroed once up front; a periodic/Neumann
  /// axis makes the ghost values depend on the evolving interior, so the
  /// plan's block hook keeps them current inside the driver's layout: a
  /// tessellated plan writes each box's ghost images through, at its full
  /// temporal block; the others refresh them between steps. The interior
  /// kernels are identical in every case — the boundary work is O(halo)
  /// per step, outside the hot loops.
  void execute(G& g) const { execute(g, *ws_); }

  /// As execute(g), but every scratch buffer comes from @p ws instead of the
  /// plan-owned workspace. This is the concurrency-safe entry point: the
  /// plan itself is immutable, so any number of threads may run this
  /// overload simultaneously as long as each brings its own grid AND its
  /// own workspace (core/workspace.hpp's WorkspacePool hands out exactly
  /// that). A workspace reused across executes of the same plan stays
  /// allocation-free after its first use, like the owned one.
  ///
  /// Every execute makes exactly one driver call, which transforms into its
  /// layout once and back once. @p ctl (optional) is the cooperative
  /// cancellation/timeout control: when active, it is polled at dispatch
  /// and after every time block (bt steps tiled, one step untiled, one
  /// pair for the untiled 2-step scheme), the last one included. A fired
  /// control stops the driver at that block boundary and the plan throws
  /// CancelledError / TimeoutError with @p g holding that whole-block
  /// prefix of the run, in the original layout. The result is bit-identical
  /// to the plain run of the same prefix: the plan keeps its temporal
  /// blocking, and blocking reorders traversal, never arithmetic.
  void execute(G& g, Workspace& ws, const ExecControl* ctl = nullptr) const {
    check_shape(g);
    // Pre-mutation: an injected sweep fault leaves the grid untouched, so
    // the caller can re-run this same plan from the same input.
    fault_point(FaultSite::kKernelSweep);
    const bool polled = ctl != nullptr && ctl->active();
    if (polled) ctl->check();
    prepare(g, ws);
    if (cfg_.steps <= 0) return;
    // No-op if all Dirichlet; a tiled plan fills on its team (an untiled
    // one resolved threads = 1: the plain loops, no parallel region).
    fill_ghosts(g, cfg_.boundary, S::radius, IdentityX{}, cfg_.threads);
    detail::BlockHook hook(
        polled ? ctl : nullptr,
        needs_per_step_fill(cfg_.boundary) ? &cfg_.boundary : nullptr,
        S::radius, cfg_.tiling == Tiling::kTessellate, cfg_.threads);
    kernel_.run(g, stencil_, cfg_, ws, hook);
    hook.finish();
    health_scan(g, cfg_.health);
  }

  /// Creates every workspace slot execute(g, ws, ctl) fetches, and pins
  /// the calling thread's OpenMP team to the plan's (tiled plans; the
  /// per-thread ICV is concrete after resolve, so nothing leaks across
  /// plans). execute runs it before its first write to @p g, so every
  /// allocation failure — a std::bad_alloc or the injected workspace.slot
  /// fault — leaves @p g untouched and a re-run of the same plan is
  /// bit-identical. Calling it ahead of execute moves the allocations out
  /// of the execute.
  void prepare(const G& g, Workspace& ws) const {
    check_shape(g);
    if (cfg_.tiling != Tiling::kNone) omp_set_num_threads(cfg_.threads);
    if (cfg_.steps > 0) kernel_.prepare(g, stencil_, cfg_, ws);
  }

  const Shape& shape() const { return shape_; }
  const S& stencil() const { return stencil_; }
  const ResolvedOptions& config() const { return cfg_; }
  /// The plan-owned scratch storage (introspection / tests).
  Workspace& workspace() const { return *ws_; }

 private:
  void check_shape(const G& g) const {
    if (shape_of(g) != shape_)
      throw ConfigError(cfg_.method, cfg_.tiling, G::kRank,
                        "grid does not match the planned shape");
  }

  Shape shape_;
  S stencil_;
  ResolvedOptions cfg_;
  detail::Kernel<G, S> kernel_;
  std::shared_ptr<Workspace> ws_;
};

template <int R, typename T = double>
using Plan1D = TypedPlan<Grid1D<T>, Stencil1D<R, T>>;
template <int R, int NR, typename T = double>
using Plan2D = TypedPlan<Grid2D<T>, Stencil2D<R, NR, T>>;
template <int R, int NR, typename T = double>
using Plan3D = TypedPlan<Grid3D<T>, Stencil3D<R, NR, T>>;

// ---------------------------------------------------------------------------
// Plan-time autotuning (Options::tune; see core/tuner.hpp).
// ---------------------------------------------------------------------------

namespace detail {

/// Synthetic same-shape grid the tuner times candidate plans on (make_plan
/// only sees the shape, never the user's data — and trials must not advance
/// the user's grid anyway).
template <typename G>
G make_trial_grid(const Shape& shape) {
  using T = typename G::value_type;
  auto v = [](index k) {
    return static_cast<T>(0.25 + 1e-4 * static_cast<double>(k % 97));
  };
  G g = make_grid<G>({shape.nx, shape.ny, shape.nz}, shape.halo);
  if constexpr (G::kRank == 1)
    g.fill([&](index x) { return v(x); });
  else if constexpr (G::kRank == 2)
    g.fill([&](index x, index y) { return v(x + 3 * y); });
  else
    g.fill([&](index x, index y, index z) { return v(x + 3 * y + 7 * z); });
  return g;
}

/// Resolves bx/by/bz/bt empirically: candidate blockings (cache-topology
/// seeded, legality-clamped) race over short timed trials on a synthetic
/// grid of the planned shape; the winner is memoized under the full resolved
/// tuple. Fields the user pinned are never changed. Trials run with tune =
/// kOff, so there is no recursion, and each candidate's step count is
/// budget-capped (tune_trial_steps).
template <typename G, typename S>
Options tuned_options(const Shape& shape, const S& stencil, const Options& o) {
  const ResolvedOptions r0 = resolve_options(shape, S::radius, o);
  const TuneKey key{r0.method, r0.tiling,  shape.rank, r0.isa,  r0.dtype,
                    shape.nx,  shape.ny,   shape.nz,   S::radius,
                    r0.threads, r0.steps,  o.bx,       o.by,    o.bz,
                    o.bt,       r0.boundary};
  // Tuning fills ONLY the fields the user left at 0 — a pinned field is
  // never overwritten, not even by a cache hit (the pins are part of the
  // key, so an entry found here was searched under the same constraints).
  auto apply = [&](const TunedBlocks& b) {
    Options out = o;
    if (o.bx == 0) out.bx = b.bx;
    if (o.by == 0) out.by = b.by;
    if (o.bz == 0) out.bz = b.bz;
    if (o.bt == 0) out.bt = b.bt;
    return out;
  };
  if (o.tune == Tune::kCached)
    if (auto hit = tune_cache_lookup(key)) return apply(*hit);

  // Single-flight: serialize the trial section so concurrent make_plan
  // calls never run timed trials on top of each other (overlapping trials
  // memoize each other's noise), then re-check the cache — the racing
  // planner that lost the lock must reuse the winner's search, not repeat
  // it. kFull skips the re-check by contract (it always re-trials) but
  // still serializes.
  std::lock_guard<std::mutex> trial_lock(tune_trial_mutex());
  if (o.tune == Tune::kCached)
    if (auto hit = tune_cache_lookup(key)) return apply(*hit);

  const auto candidates =
      tune_candidates(shape.rank, shape.nx, shape.ny, shape.nz, S::radius,
                      o.tiling, o.steps, o);
  const index points = shape.nx * (shape.rank >= 2 ? shape.ny : 1) *
                       (shape.rank >= 3 ? shape.nz : 1);

  // Pre-resolve every candidate under the REAL run length (legality, and
  // the concrete bt the 0-default resolves to), then time all survivors
  // over ONE shared step count sized for the largest bt. Unequal trial
  // lengths would bias the scores: per-execute fixed costs (the two layout
  // transforms, workspace halo refresh) amortize differently over 2 steps
  // than over 256, and the default candidate must lose only if it is
  // genuinely slower per step.
  struct Candidate {
    TunedBlocks blocks;
    Options opts;
  };
  std::vector<Candidate> runnable;
  std::vector<std::array<index, 4>> seen;  // resolved (bx, by, bz, bt)
  index max_bt = 1;
  for (const TunedBlocks& cand : candidates) {
    Options oc = apply(cand);
    oc.tune = Tune::kOff;
    try {
      const ResolvedOptions rc = resolve_options(shape, S::radius, oc);
      // Race each RESOLVED blocking once: distinct candidates can collapse
      // to the same concrete blocks (e.g. every bt variant resolves to 1
      // under split tiling with a periodic/Neumann boundary), and a
      // duplicate trial costs two timed executions for zero information.
      // The first candidate wins ties — tune_candidates puts the
      // fixed-heuristic default first.
      const std::array<index, 4> blocks{rc.bx, rc.by, rc.bz, rc.bt};
      if (std::find(seen.begin(), seen.end(), blocks) != seen.end()) continue;
      seen.push_back(blocks);
      max_bt = std::max(max_bt, rc.bt);
      runnable.push_back({cand, oc});
    } catch (const std::invalid_argument&) {
      continue;  // candidate illegal on this shape: skip it
    }
  }
  // Fully pinned configurations (or a search space the legality rules
  // collapsed to one option) have nothing to race: skip the trial grid —
  // a full second copy of the problem — and both throwaway executions.
  if (runnable.size() <= 1) {
    const TunedBlocks only =
        runnable.empty() ? TunedBlocks{o.bx, o.by, o.bz, o.bt}
                         : runnable.front().blocks;
    tune_cache_store(key, only);
    return apply(only);
  }
  const index trial_steps = tune_trial_steps(points, max_bt, o.steps);

  G trial = make_trial_grid<G>(shape);
  double best_score = -1.0;
  TunedBlocks best{o.bx, o.by, o.bz, o.bt};
  std::uint64_t trial_execs = 0;  // timed executes, for TuneCounters
  for (Candidate& c : runnable) {
    c.opts.steps = trial_steps;
    double score = -1.0;
    try {
      const TypedPlan<G, S> p(shape, stencil,
                              resolve_options(shape, S::radius, c.opts));
      double secs = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 2; ++rep) {  // best-of-2 absorbs warmup noise
        Timer t;
        p.execute(trial);
        ++trial_execs;
        secs = std::min(secs, t.seconds());
      }
      score = static_cast<double>(points) *
              static_cast<double>(trial_steps) / std::max(secs, 1e-9);
    } catch (const std::invalid_argument&) {
      continue;  // engine-level rejection under the trial step count
    }
    if (score > best_score) {
      best_score = score;
      best = c.blocks;
    }
  }
  detail::tune_note_trials(1, trial_execs);
  tune_cache_store(key, best);
  return apply(best);
}

}  // namespace detail

/// Builds a plan for an explicit stencil descriptor. Validates once against
/// the registry; throws ConfigError on invalid configurations. The element
/// type is the stencil's: Options::dtype is overridden here and only drives
/// the StencilKind overload below. With Options::tune enabled (and a tiled
/// configuration), block sizes the user left at 0 are autotuned here — at
/// plan time, never inside execute.
template <typename S>
TypedPlan<detail::grid_for_t<S>, S> make_plan(const Shape& shape,
                                              const S& stencil,
                                              const Options& o = {}) {
  if (shape.rank != S::dim)
    throw ConfigError(o.method, o.tiling, shape.rank,
                      "shape rank does not match the stencil's rank");
  // Descriptors bound to concrete grid extents (a lowered GenericStencil
  // carrying a per-cell scale field) veto mismatched shapes here.
  if constexpr (requires {
                  stencil.check_shape(shape.rank, shape.nx, shape.ny,
                                      shape.nz);
                }) {
    if (const char* why =
            stencil.check_shape(shape.rank, shape.nx, shape.ny, shape.nz))
      throw ConfigError(o.method, o.tiling, shape.rank, why);
  }
  Options oo = o;
  oo.dtype = dtype_of<typename S::value_type>();
  if (oo.tune != Tune::kOff && oo.tiling != Tiling::kNone)
    oo = detail::tuned_options<detail::grid_for_t<S>, S>(shape, stencil, oo);
  return TypedPlan<detail::grid_for_t<S>, S>(
      shape, stencil, resolve_options(shape, S::radius, oo));
}

/// Non-owning reference to a caller grid of any rank and dtype: what the
/// rank-erased Plan executes on and what a Scheduler request carries.
using GridRef =
    std::variant<Grid1D<double>*, Grid2D<double>*, Grid3D<double>*,
                 Grid1D<float>*, Grid2D<float>*, Grid3D<float>*>;

namespace detail {
template <typename G>
GridRef grid_ref(G& g) {
  return &g;
}
inline GridRef grid_ref(GridRef g) { return g; }
}  // namespace detail

/// Rank-erased plan for runtime stencil kinds (CLI / bench / service use).
/// Holds a TypedPlan for one of the named Table-1 stencils in the dtype the
/// Options selected; execute() on the wrong grid rank — or on a grid whose
/// element type differs from the planned dtype — throws ConfigError.
///
/// Concurrency follows TypedPlan's rule: the one-argument execute() goes
/// through the shared plan-owned workspace (single execution stream only);
/// the (grid, workspace) overload is safe from any number of threads as
/// long as each in-flight call brings its own grid and workspace. Both
/// accept a concrete grid or a GridRef.
class Plan {
 public:
  template <typename G>
  void execute(G& g) const {
    run(detail::grid_ref(g), nullptr, nullptr);
  }

  /// Threads @p ctl (cancel/timeout polling) down to TypedPlan::execute;
  /// see its documentation.
  template <typename G>
  void execute(G& g, Workspace& ws, const ExecControl* ctl = nullptr) const {
    run(detail::grid_ref(g), &ws, ctl);
  }

  int rank() const { return shape_.rank; }
  const Shape& shape() const { return shape_; }
  const ResolvedOptions& config() const { return cfg_; }

 private:
  friend Plan make_plan(const Shape& shape, StencilKind kind,
                        const Options& o);
  friend Plan make_plan(const Shape& shape, const StencilSpec& spec,
                        const Options& o);
  friend Plan make_plan(const Shape& shape, const GenericStencil& gs,
                        const Options& o);

  /// Builds the typed plan for @p stencil and stores its execute closure
  /// with the GridRef alternative it accepts — the one lowering step every
  /// rank-erased binder (kind, spec, generic) shares. Private; reachable
  /// only through the friended make_plan overloads.
  template <typename S>
  static void bind_typed(Plan& p, const Shape& shape, const S& stencil,
                         const Options& o) {
    auto typed = make_plan(shape, stencil, o);
    p.cfg_ = typed.config();
    using G = detail::grid_for_t<S>;
    p.slot_ = GridRef{static_cast<G*>(nullptr)}.index();
    p.fn_ = [typed = std::move(typed)](GridRef g, Workspace* ws,
                                       const ExecControl* ctl) {
      G& grid = *std::get<G*>(g);
      ws != nullptr ? typed.execute(grid, *ws, ctl) : typed.execute(grid);
    };
  }

  void run(GridRef g, Workspace* ws, const ExecControl* ctl) const {
    if (g.index() != slot_)
      throw ConfigError(
          cfg_.method, cfg_.tiling,
          std::visit(
              [](auto* p) { return std::remove_pointer_t<decltype(p)>::kRank; },
              g),
          "plan was built for a different grid rank or dtype");
    fn_(g, ws, ctl);
  }

  std::function<void(GridRef, Workspace*, const ExecControl*)> fn_;
  std::size_t slot_ = std::variant_npos;  ///< the GridRef alternative fn_ takes
  Shape shape_;
  ResolvedOptions cfg_;
};

/// Builds a rank-erased plan for one of the named Table-1 stencil kinds
/// (with the factory-default weights). Defined in plan.cpp.
Plan make_plan(const Shape& shape, StencilKind kind, const Options& o = {});

/// Builds a rank-erased plan from a runtime StencilSpec — one of the
/// compiled stencil shapes carrying user coefficients (and an optional
/// radius cross-check); see core/problems.hpp. Throws ConfigError on a
/// radius mismatch or a wrong coefficient count. When spec.generic is set,
/// forwards to the GenericStencil overload below. Defined in plan.cpp.
Plan make_plan(const Shape& shape, const StencilSpec& spec,
               const Options& o = {});

/// Builds a rank-erased plan from a runtime GenericStencil
/// (core/generic_stencil.hpp): validates the shape (generic_violation),
/// requires Options::method == Method::kGeneric (the interpreter is the one
/// kernel able to run an arbitrary tap set — demanding the explicit opt-in
/// beats silently ignoring the requested method), lowers the taps at the
/// shape's effective radius in the Options dtype, and binds the
/// register-blocked interpreter. Throws ConfigError on any violation.
/// Defined in plan.cpp.
Plan make_plan(const Shape& shape, const GenericStencil& gs,
               const Options& o = {});

}  // namespace tsv
