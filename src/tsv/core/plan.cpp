#include "tsv/core/plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "tsv/core/workspace.hpp"

namespace tsv {

namespace {

// Default temporal block for tiled runs when Options::bt is 0, and the floor
// of the deeper L2-fit default of budget-tiled grids (resolve_options).
// Small enough that the matching default spatial blocks stay legal on
// modest grids.
// (The matching x-block default, kDefaultBxTarget, lives in options.hpp —
// the autotuner's candidate seeding shares it.)
constexpr index kDefaultBt = 4;


std::string isa_err(const char* what, Isa isa) {
  std::string s = "ISA ";
  s += isa_name(isa);
  s += what;
  return s;
}

}  // namespace

namespace detail {

// Default OpenMP team for tiled runs when Options::threads is 0: the
// calling thread's nthreads ICV at FIRST use, captured once. First-use
// capture honors a deliberate pre-plan omp_set_num_threads() in the
// application's main() while staying immune to the thread counts
// Plan::execute itself sets later (the first make_plan necessarily
// precedes the first execute). The one thread that must never be first is
// a Scheduler gang worker — its ICV is pinned to the gang size — so the
// Scheduler constructor calls this before spawning workers, pinning the
// capture to the constructing thread's environment.
int runtime_default_threads() {
  static const int threads = omp_get_max_threads();
  return threads;
}

}  // namespace detail

ResolvedOptions resolve_options(const Shape& shape, int radius,
                                const Options& o) {
  const int rank = shape.rank;
  auto fail = [&](const std::string& reason) -> void {
    throw ConfigError(o.method, o.tiling, rank, reason);
  };

  if (rank < 1 || rank > 3) fail("shape rank must be 1, 2 or 3");
  if (shape.nx <= 0 || shape.ny <= 0 || shape.nz <= 0)
    fail("shape extents must be positive");
  if (o.steps < 0) fail("steps must be >= 0");
  if (shape.halo < radius)
    fail("grid halo " + std::to_string(shape.halo) +
         " is smaller than the stencil radius " + std::to_string(radius));

  ResolvedOptions r;
  r.method = o.method;
  r.tiling = o.tiling;
  r.steps = o.steps;
  r.tune = o.tune;
  r.health = o.health_check;
  // Threads resolve to a concrete team size: an untiled sweep has no
  // parallel region, so it resolves 1 whatever was asked; tiled runs take
  // the explicit count or default to the runtime team captured at first
  // use (see detail::runtime_default_threads above). max_threads caps the
  // resolved team (never errors): the Scheduler's gang hint, so a request
  // scheduled onto a gang cannot fork a machine-wide team.
  if (o.max_threads < 0) fail("max_threads must be >= 0");
  r.threads = o.tiling == Tiling::kNone ? 1
              : o.threads > 0           ? o.threads
                                        : detail::runtime_default_threads();
  if (o.max_threads > 0) r.threads = std::min(r.threads, o.max_threads);

  // ISA: kAuto resolves to the widest compiled+supported ISA. The dtype is
  // already concrete (no auto); the kernel width is lanes of that dtype.
  r.isa = (o.isa == Isa::kAuto) ? best_isa() : o.isa;
  if (!isa_compiled(r.isa)) fail(isa_err(" not compiled into this binary", r.isa));
  if (!isa_supported(r.isa)) fail(isa_err(" not supported on this machine", r.isa));
  r.dtype = o.dtype;
  r.width = kernel_width(r.isa, r.dtype);

  // Registry validation: is (method, tiling) implemented at this rank and
  // dtype?
  const Capability* cap = find_capability(o.method, o.tiling);
  if (cap == nullptr) {
    if (o.tiling == Tiling::kSplit)
      fail("split tiling is defined over the DLT layout (method dlt)");
    if (o.tiling == Tiling::kTessellate)
      fail("tessellate tiling does not support this method");
    fail("method/tiling combination is not implemented");
  }
  if (!cap->supports_rank(rank))
    fail(std::string("not implemented for rank ") + std::to_string(rank));
  if (!cap->supports_dtype(o.dtype))
    fail(std::string("not implemented for dtype ") + dtype_name(o.dtype));

  // Boundary conditions: normalize axes beyond the rank to the frozen
  // default, check the registry's boundary axis, and reject shapes the
  // wrap/mirror fills cannot source from (core/halo.hpp).
  r.boundary = o.boundary;
  if (rank < 2) r.boundary.y = Boundary::kDirichlet;
  if (rank < 3) r.boundary.z = Boundary::kDirichlet;
  for (Boundary b : {r.boundary.x, r.boundary.y, r.boundary.z})
    if (!cap->supports_boundary(b))
      fail(std::string("not implemented for boundary ") + boundary_name(b));
  if (const char* why = boundary_violation(rank, shape.nx, shape.ny, shape.nz,
                                           radius, r.boundary))
    fail(why);
  const bool per_step = needs_per_step_fill(r.boundary);

  // Layout divisibility rules, checked against the planned shape.
  switch (cap->x_rule) {
    case XRule::kNone: break;
    case XRule::kWidth:
      if (shape.nx % r.width != 0)
        fail("DLT layout requires nx % W == 0 (nx=" + std::to_string(shape.nx) +
             ", W=" + std::to_string(r.width) + ")");
      break;
    case XRule::kWidth2:
      if (shape.nx % (r.width * r.width) != 0)
        fail("transpose layout requires nx % W^2 == 0 (nx=" +
             std::to_string(shape.nx) +
             ", W^2=" + std::to_string(r.width * r.width) + ")");
      break;
  }

  // Streaming-store policy. kOn/kOff override only the TOPOLOGY heuristic
  // (working set vs the LLC threshold; Options::stream_threshold scales the
  // multiple). The temporal-reuse gate is structural and always applies:
  // tiled runs with bt > 1 re-read each time block's stores while they are
  // hot, so streaming there would be a pessimization the drivers refuse —
  // and the resolved flag must report what actually executes. Untiled full
  // sweeps and bt == 1 tiled runs (a time block degenerates to a full
  // sweep) are the no-reuse schedules. Combinations without a streaming
  // write-back variant (Capability::streams unset: scalar, autovec,
  // multiload, reorg, the uj2 rows) never resolve streaming=true — the
  // flag must report what actually executes.
  const bool ws_big =
      working_set_bytes(rank, shape.nx, shape.ny, shape.nz,
                        dtype_size(r.dtype)) >
      streaming_threshold_bytes(o.stream_threshold);
  auto resolve_streaming = [&](bool no_temporal_reuse) {
    const bool want = o.stream == StreamMode::kOn    ? true
                      : o.stream == StreamMode::kOff ? false
                                                     : ws_big;
    r.streaming = want && no_temporal_reuse && cap->streams;
  };

  if (o.tiling == Tiling::kNone) {
    resolve_streaming(true);
    return r;  // blocks stay zero
  }

  // ---- resolved-blocking rule (tiled runs) --------------------------------
  // bt: the user's temporal block, else kDefaultBt — which the tessellate
  // branch below deepens for grids tiled from the L2 budget. A
  // periodic/Neumann boundary needs every level's ghosts. Split tiling
  // refreshes them between steps, so its temporal block cannot span more
  // than one step: bt resolves to 1. A tessellated plan writes them through
  // (core/halo.hpp) and keeps a deep bt.
  const bool split_per_step = per_step && o.tiling == Tiling::kSplit;
  r.bt = split_per_step ? 1 : (o.bt > 0 ? o.bt : kDefaultBt);

  if (o.tiling == Tiling::kTessellate) {
    auto floor_of = [&](index bt) { return tess_min_block(radius, bt); };
    const index extent[3] = {shape.nx, shape.ny, shape.nz};
    const char* const axis_name[3] = {"x", "y", "z"};

    // Per-axis blocks for temporal block bt: x defaults to a cache-friendly
    // target. Unset y/z blocks keep a grid whose two buffers fit half the
    // per-thread L2 one tile. A larger 2D grid gets the largest y block
    // whose tile fits that budget. A larger 3D grid sweeps z as a
    // wavefront inside each tile (tiling/tess.hpp), so z stays one tile,
    // or two ring tiles when z is periodic. y takes ceil(ny / k) for the
    // smallest multiple k of `threads` whose wavefront window (R*(bt + 1) + 1
    // planes of by + 2R rows of both buffers) fits the whole per-thread L2:
    // the triangle and seam stages (k and k - 1 tiles) then both take
    // k / threads rounds, while the largest by that fits can leave a round
    // part-empty and give each thread more rows (docs/TUNING.md has the
    // A/B). A multi-tile axis must keep shrinking triangles from inverting:
    // block >= floor_of(bt).
    const int unset = (rank >= 2 && o.by <= 0) + (rank >= 3 && o.bz <= 0);
    const index budget =
        cache_fit_elems(cpu_info().l2_bytes, dtype_size(r.dtype), 0.5);
    const index points = shape.nx * shape.ny * (rank >= 3 ? shape.nz : 1);
    const bool fit = unset > 0 && points > budget;
    const index l2_elems = cpu_info().l2_bytes / (2 * dtype_size(r.dtype));
    // Elements of one buffer that a tile keeps in cache at bt: the tile,
    // or in 3D the wavefront window.
    auto planes = [&](index bt) { return index{radius} * (bt + 1) + 1; };
    auto window = [&](const std::array<index, 3>& b, index bt) {
      if (rank < 3) return b[0] * std::max<index>(1, b[1]);
      return b[0] * (b[1] + 2 * index{radius}) * planes(bt);
    };
    auto blocks_for = [&](index bt) {
      const index min_block = floor_of(bt);
      std::array<index, 3> b{
          o.bx > 0 ? o.bx
                   : std::min(shape.nx, std::max(min_block, kDefaultBxTarget)),
          rank >= 2 ? o.by : 0, rank >= 3 ? o.bz : 0};
      if (rank >= 3 && b[2] <= 0)
        b[2] = fit && r.boundary.z == Boundary::kPeriodic
                   ? std::min(shape.nz,
                              std::max(min_block, (shape.nz + 1) / 2))
                   : shape.nz;
      if (rank >= 2 && b[1] <= 0) {
        index by = shape.ny;
        if (fit && rank == 2) {
          by = std::max(min_block, budget / b[0]);
        } else if (fit) {
          // The fewest tiles, a multiple of threads, whose window fits.
          const index rows = l2_elems / (b[0] * planes(bt));
          const index cap = std::max(min_block, rows - 2 * index{radius});
          const index need = (shape.ny + cap - 1) / cap;
          const index tiles = (need + r.threads - 1) / r.threads * r.threads;
          by = std::max(min_block, (shape.ny + tiles - 1) / tiles);
        }
        b[1] = std::min(by, shape.ny);
      }
      return b;
    };
    // The first axis whose block is illegal at bt, or -1.
    auto bad_axis = [&](const std::array<index, 3>& b, index bt) {
      for (int a = 0; a < rank; ++a)
        if (b[a] <= 0 || (tile_count(extent[a], b[a]) > 1 &&
                          b[a] < floor_of(bt)))
          return a;
      return -1;
    };

    // Default bt of a budget-tiled grid: the deepest temporal block, at
    // most steps and at least kDefaultBt, whose legal blocks keep the tile
    // (2D) or the wavefront window (3D) of both buffers in the whole
    // per-thread L2. A deeper block streams the grid through fewer time
    // blocks; its floor grows the tile, and in 3D the window's planes,
    // until they no longer fit.
    if (o.bt <= 0 && fit) {
      for (index bt = r.steps; bt > kDefaultBt; --bt) {
        const std::array<index, 3> b = blocks_for(bt);
        if (bad_axis(b, bt) < 0 && window(b, bt) <= l2_elems) {
          r.bt = bt;
          break;
        }
      }
    }

    // Under a per-step boundary the requested (or default) bt is a ceiling:
    // the plan takes the deepest legal block up to it, down to 1, so any
    // blocks legal for single steps plan.
    if (per_step)
      while (r.bt > 1 && bad_axis(blocks_for(r.bt), r.bt) >= 0) --r.bt;
    resolve_streaming(r.bt == 1);

    const std::array<index, 3> b = blocks_for(r.bt);
    r.bx = b[0];
    r.by = b[1];
    r.bz = b[2];
    if (const int a = bad_axis(b, r.bt); a >= 0) {
      if (b[a] <= 0)
        fail(std::string("tessellate tiling needs a positive block in ") +
             axis_name[a]);
      fail(std::string("block ") + std::to_string(b[a]) + " in " +
           axis_name[a] + " must be >= 2*slope*tau = " +
           std::to_string(floor_of(r.bt)) +
           " (shrinking triangles must not invert)");
    }
    return r;
  }

  resolve_streaming(r.bt == 1);

  // Split tiling blocks exactly one axis — the outermost one: DLT columns in
  // 1D, rows in 2D, planes in 3D. One rule across ranks: the block comes
  // from that axis's own option field, falls back to bx, then to the full
  // extent; the 1D block is given in ELEMENTS and resolved to columns
  // (elements / W). This replaces the seed's three ad-hoc interpretations.
  switch (rank) {
    case 1: {
      const index elems = o.bx > 0 ? o.bx : shape.nx;
      r.split_block = std::max<index>(1, elems / r.width);
      break;
    }
    case 2:
      r.split_block = o.by > 0 ? o.by : (o.bx > 0 ? o.bx : shape.ny);
      break;
    default:
      r.split_block = o.bz > 0 ? o.bz : (o.bx > 0 ? o.bx : shape.nz);
      break;
  }
  r.split_block = std::max<index>(1, r.split_block);
  return r;
}

Plan make_plan(const Shape& shape, const StencilSpec& spec, const Options& o) {
  if (spec.generic != nullptr) return make_plan(shape, *spec.generic, o);
  // Spec validation: the kind's shape (rank, radius, tap structure) is
  // compile-time; only the weights are runtime data. A radius of 0 means
  // "the kind's own"; anything else is a cross-check.
  if (spec.radius != 0 && spec.radius != stencil_kind_radius(spec.kind))
    throw ConfigError(o.method, o.tiling, shape.rank,
                      std::string("stencil ") + stencil_kind_name(spec.kind) +
                          " has radius " +
                          std::to_string(stencil_kind_radius(spec.kind)) +
                          ", spec says " + std::to_string(spec.radius));
  const std::size_t want = stencil_kind_coeff_count(spec.kind);
  if (!spec.coeffs.empty() && spec.coeffs.size() != want)
    throw ConfigError(o.method, o.tiling, shape.rank,
                      std::string("stencil ") + stencil_kind_name(spec.kind) +
                          " takes " + std::to_string(want) +
                          " coefficients (got " +
                          std::to_string(spec.coeffs.size()) +
                          "; empty = defaults)");

  Plan p;
  p.shape_ = shape;
  auto bind = [&](auto stencil) { Plan::bind_typed(p, shape, stencil, o); };
  // The Options dtype selects which instantiation of the Table-1 stencil the
  // plan binds; the grid handed to execute() must match it. User
  // coefficients ride through the factories in their parameter order.
  const std::vector<double>& c = spec.coeffs;
  auto bind_kind = [&]<typename T>() {
    switch (spec.kind) {
      case StencilKind::k1d3p:
        c.empty() ? bind(make_1d3p<T>()) : bind(make_1d3p<T>(c[0]));
        break;
      case StencilKind::k1d5p:
        c.empty() ? bind(make_1d5p<T>())
                  : bind(make_1d5p<T>(c[0], c[1], c[2]));
        break;
      case StencilKind::k2d5p:
        c.empty() ? bind(make_2d5p<T>())
                  : bind(make_2d5p<T>(c[0], c[1], c[2]));
        break;
      case StencilKind::k2d9p:
        c.empty() ? bind(make_2d9p<T>())
                  : bind(make_2d9p<T>(c[0], c[1], c[2]));
        break;
      case StencilKind::k3d7p:
        c.empty() ? bind(make_3d7p<T>())
                  : bind(make_3d7p<T>(c[0], c[1], c[2], c[3]));
        break;
      case StencilKind::k3d27p:
        c.empty() ? bind(make_3d27p<T>()) : bind(make_3d27p<T>(c[0]));
        break;
    }
  };
  if (o.dtype == Dtype::kF32)
    bind_kind.template operator()<float>();
  else
    bind_kind.template operator()<double>();
  return p;
}

Plan make_plan(const Shape& shape, StencilKind kind, const Options& o) {
  StencilSpec spec;
  spec.kind = kind;
  return make_plan(shape, spec, o);
}

Plan make_plan(const Shape& shape, const GenericStencil& gs,
               const Options& o) {
  auto fail = [&](const std::string& reason) -> void {
    throw ConfigError(o.method, o.tiling, shape.rank, reason);
  };
  if (const char* why = generic_violation(gs)) fail(why);
  if (o.method != Method::kGeneric)
    fail(std::string("a GenericStencil executes through method generic "
                     "(options request method ") +
         method_name(o.method) + ")");
  if (shape.rank != gs.rank)
    fail("shape rank " + std::to_string(shape.rank) +
         " does not match the generic stencil's rank " +
         std::to_string(gs.rank));

  Plan p;
  p.shape_ = shape;
  auto bind = [&](auto stencil) { Plan::bind_typed(p, shape, stencil, o); };
  // The lowering is a rank x radius x dtype dispatch: the interpreter is
  // templated on the radius (its tap unroll) and the element type, so each
  // cell below instantiates one lowered descriptor type. The effective
  // radius is validated <= kMaxGenericRadius above.
  const int radius = gs.effective_radius();
  auto bind_generic = [&]<typename T>() {
    switch (shape.rank) {
      case 1:
        switch (radius) {
          case 1: bind(detail::lower_generic_1d<1, T>(gs)); break;
          case 2: bind(detail::lower_generic_1d<2, T>(gs)); break;
          default: bind(detail::lower_generic_1d<3, T>(gs)); break;
        }
        break;
      case 2:
        switch (radius) {
          case 1: bind(detail::lower_generic_2d<1, T>(gs)); break;
          case 2: bind(detail::lower_generic_2d<2, T>(gs)); break;
          default: bind(detail::lower_generic_2d<3, T>(gs)); break;
        }
        break;
      default:
        switch (radius) {
          case 1: bind(detail::lower_generic_3d<1, T>(gs)); break;
          case 2: bind(detail::lower_generic_3d<2, T>(gs)); break;
          default: bind(detail::lower_generic_3d<3, T>(gs)); break;
        }
        break;
    }
  };
  if (o.dtype == Dtype::kF32)
    bind_generic.template operator()<float>();
  else
    bind_generic.template operator()<double>();
  return p;
}

}  // namespace tsv
