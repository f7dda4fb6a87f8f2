#pragma once
// Umbrella header for the tsv library — Transpose-layout Stencil
// Vectorization, a reproduction of "An Efficient Vectorization Scheme for
// Stencil Computation" (Li, Yuan, Zhang, Yue, Cao, Lu — IPDPS'22).
//
// Typical usage:
//
//   #include "tsv/tsv.hpp"
//
//   tsv::Grid2D<double> grid(nx, ny, /*halo=*/1);
//   grid.fill([](tsv::index x, tsv::index y) { return initial(x, y); });
//
//   // One-shot:
//   tsv::run(grid, tsv::make_2d5p(), {.method = tsv::Method::kTransposeUJ,
//                                     .tiling = tsv::Tiling::kTessellate,
//                                     .steps = 1000,
//                                     .bx = 256, .by = 128, .bt = 32});
//
//   // Configure once, execute many:
//   auto plan = tsv::make_plan(tsv::shape_of(grid), tsv::make_2d5p(),
//                              {.tiling = tsv::Tiling::kTessellate,
//                               .steps = 1000, .bx = 256, .by = 128,
//                               .bt = 32});
//   plan.execute(grid);
//
// See README.md for the architecture overview and the capability table.

#include "tsv/common/aligned.hpp"    // IWYU pragma: export
#include "tsv/common/cpu.hpp"        // IWYU pragma: export
#include "tsv/common/grid.hpp"       // IWYU pragma: export
#include "tsv/common/timer.hpp"      // IWYU pragma: export
#include "tsv/core/capability.hpp"   // IWYU pragma: export
#include "tsv/core/fault.hpp"        // IWYU pragma: export
#include "tsv/core/generic_stencil.hpp"  // IWYU pragma: export
#include "tsv/core/halo.hpp"         // IWYU pragma: export
#include "tsv/core/health.hpp"       // IWYU pragma: export
#include "tsv/core/metrics.hpp"      // IWYU pragma: export
#include "tsv/core/options.hpp"      // IWYU pragma: export
#include "tsv/core/plan.hpp"         // IWYU pragma: export
#include "tsv/core/plan_cache.hpp"   // IWYU pragma: export
#include "tsv/core/problems.hpp"     // IWYU pragma: export
#include "tsv/core/registry.hpp"     // IWYU pragma: export
#include "tsv/core/run.hpp"          // IWYU pragma: export
#include "tsv/core/scheduler.hpp"    // IWYU pragma: export
#include "tsv/core/tunedb.hpp"       // IWYU pragma: export
#include "tsv/core/tuner.hpp"        // IWYU pragma: export
#include "tsv/core/workspace.hpp"    // IWYU pragma: export
#include "tsv/kernels/stencil.hpp"   // IWYU pragma: export
