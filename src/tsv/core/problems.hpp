#pragma once
// Named problem presets (paper Table 1).

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tsv/common/aligned.hpp"

namespace tsv {

enum class StencilKind { k1d3p, k1d5p, k2d5p, k2d9p, k3d7p, k3d27p };

/// Stable names ("1d3p", ...) and the name -> enum inverse (CLI parsing).
const char* stencil_kind_name(StencilKind k);
std::optional<StencilKind> stencil_kind_from_name(std::string_view name);

/// Structural facts about a kind: grid rank, stencil radius, and how many
/// coefficients its factory takes (kernels/stencil.hpp, in parameter order).
int stencil_kind_rank(StencilKind k);
int stencil_kind_radius(StencilKind k);
std::size_t stencil_kind_coeff_count(StencilKind k);

/// A runtime stencil description for the rank-erased plan path: one of the
/// compiled Table-1 shapes, carrying user coefficients instead of the
/// hard-coded factory defaults. The shapes (radius, tap structure) are
/// compile-time — that is what the vector kernels specialize on — but the
/// weights are plain runtime data, so services can plan application
/// stencils (heat conductivity, smoothing weights, upwind CFL factors)
/// without recompiling.
///
///   tsv::StencilSpec spec{.kind = tsv::StencilKind::k2d5p,
///                         .coeffs = {0.4, 0.15, 0.15}};  // wc, wx, wy
///   tsv::Plan plan = tsv::make_plan(shape, spec, opts);
///
/// `coeffs` must be empty (factory defaults) or exactly
/// stencil_kind_coeff_count(kind) values in the factory's parameter order.
/// `radius` is a cross-check: 0 means "the kind's own radius"; any other
/// value must match stencil_kind_radius(kind) or make_plan throws
/// ConfigError.
struct GenericStencil;  // core/generic_stencil.hpp

struct StencilSpec {
  StencilKind kind = StencilKind::k2d5p;
  int radius = 0;               ///< 0 = kind's radius; else must match it
  std::vector<double> coeffs;   ///< empty = Table-1 defaults
  /// When set, the spec describes a runtime-programmable stencil
  /// (core/generic_stencil.hpp) and the fields above are ignored: rank and
  /// radius come from the GenericStencil, and the plan must be built with
  /// Options::method = Method::kGeneric (the interpreter is the only kernel
  /// that can run an arbitrary tap set). shared_ptr because specs are
  /// copied into plan-cache keys and scheduler requests; the shape itself is
  /// immutable once planned.
  std::shared_ptr<const GenericStencil> generic;
};

struct Problem {
  std::string name;
  StencilKind kind{};
  index nx = 0, ny = 1, nz = 1;  ///< interior extents (ny/nz == 1 for lower rank)
  index steps = 0;               ///< total time steps T
  index bx = 0, by = 0, bz = 0;  ///< spatial blocking sizes (Table 1)
  index bt = 0;                  ///< temporal block (time range per tile stage)
};

/// The six stencil problems of Table 1. @p paper_scale selects the published
/// sizes; the default is a scaled configuration with identical structure.
std::vector<Problem> table1_problems(bool paper_scale = false);

}  // namespace tsv
