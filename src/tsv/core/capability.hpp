#pragma once
// Capability descriptors and the structured configuration error.
//
// A Capability row describes one (vectorization method x tiling framework)
// combination the library implements: which grid ranks it covers, which
// divisibility rule its data layout imposes on the unit-stride extent, and
// any blocking constraints. The rows live in one table (core/registry.cpp);
// plan creation (core/plan.hpp) validates against that table, so adding a
// method or tiling means adding a registry row plus one dispatch-table
// entry — never another per-rank switch.

#include <stdexcept>
#include <string>

#include "tsv/common/cpu.hpp"
#include "tsv/core/fault.hpp"
#include "tsv/core/options.hpp"

namespace tsv {

/// Divisibility rule a method's data layout imposes on nx (the unit-stride
/// interior extent), in terms of the kernel vector width W.
enum class XRule {
  kNone,     ///< any nx
  kWidth,    ///< nx % W == 0 (DLT dimension-lifting)
  kWidth2,   ///< nx % W^2 == 0 (register-block transpose layout)
};

/// Dtype-mask bits for Capability rows.
inline constexpr unsigned kDtypeF64 = 1u << 0;
inline constexpr unsigned kDtypeF32 = 1u << 1;
inline constexpr unsigned kAllDtypes = kDtypeF64 | kDtypeF32;

/// Boundary-mask bits for Capability rows (one per Boundary enumerator).
inline constexpr unsigned boundary_bit(Boundary b) {
  return 1u << static_cast<unsigned>(b);
}
inline constexpr unsigned kAllBoundaries =
    boundary_bit(Boundary::kDirichlet) | boundary_bit(Boundary::kZero) |
    boundary_bit(Boundary::kPeriodic) | boundary_bit(Boundary::kNeumann);

/// One supported (method, tiling) combination.
struct Capability {
  Method method;
  Tiling tiling;
  unsigned rank_mask;   ///< bit (r-1) set when grid rank r is supported
  unsigned dtype_mask;  ///< kDtypeF64/kDtypeF32 bits for the element types
  /// boundary_bit() bits for the boundary conditions this row handles.
  /// Every current row claims kAllBoundaries — the ghost fill happens at
  /// the plan layer, outside the kernels — but the mask keeps the axis
  /// explicit so a future row can opt out and supports() stays honest.
  unsigned boundary_mask;
  XRule x_rule;         ///< layout divisibility constraint on nx
  /// True when this combination's write-back path has a non-temporal
  /// (streaming-store) variant; ResolvedOptions::streaming can only resolve
  /// true for rows that set this, so the flag reports what executes.
  bool streams;
  const char* note;     ///< one-line description for docs/CLI listings

  bool supports_rank(int rank) const {
    return rank >= 1 && rank <= 3 && (rank_mask & (1u << (rank - 1))) != 0;
  }

  bool supports_dtype(Dtype d) const {
    return (dtype_mask & (d == Dtype::kF32 ? kDtypeF32 : kDtypeF64)) != 0;
  }

  bool supports_boundary(Boundary b) const {
    return (boundary_mask & boundary_bit(b)) != 0;
  }
};

/// Structured configuration error thrown at plan creation (and for shape
/// mismatches at execute). Derives from std::invalid_argument so call sites
/// written against the seed's stringly-typed throws keep working, and from
/// TsvError (core/fault.hpp) so it slots into the error taxonomy — a config
/// error is never transient, so the scheduler will not retry it.
class ConfigError : public std::invalid_argument, public TsvError {
 public:
  ConfigError(Method method, Tiling tiling, int rank, std::string reason)
      : std::invalid_argument(format(method, tiling, rank, reason)),
        method_(method),
        tiling_(tiling),
        rank_(rank),
        reason_(std::move(reason)) {}

  Method method() const { return method_; }
  Tiling tiling() const { return tiling_; }
  int rank() const { return rank_; }
  const std::string& reason() const { return reason_; }

 private:
  static std::string format(Method m, Tiling t, int rank,
                            const std::string& reason) {
    std::string s = "tsv: invalid configuration (method=";
    s += method_name(m);
    s += ", tiling=";
    s += tiling_name(t);
    s += ", rank=";
    s += std::to_string(rank);
    s += "): ";
    s += reason;
    return s;
  }

  Method method_;
  Tiling tiling_;
  int rank_;
  std::string reason_;
};

}  // namespace tsv
