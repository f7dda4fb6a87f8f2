#pragma once
// Runtime CPU capability and cache-hierarchy discovery.
//
// The benchmark harness uses cache sizes to pick the problem sizes that land
// in L1/L2/L3/memory (paper Figs. 7-8), and make_plan uses the feature
// flags to choose the widest available kernel.

#include <cstddef>
#include <string>
#include <type_traits>

#include "tsv/common/aligned.hpp"

namespace tsv {

/// Instruction-set families evaluated by the paper.
enum class Isa {
  kScalar,  ///< generic C++ (compiler may still auto-vectorize)
  kAvx2,    ///< 256-bit vectors, 4 doubles
  kAvx512,  ///< 512-bit vectors, 8 doubles
  kAuto,    ///< resolve to best_isa() at plan creation (Options default)
};

/// Element types the kernels are compiled for. Every vector register holds
/// twice as many kF32 lanes as kF64 lanes — the cheapest 2x throughput lever
/// the hardware offers for workloads that tolerate single precision.
enum class Dtype {
  kF64,  ///< IEEE double precision (the paper's evaluation dtype)
  kF32,  ///< IEEE single precision (2x lanes per vector)
};

/// Human-readable name ("scalar", "avx2", "avx512", "auto").
const char* isa_name(Isa isa);

/// Human-readable name ("f64", "f32").
const char* dtype_name(Dtype d);

/// Element size in bytes (8 or 4).
index dtype_size(Dtype d);

/// Vector length in doubles for @p isa (1, 4 or 8; kAuto reports the width
/// best_isa() would resolve to).
index isa_width(Isa isa);

/// Vector width of the KERNELS the planner binds for @p isa (2, 4 or 8 for
/// kF64; twice that for kF32): the scalar ISA still runs the 128-bit-wide
/// generic kernels, so layout rules (nx % W, nx % W^2) use this width, not
/// isa_width().
index kernel_width(Isa isa, Dtype dtype);

/// Double-precision kernel width (source-compatible shorthand).
index kernel_width(Isa isa);

/// The Dtype enumerator for a C++ element type (float or double).
template <typename T>
constexpr Dtype dtype_of() {
  static_assert(std::is_same_v<T, float> || std::is_same_v<T, double>,
                "tsv kernels support float and double elements");
  return std::is_same_v<T, float> ? Dtype::kF32 : Dtype::kF64;
}

struct CpuInfo {
  bool has_avx2 = false;
  bool has_avx512f = false;
  index logical_cores = 1;
  // Per-core data-cache capacities in bytes; zero when undiscoverable.
  index l1_bytes = 0;
  index l2_bytes = 0;
  index l3_bytes = 0;  // shared
};

/// Queries CPUID + sysfs once and caches the result.
const CpuInfo& cpu_info();

/// Widest ISA both compiled into this binary and supported by this machine.
Isa best_isa();

/// True when kernels specialized for @p isa can run on this machine.
/// kAuto is always supported (it resolves to best_isa()).
bool isa_supported(Isa isa);

/// True when kernels for @p isa were compiled into this binary (i.e. the
/// translation units were built with the matching -m/-march flags). kAuto
/// is always compiled; best_isa() only ever resolves to compiled ISAs it
/// can run.
bool isa_compiled(Isa isa);

}  // namespace tsv
