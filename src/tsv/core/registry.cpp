#include "tsv/core/registry.hpp"

namespace tsv {

namespace {

constexpr unsigned kRank1 = 1u << 0;
constexpr unsigned kRank2 = 1u << 1;
constexpr unsigned kRank3 = 1u << 2;
constexpr unsigned kAllRanks = kRank1 | kRank2 | kRank3;

// The registry table. One row per implemented (method, tiling) pair; the
// kernels behind each row are wired up once, rank-generically, in
// core/plan.hpp's dispatch table.
const std::vector<Capability>& table() {
  static const std::vector<Capability> rows = {
      // -- untiled sweeps (paper §4.2; single-threaded by design) ----------
      {Method::kScalar, Tiling::kNone, kAllRanks, kAllDtypes, kAllBoundaries, XRule::kNone,
       false,
       "plain scalar reference"},
      {Method::kAutoVec, Tiling::kNone, kAllRanks, kAllDtypes, kAllBoundaries, XRule::kNone,
       false,
       "compiler auto-vectorization"},
      {Method::kMultiLoad, Tiling::kNone, kAllRanks, kAllDtypes, kAllBoundaries, XRule::kNone,
       false,
       "unaligned load per shifted vector (paper §2.1)"},
      {Method::kReorg, Tiling::kNone, kAllRanks, kAllDtypes, kAllBoundaries, XRule::kNone,
       false,
       "aligned loads + register shuffles (paper §2.1)"},
      {Method::kDlt, Tiling::kNone, kAllRanks, kAllDtypes, kAllBoundaries, XRule::kWidth,
       true,
       "dimension-lifting transpose (Henretty; paper §2.2)"},
      {Method::kTranspose, Tiling::kNone, kAllRanks, kAllDtypes, kAllBoundaries,
       XRule::kWidth2, true,
       "register-block transpose layout (paper §3.2, \"Our\")"},
      {Method::kTransposeUJ, Tiling::kNone, kAllRanks, kAllDtypes, kAllBoundaries,
       XRule::kWidth2, false,
       "transpose layout + 2-step unroll&jam (paper §3.3, \"Our (2 steps)\")"},
      // -- tessellate tiling (paper §3.4; Yuan SC'17), multicore -----------
      {Method::kAutoVec, Tiling::kTessellate, kAllRanks, kAllDtypes, kAllBoundaries,
       XRule::kNone, false,
       "tessellation baseline: tiled compiler-vectorized sweeps"},
      {Method::kMultiLoad, Tiling::kTessellate, kRank1, kAllDtypes, kAllBoundaries,
       XRule::kNone, false,
       "ablation: tessellate tiling over multiload sweeps (1D)"},
      {Method::kReorg, Tiling::kTessellate, kRank1, kAllDtypes, kAllBoundaries, XRule::kNone,
       false,
       "ablation: tessellate tiling over reorg sweeps (1D)"},
      {Method::kTranspose, Tiling::kTessellate, kAllRanks, kAllDtypes, kAllBoundaries,
       XRule::kWidth2, true,
       "the paper's scheme: tessellate tiling + transpose layout"},
      {Method::kTransposeUJ, Tiling::kTessellate, kAllRanks, kAllDtypes, kAllBoundaries,
       XRule::kWidth2, false,
       "runs transpose x tessellate (no tiled unroll&jam yet; METHODS.md)"},
      // -- generic interpreter (runtime tap lists; core/generic_stencil.hpp)
      {Method::kGeneric, Tiling::kNone, kAllRanks, kAllDtypes, kAllBoundaries,
       XRule::kNone, false,
       "register-blocked interpreter over runtime tap lists"},
      {Method::kGeneric, Tiling::kTessellate, kAllRanks, kAllDtypes,
       kAllBoundaries, XRule::kNone, false,
       "tessellate tiling over the generic interpreter"},
      // -- split tiling over the DLT layout (SDSL baseline) ----------------
      {Method::kDlt, Tiling::kSplit, kAllRanks, kAllDtypes, kAllBoundaries, XRule::kWidth,
       true,
       "SDSL baseline: DLT layout + split/hybrid tiling"},
  };
  return rows;
}

}  // namespace

const char* method_name(Method m) {
  switch (m) {
    case Method::kScalar: return "scalar";
    case Method::kAutoVec: return "autovec";
    case Method::kMultiLoad: return "multiload";
    case Method::kReorg: return "reorg";
    case Method::kDlt: return "dlt";
    case Method::kTranspose: return "transpose";
    case Method::kTransposeUJ: return "transpose-uj2";
    case Method::kGeneric: return "generic";
  }
  return "?";
}

const char* tiling_name(Tiling t) {
  switch (t) {
    case Tiling::kNone: return "none";
    case Tiling::kTessellate: return "tessellate";
    case Tiling::kSplit: return "split";
  }
  return "?";
}

const std::vector<Capability>& capabilities() { return table(); }

const Capability* find_capability(Method m, Tiling t) {
  for (const Capability& c : table())
    if (c.method == m && c.tiling == t) return &c;
  return nullptr;
}

bool supports(Method m, Tiling t, int rank, Isa isa) {
  return supports(m, t, rank, isa, Dtype::kF64) ||
         supports(m, t, rank, isa, Dtype::kF32);
}

bool supports(Method m, Tiling t, int rank, Isa isa, Dtype dtype) {
  const Capability* cap = find_capability(m, t);
  if (cap == nullptr || !cap->supports_rank(rank) ||
      !cap->supports_dtype(dtype))
    return false;
  if (isa == Isa::kAuto) isa = best_isa();
  return isa_compiled(isa) && isa_supported(isa);
}

bool supports(Method m, Tiling t, int rank, Isa isa, Dtype dtype,
              Boundary boundary) {
  if (!supports(m, t, rank, isa, dtype)) return false;
  return find_capability(m, t)->supports_boundary(boundary);
}

std::vector<Method> supported_methods(Tiling t, int rank) {
  std::vector<Method> v;
  for (const Capability& c : table())
    if (c.tiling == t && c.supports_rank(rank)) v.push_back(c.method);
  return v;
}

std::vector<Isa> runnable_isas() {
  std::vector<Isa> v;
  for (Isa isa : all_isas())
    if (isa_compiled(isa) && isa_supported(isa)) v.push_back(isa);
  return v;
}

const std::vector<Method>& all_methods() {
  static const std::vector<Method> v = {
      Method::kScalar,    Method::kAutoVec,   Method::kMultiLoad,
      Method::kReorg,     Method::kDlt,       Method::kTranspose,
      Method::kTransposeUJ, Method::kGeneric};
  return v;
}

const std::vector<Tiling>& all_tilings() {
  static const std::vector<Tiling> v = {Tiling::kNone, Tiling::kTessellate,
                                        Tiling::kSplit};
  return v;
}

const std::vector<Isa>& all_isas() {
  static const std::vector<Isa> v = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};
  return v;
}

const std::vector<Dtype>& all_dtypes() {
  static const std::vector<Dtype> v = {Dtype::kF64, Dtype::kF32};
  return v;
}

std::optional<Method> method_from_name(std::string_view name) {
  for (Method m : all_methods())
    if (name == method_name(m)) return m;
  return std::nullopt;
}

std::optional<Tiling> tiling_from_name(std::string_view name) {
  for (Tiling t : all_tilings())
    if (name == tiling_name(t)) return t;
  return std::nullopt;
}

std::optional<Isa> isa_from_name(std::string_view name) {
  if (name == isa_name(Isa::kAuto)) return Isa::kAuto;
  for (Isa isa : all_isas())
    if (name == isa_name(isa)) return isa;
  return std::nullopt;
}

std::optional<Dtype> dtype_from_name(std::string_view name) {
  if (name == "double") return Dtype::kF64;
  if (name == "float") return Dtype::kF32;
  for (Dtype d : all_dtypes())
    if (name == dtype_name(d)) return d;
  return std::nullopt;
}

}  // namespace tsv
