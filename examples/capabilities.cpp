// Prints the capability registry as a Markdown table — the README's
// capability table is generated by this binary:
//
//   ./capabilities            # table for this machine/binary
//   ./capabilities --full     # add the per-row notes column
//
// Columns: method x tiling, supported ranks, element types, layout rule on
// nx, blocking constraints, and whether this binary can run the row on this
// machine.

#include <cstdio>
#include <cstring>
#include <string>

#include "tsv/tsv.hpp"

int main(int argc, char** argv) {
  const bool full = argc > 1 && std::strcmp(argv[1], "--full") == 0;

  std::printf("Host: %s", tsv::isa_name(tsv::best_isa()));
  std::printf(" | compiled ISAs:");
  for (tsv::Isa isa : tsv::all_isas())
    if (tsv::isa_compiled(isa)) std::printf(" %s", tsv::isa_name(isa));
  std::printf("\n\n");

  std::printf(
      "| method | tiling | ranks | dtypes | boundaries | layout rule "
      "| blocking |%s\n",
      full ? " notes |" : "");
  std::printf("|---|---|---|---|---|---|---|%s\n", full ? "---|" : "");
  for (const tsv::Capability& c : tsv::capabilities()) {
    std::string ranks;
    for (int r = 1; r <= 3; ++r)
      if (c.supports_rank(r)) {
        if (!ranks.empty()) ranks += ",";
        ranks += std::to_string(r) + "D";
      }
    std::string dtypes;
    for (tsv::Dtype d : tsv::all_dtypes())
      if (c.supports_dtype(d)) {
        if (!dtypes.empty()) dtypes += ",";
        dtypes += tsv::dtype_name(d);
      }
    std::string boundaries = "any";
    if (c.boundary_mask != tsv::kAllBoundaries) {
      boundaries.clear();
      for (tsv::Boundary b : tsv::all_boundaries())
        if (c.supports_boundary(b)) {
          if (!boundaries.empty()) boundaries += ",";
          boundaries += tsv::boundary_name(b);
        }
    }
    const char* rule = c.x_rule == tsv::XRule::kWidth2   ? "nx % W^2 == 0"
                       : c.x_rule == tsv::XRule::kWidth ? "nx % W == 0"
                                                        : "none";
    const char* blocking =
        c.tiling == tsv::Tiling::kNone ? "untiled" : "bx >= 2rbt";
    std::printf("| `%s` | `%s` | %s | %s | %s | %s | %s |",
                tsv::method_name(c.method), tsv::tiling_name(c.tiling),
                ranks.c_str(), dtypes.c_str(), boundaries.c_str(), rule,
                blocking);
    if (full) std::printf(" %s |", c.note);
    std::printf("\n");
  }

  // W in the layout rules is the KERNEL vector width the planner enforces
  // (kernel_width per dtype; the scalar ISA runs the 128-bit generic
  // kernels).
  std::printf("\nRunnable on this machine:");
  for (tsv::Isa isa : tsv::runnable_isas())
    std::printf(" %s(W=%td/%td)", tsv::isa_name(isa),
                tsv::kernel_width(isa, tsv::Dtype::kF64),
                tsv::kernel_width(isa, tsv::Dtype::kF32));
  std::printf("  [W shown as f64/f32 lanes]\n");
  return 0;
}
