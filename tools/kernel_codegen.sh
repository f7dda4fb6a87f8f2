#!/usr/bin/env bash
# Instruction-count report for the pinned hot row kernels.
#
# src/tsv/kernels_tu.cpp compiles every transpose_sweep_row_region,
# unroll_jam_sweep_row and dlt_sweep_row_region instantiation once. This
# script disassembles that object and prints, per pinned function:
#
#   fma    vfmadd*/vfmsub*/vfnmadd* instructions (the arithmetic)
#   lanes  elements those FMAs update (ss/sd 1, ps/pd by register width);
#          the compiler may merge narrow Vec FMAs into wider ones, so
#          compare lanes, not fma, when the ISA width differs from Vec's
#   cmp    vcomis*/vucomis* (runtime zero-tap tests)
#   bcast  vbroadcasts* (weight and halo broadcasts)
#   spill  vector moves with a %rsp- or %rbp-relative memory operand
#          (register arrays materialized on the stack)
#
# The counts are specific to one compiler, flag set and ISA, so this is a
# report to diff before and after a kernel change, not a test.
#
# Usage: tools/kernel_codegen.sh [build-dir | object-file] [name-filter]
#   build-dir    default: build (the object is found under it)
#   name-filter  optional grep -E pattern on the demangled signature,
#                e.g. 'Vec<double, 8>'
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${1:-$root/build}"
filter="${2:-}"

if [[ -f "$target" ]]; then
  obj="$target"
else
  obj="$(find "$target" -name kernels_tu.cpp.o -print -quit)"
  if [[ -z "$obj" ]]; then
    echo "no kernels_tu.cpp.o under $target (build the tsv target first)" >&2
    exit 1
  fi
fi

objdump -d --no-show-raw-insn -C "$obj" | awk -v filter="$filter" '
function flush() {
  if (name != "")
    printf "%5d %5d %5d %5d %5d  %s\n", fma, lanes, cmp, bc, spill, name
  name = ""
}
# Function header: "0000000000000000 <signature>:".
/^[0-9a-f]+ <.*>:$/ {
  flush()
  sig = $0
  sub(/^[0-9a-f]+ </, "", sig)
  sub(/>:$/, "", sig)
  if (sig !~ /(transpose_sweep_row_region|unroll_jam_sweep_row|dlt_sweep_row_region)</) next
  if (filter != "" && sig !~ filter) next
  # Short form: kernel<Vec<T, W>, args...> without the parameter list.
  short = sig
  sub(/^void tsv::/, "", short)
  sub(/\(.*$/, "", short)
  gsub(/tsv::/, "", short)
  name = short
  fma = lanes = cmp = bc = spill = 0
  next
}
name != "" && NF >= 2 {
  op = $2
  if (op ~ /^vfn?m(add|sub)/) {
    fma++
    # The destination register (last operand) gives the vector width.
    dst = $NF
    sub(/.*,/, "", dst)
    bytes = dst ~ /^%zmm/ ? 64 : dst ~ /^%ymm/ ? 32 : 16
    if (op ~ /s[sd]$/) lanes += 1
    else lanes += bytes / (op ~ /ps$/ ? 4 : 8)
  }
  else if (op ~ /^vu?comis/) cmp++
  else if (op ~ /^vbroadcasts/) bc++
  if (op ~ /^vmov/ && $0 ~ /%(rsp|rbp)\)/ && $0 ~ /%[xyz]mm/) spill++
}
END {
  flush()
}
BEGIN {
  printf "%5s %5s %5s %5s %5s  %s\n", "fma", "lanes", "cmp", "bcast", "spill",
         "function"
}
'
