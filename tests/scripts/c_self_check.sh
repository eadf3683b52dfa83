#!/usr/bin/env bash
# End-to-end check of mimdc --c: emit a loop as a standalone C program
# (the JIT's loadable kernel plus a pthreads driver), build it with the
# system C compiler, run it, and pass iff it prints exactly "OK" — its
# built-in bitwise comparison against a sequential recompute.  Exits 77
# (the ctest SKIP_RETURN_CODE) when no cc is installed.
#
# usage: c_self_check.sh <mimdc-binary> <loop-file> <workdir>
set -euo pipefail

mimdc="$1"
loop="$2"
workdir="$3"

if ! command -v cc > /dev/null 2>&1; then
  echo "no C compiler (cc) on PATH"
  exit 77
fi
mkdir -p "$workdir"
"$mimdc" -p 2 --c "$loop" > "$workdir/gen.c"
cc -O2 -std=c11 -pthread -o "$workdir/gen" "$workdir/gen.c"
out="$("$workdir/gen")"
echo "$out"
[ "$out" = "OK" ]
