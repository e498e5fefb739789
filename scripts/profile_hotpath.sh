#!/usr/bin/env bash
# Profile the stepping-loop hot path (Machine/Scheduler/Engine) under the
# E13 interpreter microbenchmark (bench/bench_interpreter.cpp).
#
# Profiler selection is gated on availability:
#   * `perf` present and usable -> perf record/report (cycles, call graph);
#   * otherwise, gcc/g++ present -> a one-off -pg (gprof) build in
#     build-profile/ and a flat gprof profile;
#   * neither -> exit 3 with a clear message (nothing is guessed at).
#
# Usage:
#   scripts/profile_hotpath.sh [--bench bench_interpreter|bench_simulator]
#                              [--out DIR]
#
# Output lands in DIR (default: profile-out/ in the repo root; a relative
# DIR is taken from the current directory): perf.data + report.txt, or
# gmon.out + gprof.txt. The report's top entries are echoed to stdout.

set -euo pipefail

BENCH=bench_interpreter
OUT=
while [ $# -gt 0 ]; do
  case "$1" in
    --bench) BENCH="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
    *) echo "profile_hotpath: unknown argument: $1" >&2; exit 2 ;;
  esac
done

case "$BENCH" in
  bench_interpreter|bench_simulator) ;;
  *) echo "profile_hotpath: unsupported bench: $BENCH" >&2; exit 2 ;;
esac

# Every path below is absolute: a relative --out is taken from the
# caller's working directory, and the default lives in the repo root.
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${OUT:-$ROOT/profile-out}"
mkdir -p "$OUT"
OUT="$(cd "$OUT" && pwd)"
BUILD="$ROOT/build-profile"
BIN="$BUILD/bench/$BENCH"
cd "$ROOT"

# perf needs both the binary and the kernel's cooperation; a container
# with perf installed but perf_event_paravirt disabled still fails, so
# probe with a no-op measurement instead of only `command -v`.
have_perf() {
  command -v perf >/dev/null 2>&1 &&
    perf stat -e task-clock true >/dev/null 2>&1
}

if have_perf; then
  echo "== profiler: perf (cycles, call graph) =="
  cmake -S "$ROOT" -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    >/dev/null
  cmake --build "$BUILD" -j --target "$BENCH" >/dev/null
  perf record -g -o "$OUT/perf.data" -- "$BIN" --bench-out "$OUT" >/dev/null
  perf report -i "$OUT/perf.data" --stdio >"$OUT/report.txt"
  echo "report: $OUT/report.txt (top of the profile below)"
  grep -m 25 -v '^#' "$OUT/report.txt" | sed '/^$/d' | head -25
  exit 0
fi

if command -v g++ >/dev/null 2>&1; then
  echo "== profiler: gprof fallback (perf unavailable) =="
  cmake -S "$ROOT" -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
  cmake --build "$BUILD" -j --target "$BENCH" >/dev/null
  # gmon.out is dropped in the working directory of the profiled process.
  (cd "$OUT" && "$BIN" --bench-out "$OUT" >/dev/null)
  gprof "$BIN" "$OUT/gmon.out" >"$OUT/gprof.txt"
  echo "report: $OUT/gprof.txt (flat profile below)"
  # awk stops printing itself: `| head` would SIGPIPE awk, and pipefail
  # would turn that into a failing exit status.
  awk '/^ *time/{found=1} found && n++ < 25' "$OUT/gprof.txt"
  exit 0
fi

echo "profile_hotpath: neither perf nor g++/gprof is available" >&2
exit 3
