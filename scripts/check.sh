#!/bin/sh
# Repo check: formatting, full build, full test suite (which also pins the
# reference-model scaling curves of BENCH_scaling.json exactly), smoke runs
# of the parallel (OCaml-domains) execution path through the CLI, a
# correctness-only pass of perfbench's solve and halo workloads, the scale
# bench smoke (which exits non-zero on a validation row out of bound or a
# tuner loss), and the fig8/fig11 scaling figures.
# Run from anywhere; operates on the repo root.
#
# Usage: check.sh [--smoke]
#   --smoke   skip the heavier 4-rank CLI smokes (CI mode); the build,
#             tests, 2-rank smokes and benches all still run.
set -eu
cd "$(dirname "$0")/.."
root="$(pwd)"

smoke=0
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=1 ;;
    *) echo "check.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

dune build @fmt
dune build
dune runtest
# Parallel runtime smoke: distribute + execute the heat2d demo on real
# domains and check the gathered result against the serial reference
# (stencilc exits non-zero on any divergence).  Overlap (split-phase
# swaps) is on by default — this exercises the executed overlap path;
# the --overlap=false runs cover the fused-swap ablation.
dune exec bin/stencilc.exe -- --demo heat2d --run-par 2 > /dev/null
dune exec bin/stencilc.exe -- --demo heat2d --run-par 2 --overlap=false > /dev/null
# Compiled-executor smoke: the closure-compiled backend must agree with
# the serial interpreter bitwise (stencilc exits non-zero otherwise).
dune exec bin/stencilc.exe -- --demo heat2d --run-par 2 --exec=compiled > /dev/null
dune exec bin/stencilc.exe -- --demo heat2d --run-sim 2 --exec=interp > /dev/null
# Threaded-executor smoke: each rank runs a 2-wide domain pool over the
# cache-tiled omp.parallel lowering; the gathered result must still match
# the serial interpreter bitwise.
dune exec bin/stencilc.exe -- --demo heat2d --run-par 2 --threads-per-rank 2 --tile 8,8 > /dev/null
if [ "$smoke" -eq 0 ]; then
  dune exec bin/stencilc.exe -- --demo heat2d --run-par 4 > /dev/null
  dune exec bin/stencilc.exe -- --demo heat2d --run-sim 4 --exec=compiled --overlap=false > /dev/null
fi
# Compile-service smoke: --serve must answer a compile request twice with
# the same digest — a miss then a hit — and execute a cached run exactly.
serve_out="$(printf 'compile demo=heat2d ranks=2\ncompile demo=heat2d ranks=2\nrun demo=heat2d ranks=2 substrate=sim\nquit\n' \
  | dune exec bin/stencilc.exe -- --serve)"
case "$serve_out" in
  *"cached=miss"*) ;;
  *) echo "check.sh: --serve first compile was not a cache miss" >&2; exit 1 ;;
esac
case "$serve_out" in
  *"cached=hit"*) ;;
  *) echo "check.sh: --serve repeat compile was not a cache hit" >&2; exit 1 ;;
esac
case "$serve_out" in
  *"max_diff=0"*) ;;
  *) echo "check.sh: --serve run diverged from serial" >&2; exit 1 ;;
esac
# Framing regression: a malformed request that declares an ir= payload
# must drain exactly those bytes — the following ping must still answer
# pong instead of the payload being parsed as commands.
desync_out="$(printf 'compile ir=5 demo=heat2d ranks=2\nhelloping\nquit\n' \
  | dune exec bin/stencilc.exe -- --serve)"
case "$desync_out" in
  *"ok pong"*) ;;
  *) echo "check.sh: --serve desynced after a malformed ir= request" >&2; exit 1 ;;
esac

# Socket-daemon smoke: start a Unix-socket daemon with a throwaway
# artifact store, hit it with two concurrent clients requesting the same
# digest, and check one compiled cold while the other was answered from
# the cache (miss+hit in some order across the two).  Then race two
# clients requesting distinct digests: each compiles cold on its own
# connection domain, and the daemon's shutdown line must count all three
# cold compiles.  The daemon and the
# clients run the built binary directly: dune exec holds the build lock
# for the life of the program, so a dune-exec'd daemon would deadlock
# every dune-exec'd client.
stencilc="$root/_build/default/bin/stencilc.exe"
sockdir="$(mktemp -d)"
sock="$sockdir/stencilc.sock"
"$stencilc" --serve --socket "$sock" --store "$sockdir/store" \
  > "$sockdir/daemon.log" 2>&1 &
daemon_pid=$!
i=0
while [ ! -S "$sock" ] && [ "$i" -lt 100 ]; do
  sleep 0.1; i=$((i + 1))
done
test -S "$sock" || {
  echo "check.sh: socket daemon never created $sock" >&2
  cat "$sockdir/daemon.log" >&2
  kill "$daemon_pid" 2> /dev/null || true
  rm -rf "$sockdir"
  exit 1
}
printf 'compile demo=heat2d ranks=2\n' \
  | "$stencilc" --connect "$sock" > "$sockdir/c1.out" &
c1=$!
printf 'compile demo=heat2d ranks=2\n' \
  | "$stencilc" --connect "$sock" > "$sockdir/c2.out" &
c2=$!
wait "$c1" "$c2"
printf 'compile demo=heat2d ranks=4\n' \
  | "$stencilc" --connect "$sock" > "$sockdir/c3.out" &
c3=$!
printf 'compile demo=heat2d ranks=2 strategy=slice1d\n' \
  | "$stencilc" --connect "$sock" > "$sockdir/c4.out" &
c4=$!
wait "$c3" "$c4"
printf 'shutdown\n' | "$stencilc" --connect "$sock" > /dev/null
wait "$daemon_pid" || {
  echo "check.sh: socket daemon exited non-zero" >&2
  cat "$sockdir/daemon.log" >&2
  rm -rf "$sockdir"
  exit 1
}
both="$(cat "$sockdir/c1.out" "$sockdir/c2.out")"
case "$both" in
  *"cached=miss"*) ;;
  *) echo "check.sh: socket daemon: no client saw the cold compile" >&2
     rm -rf "$sockdir"; exit 1 ;;
esac
case "$both" in
  *"cached=hit"*) ;;
  *) echo "check.sh: socket daemon: no client was answered from the cache" >&2
     rm -rf "$sockdir"; exit 1 ;;
esac
for out in "$sockdir/c3.out" "$sockdir/c4.out"; do
  case "$(cat "$out")" in
    "ok "*"cached=miss"*) ;;
    *) echo "check.sh: socket daemon: distinct digest not compiled cold:" >&2
       cat "$out" >&2
       rm -rf "$sockdir"; exit 1 ;;
  esac
done
grep -q "; 3 cold compile(s)" "$sockdir/daemon.log" || {
  echo "check.sh: socket daemon did not report 3 cold compiles" >&2
  cat "$sockdir/daemon.log" >&2
  rm -rf "$sockdir"
  exit 1
}
ls "$sockdir/store"/*.art > /dev/null 2>&1 || {
  echo "check.sh: socket daemon persisted nothing to the artifact store" >&2
  rm -rf "$sockdir"
  exit 1
}
rm -rf "$sockdir"

# Benchmark correctness: perfbench's solve and halo workloads run heat2d
# and wave2d so=8 through a socket daemon on real rank domains, so every
# loop nest runs as a native kernel, and each job's gathered result
# is checked bitwise against the serial interpreter.  Only correctness
# gates here (every job correct, none failed, native kernels on); the
# timings are perfbench's own business.
nk_err="$(mktemp)"
for workload in solve halo; do
  line="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 3 --trace 0 2> "$nk_err" | tail -n 1)"
  if grep -q "native kernels off" "$nk_err"; then
    echo "check.sh: perfbench $workload ran per op: $(grep -m 1 "native kernels off" "$nk_err")" >&2
    rm -f "$nk_err"
    exit 1
  fi
  printf '%s\n' "$line" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' || {
    echo "check.sh: perfbench $workload: wrong or failed jobs: $line" >&2
    rm -f "$nk_err"
    exit 1
  }
done
rm -f "$nk_err"

# Timeline-analytics smoke: --report must print the per-rank breakdown,
# the comm matrix, a critical path, an overlap figure and the alpha-beta
# fit verdict.
report="$(dune exec bin/stencilc.exe -- --demo heat2d --run-sim 4 --report)"
for section in "phase breakdown" "comm matrix" "critical path" "overlap:" \
  "network model"; do
  case "$report" in
    *"$section"*) ;;
    *) echo "check.sh: --report output is missing '$section'" >&2; exit 1 ;;
  esac
done

# Auto-tuner smoke: --autotune must enumerate decomposition candidates
# at a rank count far beyond this host and commit to one.
tune_out="$(dune exec bin/stencilc.exe -- --demo heat2d --autotune 64)"
case "$tune_out" in
  *"chosen:"*) ;;
  *) echo "check.sh: --autotune did not choose a decomposition" >&2; exit 1 ;;
esac

# Bench smoke: bench scale runs once, from a scratch cwd.  Its artifact
# must land at the repo root regardless of the cwd the binary runs from
# (the writers resolve paths against the root).  The committed full-size
# BENCH_scaling.json is saved first and put back by the EXIT trap, so a
# failure anywhere below leaves it in the working tree.
tmpdir="$(mktemp -d)"
saved="$tmpdir/BENCH_scaling.json.saved"
cp "$root/BENCH_scaling.json" "$saved"
trap 'mv -f "$saved" "$root/BENCH_scaling.json"; rm -rf "$tmpdir"' EXIT
rm -f "$root/BENCH_scaling.json"
rundir="$tmpdir/rundir"
mkdir "$rundir"
(cd "$rundir" && "$root/_build/default/bench/main.exe" scale --smoke > /dev/null)
# The scaling figures price every modelled exchange by replaying the
# schedule derived from the compiled module; fig8 also fails when that
# schedule's traffic differs from a simulated run's.  They run from the
# same scratch cwd, so the leak check below covers them too.
for fig in fig8 fig11; do
  (cd "$rundir" && "$root/_build/default/bench/main.exe" "$fig" > /dev/null)
done
test -f "$root/BENCH_scaling.json" || {
  echo "check.sh: BENCH_scaling.json did not land at the repo root" >&2
  exit 1
}
if ls "$rundir"/BENCH_*.json > /dev/null 2>&1; then
  echo "check.sh: bench artifacts leaked into the run cwd" >&2
  exit 1
fi
# bench scale is the one alpha-beta calibration: its record must carry
# the fit verdict.
grep -q '"netmodel": {[^}]*"fit_ok":' "$root/BENCH_scaling.json" || {
  echo "check.sh: BENCH_scaling.json has no netmodel record with fit_ok" >&2
  exit 1
}
echo "check.sh: all checks passed"
