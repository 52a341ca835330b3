#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload sweep_cold|sweep_warm|serve_mix \
#     --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The last line of stdout is the JSON
# result; build output and progress go to stderr. The build lands in
# .bench_build and run files in .bench_run, both under the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep every file the build and the run write inside the repository: no
# shared dune cache, and the compiler's temporary files under .bench_run.
export DUNE_CACHE=disabled
mkdir -p .bench_run/tmp
export TMPDIR="$PWD/.bench_run/tmp"
dune build --root . --build-dir .bench_build ./perfbench/bench.exe 1>&2

# The closed loops keep one domain busy at a time. Pinning the process
# (and the server it forks) to one CPU turns every hand-off between client
# and server into a same-CPU switch; on a shared 2-vCPU VM, cross-CPU
# wake-ups varied serve_mix latencies by 15-40% between runs.
# Without taskset, or where affinity cannot be set, it runs unpinned.
bench=(.bench_build/default/perfbench/bench.exe "$@")
cpu=""
if command -v taskset >/dev/null 2>&1 && cpus=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //'); then
  cpu=${cpus##*[,-]}
fi
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
  exec taskset -c "$cpu" "${bench[@]}"
fi
exec "${bench[@]}"
