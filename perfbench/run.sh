#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload market --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output, the Go build cache, span files
# and CPU profiles stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

# Keep every toolchain write inside the checkout; never fetch anything.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# Identify the tree: the git commit when there is one, and always a digest
# of the module's Go sources.
PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
PERFBENCH_SOURCE=$( (cd "$root" && find go.mod internal perfbench -type f \( -name '*.go' -o -name go.mod \) 2>/dev/null || true) |
	LC_ALL=C sort | xargs -r sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_COMMIT PERFBENCH_SOURCE

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --outdir "$out" "$@"
