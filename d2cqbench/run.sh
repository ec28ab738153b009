#!/usr/bin/env bash
# Builds the daemon and the load generator from this checkout's sources, then
# runs one benchmark workload:
#
#   bash d2cqbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds, the Go build cache
# included, lands under .bench_build/ so the run reads and writes only inside
# the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local
# Provenance: the git commit, or outside a git checkout a digest of the Go
# sources and module files the binaries are built from.
if commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	:
else
	commit="sources-sha256:$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
go build -o "$out/d2cqd" ./cmd/d2cqd
go -C d2cqbench build -o "$out/d2cqbench" .
exec "$out/d2cqbench" -d2cqd "$out/d2cqd" -work "$out/run" -commit "$commit" "$@"
