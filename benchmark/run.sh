#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it from there with the arguments given. Everything the build writes
# (the Go build cache included) stays inside the checkout; after the first
# build a run starts in about a second.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/go-cache" GOPATH="$build/go-path" \
		GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
		go build -ldflags "-X main.commit=$commit" -o "$build/ndsm-benchmark" .
)

cd "$root"
exec "$build/ndsm-benchmark" "$@"
