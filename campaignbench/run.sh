#!/usr/bin/env bash
# Builds the campaign-service benchmark from source and runs it.
#
#   bash campaignbench/run.sh --workload steer|dashboard|replicated \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binary, the
# per-run journal directories and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The module needs nothing from the network: it requires only the
# repository itself, through a replace directive.
export GOCACHE="$out/go-cache"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config" # where the go command keeps its settings

(cd "$root/campaignbench" && go build -o "$out/campaignbench" .)
# Flush what the build wrote, so that the journals' fsyncs in the first
# run after a build do not wait for it.
sync -f "$out"
exec "$out/campaignbench" -workdir "$out/work" "$@"
