#!/usr/bin/env bash
# Builds lbictables, lbicd, lbicsim, the benchmark driver and the frozen
# reference build, then runs the driver with the given arguments:
#
#   bash lbicbench/run.sh --workload paper-tables --seed 1 --seconds 30 --trace 0
#   bash lbicbench/run.sh --smoke     # a few ops of every workload, both modes
#
# Build outputs, the Go build cache and the runs' scratch files all go under
# .bench_build/ at the repository root; nothing is fetched from a network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
mkdir -p "$out/bin" "$out/tmp"

# The traced mode's helper links internal packages; build it only when it
# is needed, so an untraced run depends on the public surface alone.
ledger=0
smoke=0
prev=""
for a in "$@"; do
	[[ "$prev" == "--trace" && "$a" == "1" ]] && ledger=1
	[[ "$a" == "--smoke" ]] && ledger=1 && smoke=1
	prev="$a"
done

go build -o "$out/bin/" ./cmd/lbictables ./cmd/lbicd ./cmd/lbicsim

# The frozen reference every host-time metric is paced against (README.md):
# lbictables and lbicd as of the commit that added the benchmark.
rm -rf "$out/ref"
mkdir -p "$out/ref/src"
tar -xzf lbicbench/ref/lbic-ref.tar.gz -C "$out/ref/src"
(cd "$out/ref/src" && go build -buildvcs=false -o "$out/ref/bin/" ./cmd/lbictables ./cmd/lbicd)

# The driver links the reference's lbic package, not the program's: the port
# grammar it draws served requests from, and the API it calls, stay as they
# were when the benchmark was added. The ledger prices the program's own
# layers and links the program.
cat >"$out/driver.mod" <<'EOF'
module lbic/lbicbench

go 1.23

require lbic v0.0.0

replace lbic => ../.bench_build/ref/src
EOF
(cd lbicbench && go build -modfile "$out/driver.mod" -o "$out/bin/lbicbench" ./driver)
if [[ $ledger == 1 ]]; then
	(cd lbicbench && go build -o "$out/bin/lbicledger" ./ledger)
fi

drive=("$out/bin/lbicbench" -bin "$out/bin" -ref "$out/ref/bin" -work "$out/work" -spec "$root/BENCHMARK.json")
if [[ $smoke == 1 ]]; then
	exec "${drive[@]}" -smoke
fi
exec "${drive[@]}" "$@"
