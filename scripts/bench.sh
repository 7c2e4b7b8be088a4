#!/bin/sh
# Runs the perf-trajectory benchmarks — the batched one-hop kernels, the
# Figure 1 sweep (scalar and batch variants side by side), and the
# single-node recompute trajectory at n ∈ {1000, 2000, 5000} (quorum tick
# full vs generation-cached steady state, full-mesh pass full vs incremental)
# — and writes the parsed results as JSON to the file named in $1 (default
# BENCH_2.json). The raw `go test -bench` output is echoed so a human can
# eyeball it.
#
# It then runs the view-dissemination benchmark (broadcast vs gossip message
# counts, primary egress, and convergence time at n ∈ {500, 2000}) into the
# file named in $2 (default BENCH_3.json).
#
# Finally it runs the view-change benchmarks — an in-place join+leave on
# both routers at n ∈ {500, 2000, 5000}, plus the sharded
# full-pass recompute at 1/2/4/8 workers (byte-identity asserted before
# timing) — into the file named in $3 (default BENCH_4.json).
set -e
out=${1:-BENCH_2.json}
out3=${2:-BENCH_3.json}
out4=${3:-BENCH_4.json}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# parse_bench converts `go test -bench` output on stdin to JSON on stdout.
parse_bench() {
	awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	    -v gover="$(go version | awk '{print $3}')" \
	    -v cpus="$(nproc 2>/dev/null || echo 1)" '
	BEGIN {
		printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"cpus\": %s,\n  \"benchmarks\": [", date, gover, cpus
		first = 1
	}
	/^Benchmark/ {
		if (!first) printf ","
		first = 0
		printf "\n    {\"name\": \"%s\", \"iterations\": %s", $1, $2
		for (i = 3; i < NF; i += 2) {
			unit = $(i + 1)
			gsub(/[\/%]/, "_", unit)
			printf ", \"%s\": %s", unit, $i
		}
		printf "}"
	}
	END { printf "\n  ]\n}\n" }'
}

go test -run '^$' -bench 'Kernel|Fig1BestOneHop|Fig1Scale|RecomputeTrajectory' -benchmem -count 3 . | tee "$tmp"
parse_bench < "$tmp" > "$out"
echo "wrote $out"

go test -run '^$' -bench 'ViewDissemination' -benchtime 1x -count 3 ./internal/membership/ | tee "$tmp"
parse_bench < "$tmp" > "$out3"
echo "wrote $out3"

go test -run '^$' -bench 'ViewChange|ShardedFullPass' -benchmem -count 3 . | tee "$tmp"
parse_bench < "$tmp" > "$out4"
echo "wrote $out4"
