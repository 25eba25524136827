#!/usr/bin/env bash
# Captures CPU and allocation profiles of the RR-generation sweep for
# kernel tuning. Scale knobs come from the environment so a quick local
# capture and a full cache-stressing one use the same entry point:
#
#   ./scripts/capture_pprof.sh                 # moderate scale into ./profiles
#   RRGEN_NODES=4000000 RRGEN_COUNT=200000 \
#     ./scripts/capture_pprof.sh profiles-big  # the BENCH_RRGEN.json setting
#   RRGEN_GRAPH=.bench_build/prep/rmat-n262144-d16-g7-wc.dsg RRGEN_COUNT=100000 RRGEN_BS=64 \
#     ./scripts/capture_pprof.sh               # the repository benchmark's own graph (diimm_ic;
#                                              # RRGEN_GRAPH = pref|rmat or a graph file path)
#   RRGEN_MODEL=lt RRGEN_GRAPH=.bench_build/prep/rmat-n262144-d16-g7-wc.dsg RRGEN_COUNT=400000 RRGEN_BS=64 \
#     ./scripts/capture_pprof.sh               # the same graph under LT (diimm_lt_tcp's walk)
#
# Inspect with: go tool pprof -top profiles/rrgen.cpu.pb.gz
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-profiles}"
mkdir -p "$out"

go run ./cmd/experiments -run rrgen -rrgen-out "" \
	-rrgen-graph "${RRGEN_GRAPH:-rmat}" \
	-rrgen-nodes "${RRGEN_NODES:-200000}" \
	-rrgen-degree "${RRGEN_DEGREE:-16}" \
	-rrgen-count "${RRGEN_COUNT:-50000}" \
	-rrgen-ps "${RRGEN_PS:-1}" \
	-rrgen-bs "${RRGEN_BS:-1,64}" \
	-rrgen-subset="${RRGEN_SUBSET:-false}" \
	-rrgen-model "${RRGEN_MODEL:-ic}" \
	-cpuprofile "$out/rrgen.cpu.pb.gz" \
	-memprofile "$out/rrgen.allocs.pb.gz"

echo "wrote $out/rrgen.cpu.pb.gz and $out/rrgen.allocs.pb.gz"
