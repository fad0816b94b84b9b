#!/usr/bin/env bash
# Prints `genaictl bench` for the serving benchmark's main shapes: one
# instance; a streamed replica set with traces and both artifacts; CI's
# two open-loop workload sweeps; a traced fleet; a pooled autoscaled
# fleet; autoscale with an SLO and a default class; El Dorado; CEE; CEE
# with -replicas 2, which measures two pods behind the chart's Service
# (its name picks a ready pod per request), with -trace and
# -observe-artifact, which have no gateway to trace at or snapshot, so it
# notes both and writes no file; and a refused -replicas 0. A last case pins `genaictl deploy -models ...
# -query -stream`, whose every model streams its answer. Each case runs
# in a fresh temporary directory, writes its artifacts under fixed
# relative names, and is followed by a sha256 of every file it wrote, so
# an artifact is pinned byte for byte beside the printed output. A
# command that fails prints its error and exit status. The output is
# committed as cmd/genaictl/bench.golden, and CI diffs a fresh run
# against it:
#
#   bash cmd/genaictl/bench_golden.sh > cmd/genaictl/bench.golden
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/genaictl" ./cmd/genaictl

n=0
while read -r args; do
  n=$((n + 1))
  dir="$tmp/case$n"
  mkdir "$dir"
  echo "\$ genaictl $args"
  status=0
  # shellcheck disable=SC2086 # each line is a subcommand and its flags
  (cd "$dir" && "$tmp/genaictl" $args 2>&1) || status=$?
  if [ "$status" -ne 0 ]; then
    echo "# exit status $status"
  fi
  (cd "$dir" && find . -type f | LC_ALL=C sort | xargs -r sha256sum)
  echo
done <<'CASES'
bench -model meta-llama/Llama-3.1-8B-Instruct -tp 1 -max-model-len 8192 -concurrencies 1,8 -num-prompts 50
bench -stream -replicas 2 -route-policy least-loaded -concurrencies 1,8,64 -num-prompts 200 -artifact BENCH_streaming.json -trace -observe-artifact OBSERVE_fleet.json
bench -replicas 2 -route-policy session -workload diurnal-chat -trace-file workload_trace.jsonl -artifact BENCH_workload.json
bench -replicas 2 -route-policy prefix -workload diurnal-chat -max-model-len 8192 -gpu-blocks-override 2048 -cpu-offload-blocks 4096 -artifact BENCH_tiered.json
bench -tp 1 -max-model-len 8192 -replicas 2 -models chat=meta-llama/Llama-3.1-8B-Instruct:2,code=Qwen/Qwen2.5-Coder-7B-Instruct:1 -concurrencies 1,8 -num-prompts 40 -trace -artifact BENCH_fleet.json
bench -tp 1 -max-model-len 8192 -pool-nodes 4 -autoscale -max-replicas 3 -models chat=meta-llama/Llama-3.1-8B-Instruct:2,code=Qwen/Qwen2.5-Coder-7B-Instruct:1 -concurrencies 8,32 -num-prompts 100 -observe-artifact OBSERVE_fleet.json
bench -model meta-llama/Llama-3.1-8B-Instruct -tp 1 -max-model-len 8192 -autoscale -min-replicas 1 -max-replicas 3 -slo-p95 10s -priority batch -concurrencies 8,32 -num-prompts 100
bench -platform eldorado -concurrencies 1,16 -num-prompts 50 -seed 7
bench -platform cee -concurrencies 1,16 -num-prompts 50 -stream -artifact BENCH_cee.json
bench -platform cee -replicas 2 -concurrencies 1,16 -num-prompts 50 -trace -observe-artifact OBSERVE_fleet.json
bench -replicas 0
deploy -platform hops -tp 1 -max-model-len 8192 -models chat=meta-llama/Llama-3.1-8B-Instruct:2,code=Qwen/Qwen2.5-Coder-7B-Instruct:1 -query hello -stream
CASES
