#!/usr/bin/env bash
# Prints `genaictl plan` for every platform at its defaults and for the
# configurations whose artifacts differ most: a replica set with autoscale,
# SLO and priority class, a multi-node (Ray) plan, a Helm plan with the
# engine's prefix caching off, and a host KV tier with a pinned GPU cache
# (-cpu-offload-blocks, -kv-transfer-micros, -gpu-blocks-override) in the
# Podman, Apptainer and Helm artifacts, and a Kubernetes replica set given
# the gateway's settings, which it refuses. A plan the tool refuses prints
# its error and exit status, so a refusal is pinned like an artifact. The
# output is committed as cmd/genaictl/plan.golden, and CI diffs a fresh
# run against it:
#
#   bash cmd/genaictl/plan_golden.sh > cmd/genaictl/plan.golden
set -euo pipefail

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/genaictl" ./cmd/genaictl

while read -r args; do
  echo "\$ genaictl plan $args"
  status=0
  # shellcheck disable=SC2086 # each line is a list of flags
  "$bin/genaictl" plan $args 2>&1 || status=$?
  if [ "$status" -ne 0 ]; then
    echo "# exit status $status"
  fi
  echo
done <<'CASES'
-platform hops
-platform eldorado
-platform goodall
-platform cee
-platform hops -model meta-llama/Llama-3.1-8B-Instruct -tp 1 -max-model-len 8192 -replicas 3 -route-policy prefix -autoscale -min-replicas 1 -max-replicas 4 -target-queue-depth 16 -slo-p95 30s -ttft-target 500ms -priority batch
-platform hops -model meta-llama/Llama-3.1-405B-Instruct -tp 4 -pp 2 -max-model-len 8192
-platform goodall -model RedHatAI/Llama-4-Scout-17B-16E-Instruct-quantized.w4a16 -tp 2 -prefix-cache=false
-platform hops -model meta-llama/Llama-3.1-8B-Instruct -tp 1 -max-model-len 8192 -replicas 2 -route-policy prefix -cpu-offload-blocks 4096 -kv-transfer-micros 30 -gpu-blocks-override 2048
-platform eldorado -cpu-offload-blocks 8192 -kv-transfer-micros 25 -gpu-blocks-override 4096
-platform cee -cpu-offload-blocks 8192 -kv-transfer-micros 25 -gpu-blocks-override 4096
-platform cee -replicas 2 -route-policy session -slo-p95 1s -priority batch -ttft-target 200ms
CASES
