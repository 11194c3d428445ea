#!/usr/bin/env bash
# Judges the working tree (head) against a parent commit with the benchmark
# under bench/: three alternating parent/head pairs of bench/run.sh on every
# workload BENCHMARK.json names, then `bench compare`. Run it from the
# repository root, for example:
#
#   bash .github/bench-pairs.sh "$(git merge-base HEAD origin/main)"
#
# The parent is checked out in a temporary worktree, removed on exit. Seed N
# orders the work of a workload's Nth pair (bench/README.md); the parent
# runs first on odd seeds and the head first on even ones, so a drift in
# host speed falls on both sides alike. Each run lasts BENCHMARK.json's
# run_seconds, and a run whose outputs are wrong fails the script. Records
# and the verdict table go to .bench_build/pairs/. The exit code is
# compare's: 1 when any end-to-end metric is worse than its bound, 0
# otherwise (unresolved rows included).
set -euo pipefail
parent="${1:?usage: bash .github/bench-pairs.sh PARENT}"
pairs_per_workload=3
out="$(pwd)/.bench_build/pairs"
seconds="$(jq -r .run_seconds BENCHMARK.json)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --detach "$tmp/parent" "$parent"
rm -rf "$out"
mkdir -p "$out"

run() { # SIDE CHECKOUT WORKLOAD SEED
	(cd "$2" && bash bench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" \
		--trace 0 --record "$out/$1.jsonl")
}
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
	for seed in $(seq "$pairs_per_workload"); do
		if ((seed % 2)); then
			run parent "$tmp/parent" "$w" "$seed"
			run head . "$w" "$seed"
		else
			run head . "$w" "$seed"
			run parent "$tmp/parent" "$w" "$seed"
		fi
	done
done
bash bench/run.sh compare "$out/parent.jsonl" "$out/head.jsonl" | tee "$out/compare.txt"
