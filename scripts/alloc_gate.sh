#!/bin/sh
# alloc_gate.sh — fail if a gated benchmark exceeds its committed
# allocation budget.
#
# Usage: sh scripts/alloc_gate.sh [bench_budget.json]
#
# Every benchmark named under "budgets" in bench_budget.json runs once
# (-benchtime=1x: one whole fleet or one activation per iteration, so a
# single run is exact, not noisy — allocation counts on these
# benchmarks are deterministic to within a few dozen) and its
# allocs/op and B/op are compared against the committed budget. The
# budgeted benchmarks live in the packages listed in $pkgs. Only POSIX
# sh + awk, no dependencies.
set -eu

budget=${1:-bench_budget.json}
pkgs="./internal/experiments ./internal/bundle ./internal/sim"
[ -f "$budget" ] || { echo "alloc_gate: $budget not found" >&2; exit 1; }

# Benchmark names are the keys directly under "budgets".
names=$(awk '
	/"budgets"/ { inb = 1; next }
	inb && /"allocs_per_op"|"bytes_per_op"|^[ \t]*[{}]/ { next }
	inb && /"Benchmark[A-Za-z0-9_]*"/ {
		line = $0
		sub(/^[^"]*"/, "", line); sub(/".*$/, "", line)
		print line
	}' "$budget")
[ -n "$names" ] || { echo "alloc_gate: no budgets in $budget" >&2; exit 1; }

regex=$(printf '%s\n' "$names" | awk '{ printf "%s^%s$", sep, $0; sep = "|" }')
echo "alloc_gate: running $(printf '%s\n' "$names" | tr '\n' ' ')"
# -p 1 runs the packages one after another: a one-iteration run that
# shares the CPUs with another package's fleet benchmark can lose its
# pooled scratch to a P move and read over budget.
out=$(go test -p 1 -run '^$' -bench "$regex" -benchtime=1x -benchmem $pkgs)

fail=0
for name in $names; do
	want_allocs=$(awk -v name="$name" '
		$0 ~ "\"" name "\"" { inb = 1 }
		inb && /"allocs_per_op"/ { gsub(/[^0-9]/, ""); print; exit }' "$budget")
	want_bytes=$(awk -v name="$name" '
		$0 ~ "\"" name "\"" { inb = 1 }
		inb && /"bytes_per_op"/ { gsub(/[^0-9]/, ""); print; exit }' "$budget")
	[ -n "$want_allocs" ] && [ -n "$want_bytes" ] || {
		echo "alloc_gate: incomplete budget for $name in $budget" >&2; exit 1; }

	# Match the whole name: BenchmarkX must not pick up BenchmarkXWarm.
	line=$(printf '%s\n' "$out" | grep -E "^$name(-[0-9]+)?[[:space:]]" | head -n 1)
	[ -n "$line" ] || { echo "alloc_gate: benchmark $name produced no result" >&2; exit 1; }

	got_allocs=$(printf '%s\n' "$line" | awk '{for (i=2; i<NF; i++) if ($(i+1) == "allocs/op") print $i}')
	got_bytes=$(printf '%s\n' "$line" | awk '{for (i=2; i<NF; i++) if ($(i+1) == "B/op") print $i}')

	if [ "$got_allocs" -gt "$want_allocs" ]; then
		echo "alloc_gate: FAIL $name allocs/op $got_allocs > budget $want_allocs" >&2
		fail=1
	fi
	if [ "$got_bytes" -gt "$want_bytes" ]; then
		echo "alloc_gate: FAIL $name B/op $got_bytes > budget $want_bytes" >&2
		fail=1
	fi
	[ "$fail" -ne 0 ] ||
		echo "alloc_gate: OK $name $got_allocs allocs/op (budget $want_allocs), $got_bytes B/op (budget $want_bytes)"
done
[ "$fail" -eq 0 ] || exit 1
