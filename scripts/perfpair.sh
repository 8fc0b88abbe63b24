#!/usr/bin/env bash
# perfpair.sh compares one perfbench workload between a base revision and
# the working tree (or a second revision), in alternating pairs of runs.
#
#   scripts/perfpair.sh [--head <rev>] <base-rev> <workload> <pairs> [perfbench flags...]
#
# The base revision is unpacked with `git archive` into a temporary
# directory; with --head, so is the head revision, else the head side is the
# working tree as it stands. Each side builds into its own CARGO_TARGET_DIR
# inside that directory, so neither side reuses the other's binary or touches
# the checkout's .bench_build. Pair i runs the base first when i is odd and
# the head first when i is even. The perfbench flags default to
# `--seed 1 --seconds 25 --trace 0`; flags given after <pairs> are appended
# and override them (e.g. `--seed 7`, or `--trace 1 --seconds 8` for the
# per-layer metrics).
#
# It prints every pair's metrics, then each side's median and interquartile
# range per metric, the head's wins (better in the direction BENCHMARK.json
# gives), and whether stars, kl and alloc_mb.per_op repeat exactly across all
# runs of both sides. The temporary directory is removed, and a running
# benchmark stopped, on exit or interrupt.
set -euo pipefail

usage() {
	echo "usage: $0 [--head <rev>] <base-rev> <workload> <pairs> [perfbench flags...]" >&2
	exit 2
}

head_rev=""
if [ "${1:-}" = "--head" ]; then
	[ $# -ge 2 ] || usage
	head_rev=$2
	shift 2
fi
[ $# -ge 3 ] || usage
base_rev=$1 workload=$2 pairs=$3
shift 3
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

root=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perfpair.XXXXXX")
child=""
cleanup() {
	if [ -n "$child" ]; then
		kill -TERM "$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

unpack() { # unpack <rev> <dir>
	mkdir -p "$2"
	git -C "$root" archive "$1" | tar -x -C "$2"
}
unpack "$base_rev" "$tmp/base"
if [ -n "$head_rev" ]; then
	unpack "$head_rev" "$tmp/head"
	head_tree=$tmp/head
else
	head_tree=$root
fi

# run <side> <tree> <pair>: one benchmark run, its JSON line appended to
# $tmp/<side>.jsonl.
run() {
	local side=$1 tree=$2 pair=$3
	shift 3
	local log=$tmp/$side-$pair.log
	(cd "$tree" && CARGO_TARGET_DIR=$tmp/target-$side exec python3 perfbench/run.py \
		--workload "$workload" --seed 1 --seconds 25 --trace 0 "$@") >"$log" 2>&1 &
	child=$!
	if ! wait "$child"; then
		child=""
		echo "perfpair: $side run of pair $pair failed:" >&2
		tail -n 20 "$log" >&2
		exit 1
	fi
	child=""
	tail -n 1 "$log" >>"$tmp/$side.jsonl"
}

echo "perfpair: $workload, base $base_rev vs ${head_rev:-working tree}, $pairs pairs, flags: --seed 1 --seconds 25 --trace 0 $*"
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tmp/base" "$i" "$@"
		run head "$head_tree" "$i" "$@"
	else
		run head "$head_tree" "$i" "$@"
		run base "$tmp/base" "$i" "$@"
	fi
	echo "perfpair: pair $i done"
done

python3 - "$tmp/base.jsonl" "$tmp/head.jsonl" "$root/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f]

base, head = load(sys.argv[1]), load(sys.argv[2])
bench = json.load(open(sys.argv[3]))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
names = list(base[0]["metrics"])

def value(res, name):
    return res["metrics"][name]["value"]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

def change(b, h):
    return "" if b == 0 else "%+.1f%%" % (100 * (h - b) / b)

for i, (b, h) in enumerate(zip(base, head), 1):
    print("pair %d (%s first): correct %s/%s, failed %d/%d" % (
        i, "base" if i % 2 else "head", b["correct"], h["correct"], b["failed"], h["failed"]))
    for n in names:
        print("  %-30s %14.6g %14.6g  %s" % (n, value(b, n), value(h, n), change(value(b, n), value(h, n))))

print()
print("%-30s %14s %12s %14s %12s %9s %6s" % ("metric", "base median", "base IQR", "head median", "head IQR", "change", "wins"))
for n in names:
    bs, hs = [value(r, n) for r in base], [value(r, n) for r in head]
    bq, hq = quartiles(bs), quartiles(hs)
    wins = ""
    if n in better:
        sign = -1 if better[n] == "lower" else 1
        wins = "%d/%d" % (sum(sign * (h - b) > 0 for b, h in zip(bs, hs)), len(bs))
    print("%-30s %14.6g %12.4g %14.6g %12.4g %9s %6s" % (
        n, bq[1], bq[2] - bq[0], hq[1], hq[2] - hq[0], change(bq[1], hq[1]), wins))

print()
for n in ("stars", "kl", "alloc_mb.per_op"):
    if n not in base[0]["metrics"]:
        continue
    bs, hs = {value(r, n) for r in base}, {value(r, n) for r in head}
    if len(bs) == 1 and bs == hs:
        verdict = "match: every run of both sides reads %r" % bs.pop()
    elif len(bs) == 1 and len(hs) == 1:
        verdict = "repeat on each side but differ: base %r, head %r" % (bs.pop(), hs.pop())
    else:
        verdict = "vary: base %s, head %s" % (sorted(bs), sorted(hs))
    print("%s %s" % (n, verdict))
EOF
