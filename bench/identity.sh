#!/usr/bin/env bash
# Refactor identity check: a change that claims no behaviour change must
# leave every simulated metric of the repo benchmark exactly where the
# parent commit has it.
#
#   bash bench/identity.sh PARENT_DIR
#
# PARENT_DIR is a checkout of the parent commit (for instance
# `git archive HEAD | tar -x -C DIR` before committing). For seeds 1..3
# both trees run `bash benchmark/run.sh --quick --seed N`; per workload
# and seed the script compares p50_ms, p99_ms, update_p50_ms,
# max_rate_ops_s, attempted, failed and correct exactly, and prints the
# change in minor_words_per_op (wall-clock setup_s is left out). It also
# compares the text report's `failures by cause` line and every `fault:`
# line (crash instant, rejoin ms, write outage ms) exactly, so a change
# that moves a rejoin by a tenth of a millisecond without moving a
# latency percentile is caught. A second, traced pass (`--quick --trace 1
# --seed N`) compares the simulation's own counts exactly:
# sim.events_per_op, net.pkts_per_op, disk.writes_per_update and
# grp.msgs_per_update. A third pass runs `dirsim drill --seed N` (a
# total failure and a simultaneous restart of two servers, the one
# schedule here whose recovery waits for a majority and for the last
# set) and compares its text output and its trace event by event: time,
# subsystem, node and name, and every attribute the parent's event has
# (an attribute the change adds is allowed). It exits 1 on any simulated
# difference, 2 on a bad argument.
set -euo pipefail

if [ $# -ne 1 ] || [ ! -f "$1/benchmark/run.sh" ]; then
  echo "usage: bash bench/identity.sh PARENT_DIR (a checkout with benchmark/run.sh)" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for seed in 1 2 3; do
  for side in parent change; do
    if [ "$side" = parent ]; then dir=$parent; else dir=$here; fi
    for trace in 0 1; do
      log=$out/$side.$seed.$trace.log
      if ! (cd "$dir" && bash benchmark/run.sh --quick --trace "$trace" --seed "$seed" \
        --out "$out/$side.$trace.jsonl") >"$out/$side.$seed.$trace.txt" 2>"$log"; then
        echo "$side tree, seed $seed, trace $trace: benchmark/run.sh failed" >&2
        cat "$log" >&2
        exit 1
      fi
    done
    if ! (cd "$dir" && dune exec --root . --display quiet bin/dirsim.exe -- drill --seed "$seed" \
      --trace-out "$out/$side.$seed.drill.jsonl") >"$out/$side.$seed.drill.txt" 2>"$log"; then
      echo "$side tree, seed $seed: dirsim drill failed" >&2
      cat "$log" >&2
      exit 1
    fi
  done
done

python3 - "$out" <<'EOF'
import json, os, sys

def load(path):
    with open(path) as f:
        return {(r["workload"], r["seed"]): r for r in map(json.loads, f)}

out = sys.argv[1]
parent, change = load(out + "/parent.0.jsonl"), load(out + "/change.0.jsonl")
traced_parent, traced_change = load(out + "/parent.1.jsonl"), load(out + "/change.1.jsonl")

# The untraced report's fault and failure lines, per (workload, seed).
def report(side):
    lines = {}
    for seed in ("1", "2", "3"):
        workload = None
        with open("%s/%s.%s.0.txt" % (out, side, seed)) as f:
            for line in f:
                if line.startswith("== "):
                    workload = line.split()[1]
                elif line.startswith(("  fault:", "  failures by cause")):
                    lines.setdefault((workload, seed), []).append(line.strip())
    return lines

reported_parent, reported_change = report("parent"), report("change")
exact = ["p50_ms", "p99_ms", "update_p50_ms", "max_rate_ops_s"]
counts = ["sim.events_per_op", "net.pkts_per_op", "disk.writes_per_update", "grp.msgs_per_update"]
differ = 0
for name, p, c in (("runs", parent, change), ("traced runs", traced_parent, traced_change)):
    if p.keys() != c.keys():
        print("%s differ: parent %s, change %s" % (name, sorted(p), sorted(c)))
        differ += 1

def value(run, metric):
    return run["metrics"][metric]["value"] if run else None

for key in sorted(parent.keys() & change.keys()):
    p, c = parent[key], change[key]
    tp, tc = traced_parent.get(key), traced_change.get(key)
    diffs = [
        "%s %s -> %s" % (f, p[f], c[f]) for f in ("correct", "attempted", "failed") if p[f] != c[f]
    ] + [
        "%s %r -> %r" % (m, p["metrics"][m]["value"], c["metrics"][m]["value"])
        for m in exact
        if p["metrics"][m]["value"] != c["metrics"][m]["value"]
    ] + [
        "traced %s %r -> %r" % (m, value(tp, m), value(tc, m))
        for m in counts
        if value(tp, m) != value(tc, m)
    ]
    lp, lc = reported_parent.get(key, []), reported_change.get(key, [])
    if lp != lc:
        diffs += ["report: %s" % line for line in lp if line not in lc] + [
            "report -> %s" % line for line in lc if line not in lp
        ] or ["report lines reordered"]
    pw = p["metrics"]["minor_words_per_op"]["value"]
    cw = c["metrics"]["minor_words_per_op"]["value"]
    print(
        "%-14s seed %s  %s  minor words/op %.1f -> %.1f (%+.2f%%)"
        % (key[0], key[1], "DIFFERS" if diffs else "identical", pw, cw, 100.0 * (cw - pw) / pw)
    )
    for d in diffs:
        print("    " + d)
    differ += bool(diffs)

# The drill: its text, and its trace event by event.
def events(side, seed):
    with open("%s/%s.%s.drill.jsonl" % (out, side, seed)) as f:
        return [json.loads(line) for line in f]

def same_event(p, c):
    return all(p[k] == c[k] for k in ("time", "subsystem", "node", "name")) and all(
        c["attrs"].get(k) == v for k, v in p["attrs"].items()
    )

for seed in ("1", "2", "3"):
    diffs = []
    with open("%s/parent.%s.drill.txt" % (out, seed)) as fp, open("%s/change.%s.drill.txt" % (out, seed)) as fc:
        if fp.read() != fc.read():
            diffs.append("text output differs")
    pe, ce = events("parent", seed), events("change", seed)
    for p, c in zip(pe, ce):
        if not same_event(p, c):
            diffs.append("first differing event: %s -> %s" % (json.dumps(p), json.dumps(c)))
            break
    if len(pe) != len(ce):
        diffs.append("%d events -> %d" % (len(pe), len(ce)))
    print("%-14s seed %s  %s  %d trace events" % ("drill", seed, "DIFFERS" if diffs else "identical", len(ce)))
    for d in diffs:
        print("    " + d)
    differ += bool(diffs)
sys.exit(1 if differ else 0)
EOF
