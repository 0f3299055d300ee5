#!/usr/bin/env bash
# A/B host-time comparison of the benchmark: a git revision against the
# working tree.
#
#   scripts/bench-ab.sh <parent-rev> [pairs] [seconds]
#
# Exports <parent-rev> and the working tree (tracked files as they are
# now, plus untracked files git does not ignore) into a temporary
# directory under ${TMPDIR:-/tmp}, so no build writes under the
# repository's own benchmark/ or target/. Builds `benchmark` in each,
# then runs every workload BENCHMARK.json names, `pairs` times per side
# (default 10) for `seconds` of timed reps (default: its run_seconds),
# alternating which side runs first pair by pair.
#
# For each workload and end-to-end metric it prints every run, both
# medians with q1-q3, the ratio change/parent, how many pairs the change
# won, whether the change's median is worse than the parent's by more
# than the metric's BENCHMARK.json bound, and whether a gain is shown:
# the change won at least nine tenths of the pairs (ties count for
# neither side) and its median beats the parent's by more than the
# parent's q1-q3 spread. It exits 1, naming each workload and metric at
# fault, when a run exits non-zero, prints "correct": false or a
# non-zero "failed", or a metric's median is worse than its bound.
set -euo pipefail

usage() {
  echo "usage: scripts/bench-ab.sh <parent-rev> [pairs] [seconds]" >&2
  exit 2
}
[[ $# -ge 1 && $# -le 3 ]] || usage
root=$(git rev-parse --show-toplevel)
spec=$root/BENCHMARK.json
rev=$1
pairs=${2:-10}
seconds=${3:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
git -C "$root" rev-parse --quiet --verify "$rev^{commit}" > /dev/null ||
  { echo "bench-ab: $rev is not a commit" >&2; exit 2; }

work=$(mktemp -d "${TMPDIR:-/tmp}/bench-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/parent" "$work/change" "$work/runs"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
  while IFS= read -r -d '' f; do if [[ -e $f ]]; then printf '%s\0' "$f"; fi; done |
  tar --null -T - -cf -) | tar -x -C "$work/change"

mapfile -t command < <(python3 -c '
import json, sys
print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$spec")
mapfile -t workloads < <(python3 -c '
import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")

for side in parent change; do
  echo "bench-ab: building $side" >&2
  (cd "$work/$side" && CARGO_TARGET_DIR="$work/$side/target" \
    cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
done

# run <side> <workload> <pair>: one benchmark run; its JSON result line
# is appended to runs/<workload>.<side>.
run() {
  local out=$work/runs/$2.$1.$3.txt
  if ! (cd "$work/$1" && CARGO_TARGET_DIR="$work/$1/target" \
    "${command[@]}" --workload "$2" --seconds "$seconds" --trace 0) > "$out"; then
    echo "bench-ab: $1 $2 pair $3 exited non-zero" >&2
    tail -n 5 "$out" >&2
    exit 1
  fi
  tail -n 1 "$out" >> "$work/runs/$2.$1"
  echo "bench-ab: $2 pair $3 $1: $(tail -n 1 "$out")" >&2
}

for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      run parent "$w" "$i"
      run change "$w" "$i"
    else
      run change "$w" "$i"
      run parent "$w" "$i"
    fi
  done
done

python3 - "$spec" "$work/runs" "$rev" <<'EOF'
import json, math, sys

spec = json.load(open(sys.argv[1]))
runs, rev = sys.argv[2], sys.argv[3]


def quantile(values, q):
    # Nearest rank, as the benchmark's own stats: the smallest sample
    # with at least q*n samples at or below it.
    s = sorted(values)
    return s[min(max(math.ceil(q * len(s)), 1), len(s)) - 1]


def spread(values):
    return (f"{quantile(values, 0.5):.6g} "
            f"[{quantile(values, 0.25):.6g}-{quantile(values, 0.75):.6g}]")


bad = []
print(f"parent = {rev}, change = working tree")
for w in (w["name"] for w in spec["workloads"]):
    side = {}
    for name in ("parent", "change"):
        side[name] = [json.loads(line) for line in open(f"{runs}/{w}.{name}")]
        for i, r in enumerate(side[name]):
            if r["correct"] is not True or r["failed"] != 0:
                bad.append(f"{w} {name} pair {i}: incorrect or failed run: "
                           f"correct={r['correct']} failed={r['failed']}")
    for m in spec["end_to_end"]:
        p = [r["metrics"][m["name"]]["value"] for r in side["parent"]]
        c = [r["metrics"][m["name"]]["value"] for r in side["change"]]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ratio = quantile(c, 0.5) / quantile(p, 0.5) if quantile(p, 0.5) else float("nan")
        worse = sign * (ratio - 1) < -m["bound"]
        if worse:
            bad.append(f"{w} {m['name']}: median ratio {ratio:.4f} is worse than "
                       f"its bound {m['bound']}")
        parent_spread = quantile(p, 0.75) - quantile(p, 0.25)
        gain = (10 * wins >= 9 * len(p)
                and sign * (quantile(c, 0.5) - quantile(p, 0.5)) > parent_spread)
        print(f"{w} {m['name']} ({m['unit']}, {m['better']} is better, bound {m['bound']}):")
        print(f"  parent runs: {' '.join(f'{v:.6g}' for v in p)}")
        print(f"  change runs: {' '.join(f'{v:.6g}' for v in c)}")
        print(f"  parent {spread(p)}  change {spread(c)}  ratio {ratio:.4f}  "
              f"change wins {wins}/{len(p)}  worse than bound: {'YES' if worse else 'no'}  "
              f"gain shown: {'yes' if gain else 'no'}")
for b in bad:
    print(f"bench-ab: FAIL: {b}", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
