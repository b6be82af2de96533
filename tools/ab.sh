#!/usr/bin/env bash
# A/B two revisions on the fixed benchmark, in interleaved pairs.
#
#   tools/ab.sh REV_A REV_B --workload W [--seed S] [--pairs N] [--seconds T] [--trace 0|1]
#
# Each revision (any git rev; WORKTREE is the working tree's tracked files,
# uncommitted edits included) is exported into .bench_build/<sha> and its
# benchmark package built there. Pair p then runs
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0
# once per side, A first on even pairs and B first on odd ones, so drift of
# the host over the session lands on both sides alike. Every run's two JSON
# lines go to .bench_build/ab/<a>_<b>_<W>_<S>.jsonl; the summary prints, per
# metric, each side's median [q1, q3], the ratio of the medians and how many
# pairs B won (in the metric's better direction, from BENCHMARK.json), plus
# attempted / failed operations and correctness. Defaults: --seed 42,
# --pairs 8, --seconds 16, --trace 0. Needs git, cargo and python3.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
usage() { echo "usage: $(sed -n '4p' "$0" | sed 's/^# *//')" >&2; exit 1; }
[ $# -ge 2 ] || usage
rev_a="$1" rev_b="$2"
shift 2
workload="" seed=42 pairs=8 seconds=16 trace=0
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --pairs) pairs="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] || usage

resolve() {
    if [ "$1" = WORKTREE ]; then
        # A commit object of the working tree that touches no ref or file.
        local snap
        snap="$(git -C "$root" stash create)"
        git -C "$root" rev-parse "${snap:-HEAD}"
    else
        git -C "$root" rev-parse --verify "$1^{commit}"
    fi
}

build() {
    local sha="$1" dir="$root/.bench_build/$1"
    if [ ! -e "$dir/.exported" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git -C "$root" archive "$sha" | tar -x -C "$dir"
        touch "$dir/.exported"
    fi
    echo "building $sha" >&2
    cargo build --quiet --release --offline --manifest-path "$dir/benchmark/Cargo.toml" >&2
}

sha_a="$(resolve "$rev_a")"
sha_b="$(resolve "$rev_b")"
build "$sha_a"
build "$sha_b"
mkdir -p "$root/.bench_build/ab"
log="$root/.bench_build/ab/${sha_a:0:12}_${sha_b:0:12}_${workload}_${seed}.jsonl"
: > "$log"

run() {
    local side="$1" sha="$2" pair="$3" out
    out="$(cd "$root/.bench_build/$sha" && benchmark/run.sh --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace "$trace" | grep -v '^[[:space:]]*$' | tail -n 2)"
    python3 - "$side" "$pair" "$out" >> "$log" <<'PY'
import json, sys
side, pair, out = sys.argv[1], int(sys.argv[2]), sys.argv[3].splitlines()
detail = json.loads(out[0]) if len(out) == 2 else {}
print(json.dumps({"side": side, "pair": pair, "run": json.loads(out[-1]), "detail": detail}))
PY
    echo "pair $pair side $side done" >&2
}

for ((p = 0; p < pairs; p++)); do
    if ((p % 2 == 0)); then
        run A "$sha_a" "$p"
        run B "$sha_b" "$p"
    else
        run B "$sha_b" "$p"
        run A "$sha_a" "$p"
    fi
done

python3 - "$log" "$root/BENCHMARK.json" "$sha_a" "$sha_b" "$workload" "$seed" <<'PY'
import json, sys
log, spec_path, sha_a, sha_b, workload, seed = sys.argv[1:]
spec = json.load(open(spec_path))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
rows = [json.loads(l) for l in open(log)]
pairs = sorted({r["pair"] for r in rows})

def metrics(r):
    m = {k: v["value"] for k, v in r["run"].get("metrics", {}).items()}
    for k, v in r["detail"].get("detail", {}).items():
        m[k] = v["value"]
    return m

runs = {(r["side"], r["pair"]): r for r in rows}
vals = {(s, p): metrics(runs[s, p]) for (s, p) in runs}

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def fmt(xs):
    return f"{quantile(xs, 0.5):.4g} [{quantile(xs, 0.25):.4g}, {quantile(xs, 0.75):.4g}]"

print(f"A {sha_a[:12]}  B {sha_b[:12]}  workload {workload}  seed {seed}  pairs {len(pairs)}")
for side in "AB":
    sel = [runs[side, p]["run"] for p in pairs if (side, p) in runs]
    print(f"  {side}: attempted {sum(r['attempted'] for r in sel)}, failed "
          f"{sum(r['failed'] for r in sel)}, correct {all(r['correct'] for r in sel)}")
end_to_end = [m["name"] for m in spec["end_to_end"]]
names = end_to_end + sorted({k for v in vals.values() for k in v} - set(end_to_end))
print(f"{'metric':<40} {'A median [q1, q3]':>28} {'B median [q1, q3]':>28} {'B/A':>7} {'B wins':>7}")
for name in names:
    both = [p for p in pairs if name in vals.get(("A", p), {}) and name in vals.get(("B", p), {})]
    if not both:
        continue
    a = [vals["A", p][name] for p in both]
    b = [vals["B", p][name] for p in both]
    ratio = quantile(b, 0.5) / quantile(a, 0.5) if quantile(a, 0.5) else float("nan")
    direction = better.get(name, better.get(name.removeprefix("rounds."), ""))
    if direction:
        wins = sum((y > x) if direction == "higher" else (y < x) for x, y in zip(a, b))
        won = f"{wins}/{len(both)}"
    else:
        won = "-"
    print(f"{name:<40} {fmt(a):>28} {fmt(b):>28} {ratio:>7.3f} {won:>7}")
PY
