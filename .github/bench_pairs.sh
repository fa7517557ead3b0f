#!/usr/bin/env bash
# Records interleaved parent/change pairs of the repository benchmark as
# BENCH_<pr>.json at the repository root.
#
#   .github/bench_pairs.sh <parent-rev> <pr>
#   .github/bench_pairs.sh <parent-rev> noise
#
# Builds the benchmark (BENCHMARK.json, benchmark/) twice: <parent-rev>,
# exported with `git archive` into a scratch directory, and the working
# tree, in place. Then, per workload BENCHMARK.json names, it runs ten
# pairs at BENCHMARK.json's run_seconds and seed 11, the two sides taking
# turns at going first, and compares the sets with the benchmark's own
# `compare`. BENCH_<pr>.json holds
#
#   {pr, parent, change, runs: {parent: [...], change: [...]},
#    compare: ["<line>", ...], compare_status, pairs}
#
# where `runs` are the result files as `--out` writes them and `compare`
# is the verdict table (its exit status: non-zero on any WORSE row, any
# count that DIFFERS and any failed operation). `change` is the HEAD
# commit, suffixed `+working-tree` when the tree has uncommitted changes.
# `pairs` reads the same runs pair by pair: per workload and end-to-end
# metric, how many pairs the change won, lost and tied (a win is the
# direction BENCHMARK.json calls `better`), both medians, the parent's
# inter-quartile range (quartiles by the exclusive method, as `compare`
# takes them) and `claim_met`: won at least 9 of the pairs and better in
# the median by more than the parent's inter-quartile range.
#
# With `noise` in place of a PR number it runs the same pairs with the
# parent's build on both sides and writes BENCH_noise.json (`pr` "noise",
# `change` the parent): an A/A record of how far two sides of a pair
# drift apart on this host when nothing differs, the spread any claimed
# gain must clear.
#
# The export, rather than a worktree, leaves the repository's .git as it
# was even if the run is killed. A build rewrites a stale
# benchmark/Cargo.lock; the script puts it back, so benchmark/ and
# BENCHMARK.json are left byte-identical. Needs cargo and jq.
set -euo pipefail

if [ $# -ne 2 ] || ! [[ $2 =~ ^([0-9]+|noise)$ ]]; then
    echo "usage: $0 <parent-rev> <pr>|noise" >&2
    exit 2
fi
pairs=10
seed=11
root=$(git rev-parse --show-toplevel)
cd "$root"
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse HEAD)
if ! git diff --quiet HEAD || [ -n "$(git ls-files --others --exclude-standard)" ]; then
    change="$change+working-tree"
fi
pr=$2
trees=(parent change)
if [ "$pr" = noise ]; then
    change=$parent
    pr='"noise"'
    trees=(parent)
fi
seconds=$(jq -r .run_seconds BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)

scratch=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
cp benchmark/Cargo.lock "$scratch/Cargo.lock"
trap 'cp "$scratch/Cargo.lock" benchmark/Cargo.lock; rm -rf "$scratch"' EXIT

mkdir "$scratch/parent" "$scratch/out"
git archive "$parent" | tar -x -C "$scratch/parent"
declare -A tree=([parent]=$scratch/parent [change]=$root)
for side in "${trees[@]}"; do
    echo "bench_pairs: building the benchmark in ${tree[$side]}" >&2
    cargo build --release --offline --quiet --manifest-path "${tree[$side]}/benchmark/Cargo.toml"
done
cp "$scratch/Cargo.lock" benchmark/Cargo.lock
declare -A bin=(
    [parent]=${tree[parent]}/benchmark/target/release/ugc-benchmark
    [change]=${tree[${trees[-1]}]}/benchmark/target/release/ugc-benchmark
)

for workload in $workloads; do
    for i in $(seq "$pairs"); do
        order="parent change"
        if [ $((i % 2)) -eq 0 ]; then order="change parent"; fi
        for side in $order; do
            echo "bench_pairs: $workload pair $i/$pairs, $side" >&2
            "${bin[$side]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --out "$scratch/out/$side-$workload-$i.json" \
                --tag "side=$side" --tag "pair=$i" >/dev/null
        done
    done
done

status=0
"${bin[change]}" compare "$scratch"/out/parent-*.json -- "$scratch"/out/change-*.json \
    >"$scratch/compare.txt" || status=$?
cat "$scratch/compare.txt"
# `pairs`: per workload and end-to-end metric, the pairs the change won,
# lost and tied, and what the claim rule reads.
pairs_def='
  def quartile($i):
    sort as $s | ($s | length) as $n
    | if $n < 2 then ($s[0] // 0)
      else ($i * ($n + 1) / 4) as $pos | ([[($pos | floor), 1] | max, $n - 1] | min) as $j
        | $s[$j - 1] + ($s[$j] - $s[$j - 1]) * ($pos - $j)
      end;
  def by_pair($w): map(select(.workload == $w) | {key: .tags.pair, value: .metrics})
    | from_entries;
  def count($x): map(select(. == $x)) | length;
  def pairs:
    [$parent_runs[].workload] | unique | map(. as $w
      | ($parent_runs | by_pair($w)) as $a | ($change_runs | by_pair($w)) as $b
      | {key: $w, value: ($metrics | map(.name as $name | .better as $better
          | [$a | keys[] | select($b[.]) | {p: $a[.][$name].value, c: $b[.][$name].value}]
          | (map(if .c == .p then 0
              elif (.c < .p) == ($better == "lower") then 1 else -1 end)) as $signs
          | (map(.p) | quartile(2)) as $pm | (map(.c) | quartile(2)) as $cm
          | ((map(.p) | quartile(3)) - (map(.p) | quartile(1))) as $iqr
          | {key: $name, value: {better: $better, won: ($signs | count(1)),
              lost: ($signs | count(-1)), tied: ($signs | count(0)),
              parent_median: $pm, change_median: $cm, parent_iqr: $iqr,
              claim_met: (($signs | count(1)) >= 9
                and (if $better == "lower" then $pm - $cm else $cm - $pm end) > $iqr)}})
        | from_entries)})
    | from_entries;'
jq -n --argjson pr "$pr" --arg parent "$parent" --arg change "$change" \
    --slurpfile parent_runs <(cat "$scratch"/out/parent-*.json) \
    --slurpfile change_runs <(cat "$scratch"/out/change-*.json) \
    --argjson metrics "$(jq -c .end_to_end BENCHMARK.json)" \
    --rawfile compare "$scratch/compare.txt" --argjson status "$status" \
    "$pairs_def"'
    {pr: $pr, parent: $parent, change: $change,
      runs: {parent: $parent_runs, change: $change_runs},
      compare: ($compare | rtrimstr("\n") | split("\n")), compare_status: $status,
      pairs: pairs}' \
    >"BENCH_$2.json"
echo "bench_pairs: wrote BENCH_$2.json" >&2
exit "$status"
