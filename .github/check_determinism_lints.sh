#!/usr/bin/env bash
# Proves that the determinism audit still bites. The audit is
# `cargo clippy --all-targets -- -D warnings` under the root `clippy.toml`
# (disallowed methods and types) and the root `[workspace.lints]` levels;
# a clean run of it says nothing if an entry or a level has gone missing.
#
#   .github/check_determinism_lints.sh       # from anywhere in the repository
#
# 1. Every first-party manifest (the root and crates/*) opts in to the
#    workspace lint levels with `[lints] workspace = true`, and
#    `vendor/clippy.toml` is empty (it stops the vendored crates from
#    finding the root `clippy.toml`).
# 2. The fixture package in `determinism_fixture/` (its own workspace) is
#    linted with the root `clippy.toml` and the root levels, read from
#    the root `Cargo.toml` on every run. Every line it marks
#    `// fires: <lint>` must raise that lint as an error, and nothing
#    else may raise anything. Removing any `clippy.toml` entry or any
#    level leaves a marked line silent, and the script fails.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
fixture="$root/.github/determinism_fixture"
status=0

for manifest in "$root/Cargo.toml" "$root"/crates/*/Cargo.toml; do
    if ! awk '/^\[/ { section = $0; next }
              section == "[lints]" && /^workspace *= *true *$/ { found = 1 }
              END { exit !found }' "$manifest"; then
        echo "FAIL: ${manifest#"$root"/} lacks [lints] workspace = true" >&2
        status=1
    fi
done
if [ ! -f "$root/vendor/clippy.toml" ] || [ -s "$root/vendor/clippy.toml" ]; then
    echo "FAIL: vendor/clippy.toml must exist and be empty" >&2
    status=1
fi

# `[workspace.lints.<tool>]` entries of the root manifest as lint flags.
levels=$(awk -F' *= *' '
    /^\[workspace\.lints\.rust\]$/   { prefix = ""; inside = 1; next }
    /^\[workspace\.lints\.clippy\]$/ { prefix = "clippy::"; inside = 1; next }
    /^\[/                            { inside = 0 }
    inside && NF == 2 {
        gsub(/"/, "", $2)
        flag = $2 == "forbid" ? "-F" : $2 == "deny" ? "-D" : $2 == "warn" ? "-W" : $2 == "allow" ? "-A" : ""
        if (flag == "") { print "unreadable lint level: " $0 > "/dev/stderr"; exit 1 }
        print flag " " prefix $1
    }' "$root/Cargo.toml")

# The fixture fails to compile by design, so clippy's exit status (and
# its "could not compile" line) is not the verdict; the comparison is.
echo "linting the fixture; it is meant not to compile"
# shellcheck disable=SC2086 # one flag and one lint name per level
messages=$(cd "$fixture" && CLIPPY_CONF_DIR="$root" cargo clippy --quiet \
    --target-dir "$root/target/determinism_fixture" --message-format=json -- $levels) || true
found=$(echo "$messages" |
    jq -r 'select(.reason == "compiler-message") | .message | select(.code != null)
           | .level as $level | .code.code as $lint
           | .spans[] | select(.is_primary)
           | "\(.file_name):\(.line_start) \($lint) \($level)"' | sort -u)
expected=$(cd "$fixture" && grep -rnE '// fires: [a-z_:]+$' src |
    sed -E 's|^([^:]+:[0-9]+):.*// fires: ([a-z_:]+)$|\1 \2 error|' | sort -u)

if [ "$found" != "$expected" ]; then
    echo "FAIL: the fixture's diagnostics differ from its markers (< expected, > raised):" >&2
    diff <(echo "$expected") <(echo "$found") >&2 || true
    status=1
fi
echo "$found"
[ "$status" -eq 0 ] && echo "determinism lints: $(echo "$expected" | wc -l) marked lines raise their lint; nothing else fires"
exit "$status"
