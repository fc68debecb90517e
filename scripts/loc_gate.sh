#!/usr/bin/env bash
# LOC gate, three ratchets:
#   1. no source file under crates/**/src/ may grow past MAX_LINES;
#   2. every crate's non-test src/ lines (the lines before each file's
#      first `#[cfg(test)]`) must *equal* its budget in
#      scripts/loc_budget.txt. Over budget fails: delete code, or raise
#      the number in the same diff, where a reviewer sees it. Under budget
#      fails too: lower the number in the same diff, or the deletion goes
#      unratcheted and can be regrown for free;
#   3. the reader-facing documents (DOCS below) together must equal the
#      `markdown` row of the same file, under the same rule.
#
# The PR that decomposed the monolithic allocator (gallatin.rs peaked at
# 1,633 lines) installed this so the next monolith gets caught in review
# instead of accreting. Split a failing file along its tier/module seams
# rather than raising the limit.
set -euo pipefail

MAX_LINES=${MAX_LINES:-900}
cd "$(dirname "$0")/.."

scan() {
    find crates -path '*/src/*' -name '*.rs' | sort
}

# Recursion self-test: the scan must reach files nested below a crate's
# src/ root (src/<module>/<file>.rs). If a future edit to the find
# expression silently stops recursing, deep modules like tiers/ and
# serve/ would drop out of the gate without anyone noticing — fail loudly
# here instead.
for probe in \
    crates/core/src/tiers/segment.rs \
    crates/bench/src/serve/engine.rs \
    crates/bench/src/experiments/ablation.rs; do
    if ! scan | grep -qx "$probe"; then
        echo "LOC gate: self-test failed — scan does not reach $probe (recursion broken?)" >&2
        exit 1
    fi
done

status=0
scanned=0
while IFS= read -r f; do
    scanned=$((scanned + 1))
    lines=$(wc -l <"$f")
    if [ "$lines" -gt "$MAX_LINES" ]; then
        echo "LOC gate: $f has $lines lines (limit $MAX_LINES) — split it along module seams" >&2
        status=1
    fi
done < <(scan)

# Per-crate budget of non-test lines.
BUDGET_FILE=scripts/loc_budget.txt
DOCS=(README.md DESIGN.md EXPERIMENTS.md TESTING.md)
# Hold `name`'s `lines` to its `budget` row, either way.
check_budget() {
    local name=$1 lines=$2 budget=$3 what=$4
    if [ -z "$budget" ]; then
        echo "LOC gate: $name has no budget in $BUDGET_FILE — add its current count" >&2
        status=1
    elif [ "$lines" -gt "$budget" ]; then
        echo "LOC gate: $name has $lines $what (budget $budget) — delete lines, or raise the budget in $BUDGET_FILE in this diff" >&2
        status=1
    elif [ "$lines" -lt "$budget" ]; then
        echo "LOC gate: $name is at $lines $what, under its budget of $budget — lower it to $lines in $BUDGET_FILE in this diff" >&2
        status=1
    fi
}
non_test_lines() {
    awk 'FNR == 1 { counting = 1 } /#\[cfg\(test\)\]/ { counting = 0 } counting { n++ } END { print n + 0 }' "$@"
}
budgeted=0
budget_total=0
for crate in crates/*/; do
    crate=${crate%/}
    budget=$(awk -v c="$crate" '$1 == c { print $2 }' "$BUDGET_FILE")
    mapfile -t files < <(scan | grep "^$crate/src/")
    check_budget "$crate" "$(non_test_lines "${files[@]}")" "$budget" "non-test src lines"
    [ -z "$budget" ] && continue
    budgeted=$((budgeted + 1))
    budget_total=$((budget_total + budget))
done
docs_budget=$(awk '$1 == "markdown" { print $2 }' "$BUDGET_FILE")
docs_lines=$(cat "${DOCS[@]}" | wc -l)
check_budget markdown "$docs_lines" "$docs_budget" "lines in ${DOCS[*]}"

# A budget row must name a live crate: a row that outlives its crate would
# let the crate be regrown later without anyone setting its number.
while read -r crate _; do
    if [ "$crate" != markdown ] && [ ! -d "$crate" ]; then
        echo "LOC gate: $BUDGET_FILE budgets $crate, which does not exist — delete the row" >&2
        status=1
    fi
done < <(grep -v '^#' "$BUDGET_FILE")

if [ "$status" -eq 0 ]; then
    echo "LOC gate: $scanned crates/**/src/*.rs files within $MAX_LINES lines, $budgeted crates at budget, $budget_total budgeted non-test src lines in total, $docs_lines markdown lines at budget"
fi
exit "$status"
