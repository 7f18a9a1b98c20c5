#!/usr/bin/env bash
# Byte-compare preset and config-file CSV and JSON output of a git ref
# against the working tree.
#
#   tools/csv_identity.sh BASE_REF
#
# Extracts BASE_REF (git archive) and the working tree (tracked and
# untracked, non-ignored files) into a temporary directory and runs the same
# outputs in each at seed 0: the presets (fig2-fig5 approximate MI at 1e5
# trials per point; exact MI at 4000 for fig2, asynchronous at N 5 and 10
# across the inter-relay interference sweep, fig4, asynchronous, fig3,
# synchronous, and fig5, whose weak second hop gives a selection relay a
# smaller cross-term ratio; fig5 at 1e5 trials once more as JSON; fig2 under
# approximate MI at 1e5 and fig4 under exact MI at 4000 once more with
# --workers 2, whose estimates run in two processes); the working tree's
# tools/scenario.json, which sends integral floats for counts and pinned
# delays through --config (approximate MI at 1e5 trials, exact MI at 4000);
# its tools/scenario_wide.json, 32 synchronous relays over an 8-bin block,
# whose exact-MI chunk forms no spectrum: the closed-form two-tap rate reads
# the coherent sum of the 32 h_RD (exact MI at 4000); its short block makes
# it the one output here where a change of a two-tap block's relative-phase
# turn shows (at T = 500 the turn moves no flag at these trial counts); and
# its tools/scenario_ceiling.json, link means just under the
# config ceiling (approximate MI at 1e5 trials, exact MI at 4000).  Every call runs with RuntimeWarnings as errors, so a
# scenario that overflows or clamps fails the run instead of writing output.
# cmp's every CSV and JSON file and prints one line per file, naming for a
# CSV that differs the columns that changed and those that stayed identical
# (so an intended change of the random stream shows only mc_p and mc_stderr
# moving) and the schemes whose rows changed (so a change confined to os and
# ps rows shows no multi), and exits non-zero if any file differs or is
# missing.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REF" >&2
    exit 2
fi
repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base" "$tmp/work"
git -C "$repo" archive "$1" | tar -x -C "$tmp/base"
git -C "$repo" ls-files -z --cached --others --exclude-standard \
    | (cd "$repo" && tar --null --ignore-failed-read -T - -cf - 2>/dev/null) \
    | tar -x -C "$tmp/work"

run_outputs() {
    local tree=$1 scenario=$tmp/work/tools/scenario.json wide=$tmp/work/tools/scenario_wide.json
    local ceiling=$tmp/work/tools/scenario_ceiling.json
    mkdir -p "$tree/out"
    for fig in fig2 fig3 fig4 fig5; do
        (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --preset "$fig" \
            --trials 100000 --seed 0 --out "out/$fig.csv" >/dev/null)
    done
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --preset fig5 --format json \
        --trials 100000 --seed 0 --out out/fig5.json >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --preset fig2 --workers 2 \
        --trials 100000 --seed 0 --out out/fig2_workers2.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --preset fig2 --mi exact \
        --trials 4000 --seed 0 --out out/fig2_exact.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --preset fig4 --mi exact --workers 2 \
        --trials 4000 --seed 0 --out out/fig4_exact_workers2.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --preset fig4 --mi exact \
        --trials 4000 --seed 0 --out out/fig4_exact.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --preset fig3 --mi exact \
        --trials 4000 --seed 0 --out out/fig3_exact.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --preset fig5 --mi exact \
        --trials 4000 --seed 0 --out out/fig5_exact.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --config "$scenario" \
        --trials 100000 --seed 0 --out out/scenario.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --config "$scenario" --mi exact \
        --trials 4000 --seed 0 --out out/scenario_exact.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --config "$wide" --mi exact \
        --trials 4000 --seed 0 --out out/scenario_wide_exact.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --config "$ceiling" \
        --trials 100000 --seed 0 --out out/scenario_ceiling.csv >/dev/null)
    (cd "$tree" && PYTHONPATH=src python3 -m fdrelay.cli --config "$ceiling" --mi exact \
        --trials 4000 --seed 0 --out out/scenario_ceiling_exact.csv >/dev/null)
}

# "changed: ...; identical: ..." over the columns of two CSVs with one header
column_diff() {
    python3 - "$1" "$2" <<'PY'
import csv
import sys

tables = []
for path in sys.argv[1:]:
    with open(path, newline="") as f:
        tables.append(list(csv.reader(f)))
base, work = tables
if not base or not work or base[0] != work[0] or len(base) != len(work):
    print("header or row count differs")
    sys.exit()
rows = [(b, w) for b, w in zip(base[1:], work[1:]) if b != w]
moved = {j for b, w in rows for j, (x, y) in enumerate(zip(b, w)) if x != y}
names = base[0]
scheme = names.index("scheme") if "scheme" in names else None
schemes = dict.fromkeys(b[scheme] for b, _ in rows) if scheme is not None else {}
print("changed: " + ", ".join(n for j, n in enumerate(names) if j in moved)
      + "; identical: " + ", ".join(n for j, n in enumerate(names) if j not in moved)
      + "; schemes changed: " + (", ".join(schemes) or "none"))
PY
}

export PYTHONWARNINGS=error::RuntimeWarning
run_outputs "$tmp/base"
run_outputs "$tmp/work"

status=0
for f in "$tmp/base/out/"*.csv "$tmp/base/out/"*.json; do
    name=$(basename "$f")
    if cmp -s "$f" "$tmp/work/out/$name"; then
        echo "identical $name"
    elif [[ $name == *.csv ]]; then
        echo "DIFFERS   $name  $(column_diff "$f" "$tmp/work/out/$name")"
        status=1
    else
        echo "DIFFERS   $name"
        status=1
    fi
done
extra=$(cd "$tmp/work/out" && for f in *.csv *.json; do [ -e "$tmp/base/out/$f" ] || echo "$f"; done)
if [ -n "$extra" ]; then
    echo "only in working tree: $extra"
    status=1
fi
exit $status
