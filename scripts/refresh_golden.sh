#!/usr/bin/env bash
# Re-bless the golden traces after an INTENTIONAL behavior change.
#
# The golden tests (`tests/trace_streaming.rs::golden_trace_for_small_scenario`,
# `::golden_trace_for_impaired_scenario`,
# `::golden_trace_for_parking_lot_scenario` and
# `tests/obs_server.rs::perfetto_export_of_golden_parking_lot_round_trips`)
# pin a tiny seeded scenario's trace byte for byte — on a clean
# single-hop path in all three export formats (JSONL, CSV, Perfetto
# JSON), under the seeded fault-injection weather layer, and on a 3-hop
# parking-lot chain (hop-0 event stream plus per-hop flow-byte rows, and
# the all-hop Perfetto timeline). When a change legitimately moves a
# trace (new event field, AQM retune, impairment draw-order change), run
# this script: it saves the old goldens, regenerates under PI2_BLESS=1,
# prints the diffs for review, and refuses to commit anything itself —
# inspect the diffs, then `git add` the new goldens deliberately.
#
# Usage: scripts/refresh_golden.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

goldens=(
    tests/golden/trace_small.jsonl
    tests/golden/trace_small.csv
    tests/golden/trace_small.perfetto.json
    tests/golden/trace_small_impaired.jsonl
    tests/golden/trace_parking_lot.jsonl
    tests/golden/trace_parking_lot.perfetto.json
)

tmpdir="$(mktemp -d -t pi2_golden_old.XXXXXX)"
trap 'rm -rf "$tmpdir"' EXIT
fresh=()
for golden in "${goldens[@]}"; do
    if [[ -f "$golden" ]]; then
        cp "$golden" "$tmpdir/$(basename "$golden")"
    else
        echo "refresh_golden: no $golden yet; creating it fresh" >&2
        fresh+=("$golden")
    fi
done

PI2_BLESS=1 cargo test -q --test trace_streaming golden
PI2_BLESS=1 cargo test -q --test obs_server perfetto

changed=0
for golden in "${goldens[@]}"; do
    old="$tmpdir/$(basename "$golden")"
    if [[ ! -f "$old" ]]; then
        echo "refresh_golden: wrote $(wc -l < "$golden") lines to $golden (new)"
        continue
    fi
    if diff -q "$old" "$golden" > /dev/null; then
        echo "refresh_golden: $golden unchanged ($(wc -l < "$golden") lines)"
        continue
    fi
    changed=1
    echo "refresh_golden: $golden CHANGED — review before committing:"
    echo "--------------------------------------------------------------"
    diff -u "$old" "$golden" | head -80 || true
    n_changed=$(diff "$old" "$golden" | grep -c '^[<>]' || true)
    echo "--------------------------------------------------------------"
    echo "refresh_golden: $n_changed changed lines (diff truncated at 80)"
done

if [[ "$changed" = 1 ]]; then
    echo "refresh_golden: if this matches the intended behavior change:"
    echo "  git add ${goldens[*]}"
fi
