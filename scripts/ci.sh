#!/usr/bin/env bash
# The offline gate: tier-1, every workspace test, and the end-to-end smokes.
#
# Everything here must pass with NO network access: the workspace has
# zero registry dependencies (the randomized proptest suites are gated
# behind the off-by-default `proptests` feature precisely so this holds;
# see README "Tests").
#
# Usage: scripts/ci.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== line budget: crates/*/src may not grow"
# ROADMAP item 9: the same behaviour from less code. The first count is
# held to its value when this stage was added (PR 21). A PR that shrinks
# crates/*/src lowers the constant; one that has to grow it raises the
# constant and says why on this line.
src_budget=32679  # -4: every figure reads PI2_SEED; the renderers take their seed from the row (+5), grid.rs names its default seed once and seeds cells from any base (+8), the validate grid carries its seed (+3), and fig14 builds its TCP group once in place of once per panel (-13), fig06's config drops its seed field and literals (-7), the rest even
src_lines="$(find crates/*/src -name '*.rs' -print0 | xargs -0 cat | wc -l)"
all_lines="$(find crates tests examples src -name '*.rs' -print0 | xargs -0 cat | wc -l)"
echo "Rust lines: crates/*/src $src_lines (budget $src_budget), crates tests examples src $all_lines"
if [ "$src_lines" -gt "$src_budget" ]; then
    echo "FAIL: crates/*/src grew past its budget of $src_budget lines" >&2
    exit 1
fi

echo "== tier-1: release build"
cargo build --release

echo "== tier-1: tests"
# tests/repo_invariants.rs holds the structure guards (no Sim assembled
# outside Scenario::build, no sort in Summary, one perf instrument).
cargo test -q

echo "== examples: each runs in release, exits 0 and prints something"
# Tier-1 compiles examples/ but runs none of them. All five together take
# about half a second.
cargo build -q --release --examples
for src in examples/*.rs; do
    ex="$(basename "$src" .rs)"
    ex_out="$(target/release/examples/"$ex")" || {
        echo "FAIL: example $ex exited non-zero" >&2
        exit 1
    }
    if [ -z "$ex_out" ]; then
        echo "FAIL: example $ex printed nothing" >&2
        exit 1
    fi
done

echo "== workspace tests (release: some tests simulate minutes of traffic)"
# Includes the allocation contract, one test binary each: zero_alloc (the
# engine's steady-state loop makes no allocator call) and zero_alloc_sinks
# (nor does it with the JSONL, CSV and Perfetto sinks attached). And the
# cost ratios that hold on any host, crates/bench/tests/cost_ratios.rs:
# metrics on / off <= 1.15 and PIE / PI2 in [0.9, 2.0] per packet, fluid at
# 100 000 flows faster than packet at 1 000 -- each the median of paired
# runs in one process. Absolute cost is benchmark/'s business. And, in
# pi2-fluid, column_kernels_equal_the_scalar_law_bit_for_bit: the one pin
# on how the hybrid coupling's tick_external rounds (the 1 001-class cmp
# below covers step only, and a hybrid CLI cell prints two decimals).
cargo test --workspace --release -q

echo "== frozen benchmark still builds and runs against crates/"
# benchmark/ is its own offline package compiled against the public API
# of crates/ and may not be edited alongside them: an API change that
# breaks it must fail here, not in the pipeline that runs it later.
# --release: the frozen calibration kernel sums with wrapping u64
# arithmetic, which a debug build turns into an overflow panic.
cargo test --offline -q --release --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --quick

echo "== traced+audited smoke run: every trace format parses, invariants hold"
trace_out="$(mktemp -t pi2_trace_smoke.XXXXXX.jsonl)"
trace_log="$(mktemp -t pi2_trace_smoke.XXXXXX.log)"
trap 'rm -f "$trace_out" "$trace_out.csv" "$trace_out.perfetto.json" "$trace_log"' EXIT
# --audit attaches the runtime invariant auditor even in this release
# build: conservation, clock monotonicity, probability bounds, and (for
# pi2) the squaring law are checked on every event, and any violation
# panics with the replay seed.
cargo run -q -p pi2-bench --release --bin pi2sim -- \
    --aqm pi2 --rate 10M --flows 2xreno --secs 8 --warmup 2 \
    --audit --trace-out "$trace_out" | tee "$trace_log"
# Non-empty, and pi2sim's own re-parse matched the counting sink it
# attached beside the file: every flow's totals and the AQM ticks.
test -s "$trace_out"
grep -q '^{"ev":' "$trace_out"
grep -q '"ev":"aqm"' "$trace_out"
grep -q 'trace verified:' "$trace_log"
grep -q 'audit: all invariants held' "$trace_log"
# The same run in the other two formats: the CSV is one rectangular table
# under pi2_netsim::trace::CSV_HEADER. (The Perfetto timeline's structure
# is tests/obs_server.rs's: the golden and an annotated family cell.)
smoke_trace() {  # <format> <file>
    cargo run -q -p pi2-bench --release --bin pi2sim -- \
        --aqm pi2 --rate 10M --flows 2xreno --secs 8 --warmup 2 \
        --trace-format "$1" --trace-out "$2" > /dev/null
}
smoke_trace csv "$trace_out.csv"
smoke_trace perfetto "$trace_out.perfetto.json"
test "$(head -n 1 "$trace_out.csv")" = \
    "event,t_ns,flow,seq,ecn,prob,sojourn_ns,p_prime,aqm_prob,scalable_prob,alpha_term,beta_term,burst_ns,est_rate_Bps,qdelay_ns"
awk -F, 'NF != 15 { print "ragged CSV row " NR ": " $0; exit 1 }' "$trace_out.csv"
# The header, then one row per JSONL line.
test "$(wc -l < "$trace_out.csv")" -eq "$(( $(wc -l < "$trace_out") + 1 ))"
test -s "$trace_out.perfetto.json"
rm -f "$trace_out.csv" "$trace_out.perfetto.json"
# A multi-hop cell's file holds hop 0's stream, and verifies against it.
cargo run -q -p pi2-bench --release --bin pi2sim -- \
    --scenario topology/parking-lot-3 --aqm dualq --seed 9 \
    --trace-out "$trace_out" > "$trace_log"
grep -q 'trace verified:' "$trace_log"

echo "== every --aqm name builds, runs and audits clean"
# cli::AQMS is the one --aqm name -> configuration table; the usage text
# lists its names joined by '|'. Every row must survive a short run with
# the invariant auditor attached.
aqm_names="$(cargo run -q -p pi2-bench --release --bin pi2sim -- --help 2>&1 \
    | sed -n 's/^ *--aqm <name> *one of \([^ ]*\) .*/\1/p' | tr '|' ' ')"
test -n "$aqm_names"
for aqm in $aqm_names; do
    aqm_log="$(cargo run -q -p pi2-bench --release --bin pi2sim -- \
        --aqm "$aqm" --secs 2 --warmup 1 --audit)"
    grep -q 'audit: all invariants held' <<< "$aqm_log"
done

echo "== metrics+profile smoke run: both snapshot formats are written"
# What the two snapshots hold is judged where they are written:
# tests/metrics_obs.rs parses Registry::to_json (schema, sections,
# histogram fields) and lints Registry::to_prometheus, which pi2sim also
# lints before writing it.
metrics_json="$(mktemp -t pi2_metrics_smoke.XXXXXX.json)"
metrics_prom="$(mktemp -t pi2_metrics_smoke.XXXXXX.prom)"
profile_log="$(mktemp -t pi2_profile_smoke.XXXXXX.log)"
trap 'rm -f "$trace_out" "$trace_log" "$metrics_json" "$metrics_prom" "$profile_log"' EXIT
cargo run -q -p pi2-bench --release --bin pi2sim -- \
    --aqm pi2 --rate 10M --flows 2xreno --secs 5 --warmup 1 \
    --profile --metrics-out "$metrics_json" | tee "$profile_log"
grep -q '# event-loop profile' "$profile_log"
grep -q 'metrics snapshot:' "$profile_log"
cargo run -q -p pi2-bench --release --bin pi2sim -- \
    --aqm pi2 --rate 10M --flows 2xreno --secs 5 --warmup 1 \
    --metrics-out "$metrics_prom" --metrics-format prom > /dev/null
grep -q '^{"schema":1,' "$metrics_json"
grep -q '^# TYPE ' "$metrics_prom"

echo "== sweep determinism smoke: 1, 2 and 4 workers must match bit-for-bit"
# The grid at 2 s per cell, and the two families whose cells are not alike
# (ext_dynamics twice, once under seeded weather; ext_topology audited):
# both ignore PI2_SECS and run at the archive's length.
for t in 1 2 4; do
    PI2_SECS=2 PI2_THREADS="$t" cargo run -q -p pi2-bench --release --bin pi2fig -- \
        grid_all ext_dynamics ext_topology > "/tmp/pi2_sweep_$t.txt" 2> /dev/null
done
diff /tmp/pi2_sweep_1.txt /tmp/pi2_sweep_2.txt
diff /tmp/pi2_sweep_1.txt /tmp/pi2_sweep_4.txt
rm -f /tmp/pi2_sweep_1.txt /tmp/pi2_sweep_2.txt /tmp/pi2_sweep_4.txt

echo "== archive matches code: every archived figure, full scale, byte for byte"
# results/<id>.txt is what `pi2fig <id>` prints at the default knobs, for
# every row `pi2fig list` marks archived (id is the first field, the mark
# the fourth). Each is regenerated at full scale — about 20 s of wall
# time on two cores for all 29, which is why this is an exact cmp and
# not a reduced-length shape comparison — with PI2_SECS / PI2_SEED unset
# whatever the caller exported. A mismatch means a change moved a
# figure's numbers: regenerate the file with the command printed below
# and re-read every number README / EXPERIMENTS.md quote from it. One row
# is the model-agreement grid (crates/validate/src/differential.rs): 7
# cells run once each on the packet engine, 13 (cell, model) pairs —
# delay-ODE, flow-level engine, hybrid mode — judged against them. The
# row exits non-zero if any metric leaves its band; its archive holds the
# achieved disagreement beside each band, so a validated number that
# moves *inside* its band is a diff here, not a silent pass.
fig_list="$(env -u PI2_SECS -u PI2_SEED target/release/pi2fig list)"
fig_ids="$(awk '{ print $1 }' <<< "$fig_list")"
archived_ids="$(awk '$4 == "archived" { print $1 }' <<< "$fig_list")"
test "$(wc -w <<< "$archived_ids")" -ge 29
fig_out="$(mktemp -t pi2_fig.XXXXXX.txt)"
archive_matches() {  # <results file> <command...>: its stdout is the file
    local file="$1" rc=0
    shift
    env -u PI2_SECS -u PI2_SEED "$@" > "$fig_out" 2> /dev/null || rc=$?
    if [ "$rc" -ne 0 ] || ! cmp -s "$fig_out" "$file"; then
        echo "FAIL: $file is not what the code prints (exit $rc, first differences below);" >&2
        echo "      regenerate: env -u PI2_SECS -u PI2_SEED $* > $file" >&2
        diff "$file" "$fig_out" | head -20 >&2 || true
        rm -f "$fig_out"
        exit 1
    fi
}
for id in $archived_ids; do
    archive_matches "results/$id.txt" target/release/pi2fig "$id"
done
# Every figure is a function of its seed: at PI2_SEED=2 each archived row
# whose `pi2fig list` line shows a default seed (the third field) must
# print something other than its archive, and the rows that run no
# simulation ("-") exactly their archive. Every row still exits 0, so
# validate_grid's bands judge a second draw. About 17 s on two cores.
seeded_ids="$(awk '$4 == "archived" && $3 != "-" { print $1 }' <<< "$fig_list")"
test "$(wc -w <<< "$seeded_ids")" -ge 26
for id in $archived_ids; do
    rc=0
    env -u PI2_SECS PI2_SEED=2 target/release/pi2fig "$id" > "$fig_out" 2> /dev/null || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "FAIL: pi2fig $id exits $rc at PI2_SEED=2" >&2
        exit 1
    fi
    moved=no
    cmp -s "$fig_out" "results/$id.txt" || moved=yes
    want=no
    grep -qx "$id" <<< "$seeded_ids" && want=yes
    if [ "$moved" != "$want" ]; then
        echo "FAIL: pi2fig $id at PI2_SEED=2: moved from results/$id.txt: $moved, reads the seed: $want" >&2
        exit 1
    fi
done
rm -f "$fig_out"
# An id that is not in the table is a usage error (exit 2), not a panic.
rc=0; target/release/pi2fig no_such_figure > /dev/null 2>&1 || rc=$?
test "$rc" -eq 2

echo "== DESIGN.md index: every figure id is a bench target, every target exists"
# DESIGN.md §4's "Bench target" column (the last one of its tables) names
# `pi2fig <id>` rows and binaries. Every id the table has must be named
# there, and every name there must be an id or a binary.
targets="$(sed -n '/^## 4\. /,/^## 5\. /p' DESIGN.md \
    | awk -F'|' '/^\|/ { print $(NF-1) }' | grep -oE '`[^`]+`' | tr -d '`')"
for id in $fig_ids; do
    if ! grep -qx "pi2fig $id" <<< "$targets"; then
        echo "FAIL: DESIGN.md section 4 has no bench target \`pi2fig $id\`" >&2
        exit 1
    fi
done
while read -r target; do
    case "$target" in
        "pi2fig "*) grep -qx "${target#pi2fig }" <<< "$fig_ids" ;;
        *) test -f "crates/bench/src/bin/$target.rs" ;;
    esac || {
        echo "FAIL: DESIGN.md section 4 names bench target \`$target\`, which does not exist" >&2
        exit 1
    }
done <<< "$targets"

echo "== checkpoint round-trip smoke: save at t/2, restore, diff vs straight-through"
# The restore⇄replay determinism oracle (tests/checkpoint.rs) in CLI
# form: a run snapshotted at 4 s and restored into a fresh process must
# finish with byte-identical metrics JSON to the run that never stopped.
# The audited restore leg also re-verifies every invariant from the
# restored state onward.
ckpt_dir="$(mktemp -d -t pi2_ckpt_smoke.XXXXXX)"
trap 'rm -rf "$trace_out" "$trace_log" "$metrics_json" "$metrics_prom" "$profile_log" "$ckpt_dir"' EXIT
ckpt_args=(--aqm pi2 --rate 10M --flows 2xreno,1xdctcp --secs 8 --warmup 2 --seed 7 --audit)
cargo run -q -p pi2-bench --release --bin pi2sim -- \
    "${ckpt_args[@]}" --metrics-out "$ckpt_dir/straight.json" > /dev/null
cargo run -q -p pi2-bench --release --bin pi2sim -- \
    "${ckpt_args[@]}" --checkpoint-out "$ckpt_dir/mid.ckpt" --checkpoint-at 4s \
    --metrics-out "$ckpt_dir/saver.json" > /dev/null
test -s "$ckpt_dir/mid.ckpt"
# Saving mid-run must not perturb the saving run itself...
diff "$ckpt_dir/straight.json" "$ckpt_dir/saver.json"
# ...and the restored run must land on the identical end state. Its
# trace starts at the restore point and verifies against that stream.
cargo run -q -p pi2-bench --release --bin pi2sim -- \
    "${ckpt_args[@]}" --restore "$ckpt_dir/mid.ckpt" --trace-out "$ckpt_dir/restored.jsonl" \
    --metrics-out "$ckpt_dir/restored.json" > "$ckpt_dir/restore.log"
grep -q '^# restored' "$ckpt_dir/restore.log"
grep -q 'trace verified:' "$ckpt_dir/restore.log"
diff "$ckpt_dir/straight.json" "$ckpt_dir/restored.json"
rm -rf "$ckpt_dir"

bin="$PWD/target/release"

echo "== live ops smoke: a served family cell, perfetto export, bit-identity"
# A family cell is a single run: behind --serve it must be scrapeable over
# HTTP (obs_get is the workspace's std-TcpStream client — no curl in the CI
# image) with stdout and Perfetto timeline byte-equal to the unserved run.
# PI2_SERVE_HOLD keeps the final snapshots alive until GET /quit so the
# end-of-run scrapes are race-free.
live_dir="$(mktemp -d -t pi2_live_smoke.XXXXXX)"
trap 'rm -rf "$trace_out" "$trace_log" "$metrics_json" "$metrics_prom" "$profile_log" "$live_dir"' EXIT
live_cell=(--scenario dynamics/rate-step --aqm pi2 --seed 4 --trace-format perfetto)
( cd "$live_dir" && "$bin/pi2sim" "${live_cell[@]}" --trace-out ref.perfetto.json \
    > ref.stdout 2> /dev/null )
( cd "$live_dir" && PI2_SERVE_HOLD=1 exec "$bin/pi2sim" "${live_cell[@]}" \
    --trace-out srv.perfetto.json --serve 127.0.0.1:0 > srv.stdout 2> srv.stderr ) &
srv_pid=$!
addr=""
for _ in $(seq 1 200); do
    addr="$(sed -n 's|^# pi2sim: serving http://\([0-9.:]*\)/.*|\1|p' "$live_dir/srv.stderr" 2>/dev/null)"
    [ -n "$addr" ] && break
    sleep 0.1
done
test -n "$addr"
"$bin/obs_get" "$addr" /healthz > /dev/null
for _ in $(seq 1 600); do
    grep -q 'holding for GET /quit' "$live_dir/srv.stderr" && break
    sleep 0.1
done
grep -q 'holding for GET /quit' "$live_dir/srv.stderr"
"$bin/obs_get" "$addr" /progress | grep -q '"fraction":1'
"$bin/obs_get" "$addr" /metrics > "$live_dir/scraped.prom"
grep -q '^# TYPE ' "$live_dir/scraped.prom"
"$bin/obs_get" "$addr" /quit > /dev/null
wait "$srv_pid"
cmp "$live_dir/ref.stdout" "$live_dir/srv.stdout"
cmp "$live_dir/ref.perfetto.json" "$live_dir/srv.perfetto.json"
rm -rf "$live_dir"

echo "== served cancel/resume audit: /cancel checkpoints, exit 130, restore matches"
# Graceful cancel end-to-end: a served single run cancelled over HTTP
# must exit 130 leaving an auto-checkpoint (default pi2sim-cancel.ckpt
# in the working directory — run from the scratch dir), and restoring it
# must land on the exact metrics of the run that was never cancelled.
cxl_dir="$(mktemp -d -t pi2_cancel_smoke.XXXXXX)"
trap 'rm -rf "$trace_out" "$trace_log" "$metrics_json" "$metrics_prom" "$profile_log" "$cxl_dir"' EXIT
# 3 sim-hours ≈ a few wall-seconds: long enough that the /cancel issued
# right after bind always lands mid-run (it typically hits t ≈ 2 sim-min,
# ~1% in), short enough to keep the straight and resumed legs cheap.
cxl_args=(--aqm pi2 --rate 10M --flows 2xreno,1xdctcp --secs 10800 --warmup 2 --seed 7)
"$bin/pi2sim" "${cxl_args[@]}" --metrics-out "$cxl_dir/straight.json" \
    > "$cxl_dir/straight.stdout"
( cd "$cxl_dir" && exec "$bin/pi2sim" "${cxl_args[@]}" --serve 127.0.0.1:0 \
    > served.stdout 2> served.stderr ) &
run_pid=$!
addr=""
for _ in $(seq 1 200); do
    addr="$(sed -n 's|^# pi2sim: serving http://\([0-9.:]*\)/.*|\1|p' "$cxl_dir/served.stderr" 2>/dev/null)"
    [ -n "$addr" ] && break
    sleep 0.05
done
test -n "$addr"
"$bin/obs_get" "$addr" /cancel > /dev/null
rc=0; wait "$run_pid" || rc=$?
test "$rc" -eq 130
grep -q 'cancelled at t=' "$cxl_dir/served.stderr"
test -s "$cxl_dir/pi2sim-cancel.ckpt"
"$bin/pi2sim" "${cxl_args[@]}" --restore "$cxl_dir/pi2sim-cancel.ckpt" \
    --metrics-out "$cxl_dir/resumed.json" > "$cxl_dir/resumed.stdout" 2> /dev/null
grep -q '^# restored' "$cxl_dir/resumed.stdout"
diff "$cxl_dir/straight.json" "$cxl_dir/resumed.json"
rm -rf "$cxl_dir"

echo "== hybrid/fluid backend smoke: CLI sweep, 100k-flow fluid run"
# (Agreement of the fluid and hybrid backends with the packet engine is
# the validate_grid row of the archive stage above; the identity and
# determinism oracles of tests/hybrid.rs ran with tier-1.)
hyb_dir="$(mktemp -d -t pi2_hybrid_smoke.XXXXXX)"
trap 'rm -rf "$trace_out" "$trace_log" "$metrics_json" "$metrics_prom" "$profile_log" "$hyb_dir"' EXIT
# Small hybrid sweep over the CLI: 2 packet foreground flows riding on an
# 8-flow fluid background; the summary must report the aggregate served.
"$bin/pi2sim" --aqm pi2 --rate 10M --flows 2xreno --secs 8 --warmup 2 \
    --seed 7 --backend hybrid --bg-flows 8xreno > "$hyb_dir/hybrid.txt"
grep -q '^background: 8 fluid flows' "$hyb_dir/hybrid.txt"
# A zero RTT reaches the flow-level engine from the command line: it is a
# usage error (exit 2, one line on stderr) on both paths, not the engine's
# assert.
zero_rtt_is_a_usage_error() {
    local rc=0
    "$bin/pi2sim" "$@" --rtt 0ms --secs 20 \
        > /dev/null 2> "$hyb_dir/zero_rtt.stderr" || rc=$?
    test "$rc" -eq 2
    test "$(wc -l < "$hyb_dir/zero_rtt.stderr")" -eq 1
    grep -q 'positive base RTT' "$hyb_dir/zero_rtt.stderr"
}
zero_rtt_is_a_usage_error --backend fluid
zero_rtt_is_a_usage_error --backend hybrid --bg-flows 100xreno
# Time-boxed 100k-flow fluid run: a population 100x beyond the packet
# backend's practical reach must finish within a 60 s wall budget (it
# takes milliseconds — the engine's cost is per class, not per flow).
timeout 60 "$bin/pi2sim" --backend fluid --aqm pi2 --rate 10G \
    --flows 100000xreno --secs 20 --warmup 5 --seed 7 > "$hyb_dir/fluid.txt"
grep -q '^# pi2sim: backend=fluid' "$hyb_dir/fluid.txt"
grep -q '^flows: 100000 across' "$hyb_dir/fluid.txt"
# 1 001 classes (mixed counts, Reno and DCTCP alternating, one capped
# UDP class): the one-class runs above never exercise the allocator's
# order. Its stdout, trajectory included, must stay byte-equal to
# results/fluid_1kclass_ref.txt, captured from the build before the
# engine started keeping its water-filling order between steps — so a
# change in how the fill rounds cannot land silently. Only the wall time
# on the "flows:" line is dropped.
kclass_flows=""
for i in $(seq 1 500); do
    kclass_flows+="$((5 + i % 7))xreno,$((3 + i % 11))xdctcp,"
done
"$bin/pi2sim" --backend fluid --aqm coupled --rate 40G --rtt 20ms \
    --flows "${kclass_flows%,}" --udp 2M --secs 10 --warmup 5 --seed 7 --csv \
    | sed 's/, wall [0-9.]* s$//' > "$hyb_dir/fluid_1kclass.txt"
grep -q '^flows: 7988 across 1001 classes' "$hyb_dir/fluid_1kclass.txt"
cmp "$hyb_dir/fluid_1kclass.txt" results/fluid_1kclass_ref.txt
rm -rf "$hyb_dir"

echo "== randomized proptests (vendored shim; time-boxed via PROPTEST_CASES)"
# Each case can simulate minutes of traffic, so CI clamps the case count;
# nightly / local runs can raise it (PROPTEST_CASES=32 scripts/ci.sh).
for p in pi2-aqm pi2-experiments pi2-fluid pi2-netsim pi2-simcore \
         pi2-transport pi2-validate; do
    PROPTEST_CASES="${PROPTEST_CASES:-2}" \
        cargo test -q -p "$p" --release --features proptests --test proptests
done
# pi2-stats simulates nothing: a case is microseconds, two of them test
# nothing, and selection against the stable sort is decided on columns of
# thousands of samples. A fixed 2 000 cases, under a second, whatever the
# clamp.
PROPTEST_CASES=2000 \
    cargo test -q -p pi2-stats --release --features proptests --test proptests

echo "== ci.sh: all green"
