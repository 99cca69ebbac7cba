#!/usr/bin/env bash
# Repo-wide checks: formatting, lints (warnings are errors), docs (warnings
# are errors), full test suite, and a tiny-scale smoke-run of the whole
# experiment suite. Run from anywhere; CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."
repo_dir="$PWD"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q

echo "==> perfbench tests (the benchmark builds the sim API unchanged)"
# perfbench is a workspace of its own, so the run above skips it; a sim API
# change that breaks the benchmark must fail here, not in the benchmark run.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> multi-query scheduler suite"
# Already part of the full run above, but named here so a scheduler
# regression fails loudly under its own heading.
cargo test -q -p gpu-join \
    --test scheduler_equivalence --test scheduler_fairness \
    --test failure_injection --test trace_invariants --test metrics_invariants

echo "==> serving-control property suite (admission, queueing, plan cache)"
# The scheduling-policy property suite: work conservation, shed-only-when-
# full, SJF ordering, plan-cache byte-identity, export byte-identity across
# reruns under every policy.
cargo test -q -p gpu-join --test admission_invariants

echo "==> bench smoke-run (run_all --scale 14)"
# run_all writes results/ into the cwd; run from a scratch dir so the
# checked-in results/ stays untouched.
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
if ! (cd "$smoke_dir" \
    && cargo run --release --quiet --manifest-path "$repo_dir/Cargo.toml" \
        -p bench --bin run_all -- --scale 14 --reps 1 --trace trace.json \
        --explain explain.json >run_all.log 2>&1); then
    echo "bench smoke-run failed; tail of log:"
    tail -40 "$smoke_dir/run_all.log"
    exit 1
fi
test -s "$smoke_dir/results/summary.md" || {
    echo "bench smoke-run produced no summary.md"
    exit 1
}
for json in "$smoke_dir"/results/*.json; do
    grep -q '"rows"' "$json" || {
        echo "bench smoke-run: $(basename "$json") has no rows"
        exit 1
    }
done
echo "    $(ls "$smoke_dir/results" | wc -l) result files, all with rows"

# Operator fusion must pay for itself in the smoke run: at every swept
# selectivity the fused plan launches strictly fewer kernels than the
# unfused ablation baseline (the DRAM-saving floor is asserted inside the
# experiment itself).
fusion_json="$smoke_dir/results/ablation_fusion.json"
test -s "$fusion_json" || {
    echo "bench smoke-run produced no ablation_fusion.json"
    exit 1
}
if command -v jq >/dev/null 2>&1; then
    fusion_bad=$(jq '[.rows[] | select(.fused_launches >= .unfused_launches)] | length' \
        "$fusion_json")
else
    fusion_bad=$(python3 -c "
import json, sys
rows = json.load(open(sys.argv[1]))['rows']
print(sum(1 for r in rows if r['fused_launches'] >= r['unfused_launches']))" \
        "$fusion_json")
fi
[ "$fusion_bad" -eq 0 ] || {
    echo "ablation_fusion: $fusion_bad row(s) where fusion does not launch fewer kernels"
    exit 1
}
echo "    ablation_fusion: fused plans launch fewer kernels at every selectivity"

# The --trace export must be valid, non-empty Chrome trace JSON (and the
# JSONL sibling non-empty too).
test -s "$smoke_dir/trace.json" || {
    echo "bench smoke-run produced no trace.json"
    exit 1
}
test -s "$smoke_dir/trace.jsonl" || {
    echo "bench smoke-run produced no trace.jsonl"
    exit 1
}
if command -v jq >/dev/null 2>&1; then
    events=$(jq '.traceEvents | length' "$smoke_dir/trace.json")
else
    events=$(python3 -c \
        "import json,sys; print(len(json.load(open(sys.argv[1]))['traceEvents']))" \
        "$smoke_dir/trace.json")
fi
[ "$events" -gt 0 ] || {
    echo "trace.json parsed but has no traceEvents"
    exit 1
}
echo "    trace.json valid with $events events"

# The --explain export must be valid JSON with recorded queries and the
# per-kernel roofline analysis.
test -s "$smoke_dir/explain.json" || {
    echo "bench smoke-run produced no explain.json"
    exit 1
}
if command -v jq >/dev/null 2>&1; then
    explain_queries=$(jq '.queries | length' "$smoke_dir/explain.json")
    explain_kernels=$(jq '.kernels | length' "$smoke_dir/explain.json")
else
    explain_queries=$(python3 -c \
        "import json,sys; print(len(json.load(open(sys.argv[1]))['queries']))" \
        "$smoke_dir/explain.json")
    explain_kernels=$(python3 -c \
        "import json,sys; print(len(json.load(open(sys.argv[1]))['kernels']))" \
        "$smoke_dir/explain.json")
fi
[ "$explain_queries" -gt 0 ] || {
    echo "explain.json parsed but records no queries"
    exit 1
}
[ "$explain_kernels" -gt 0 ] || {
    echo "explain.json parsed but has no kernel analysis"
    exit 1
}
echo "    explain.json valid with $explain_queries queries, $explain_kernels kernels"

echo "==> perf-regression gate (vs results/smoke14)"
# Simulated numbers are deterministic, so the smoke results must match the
# checked-in baselines to 1%; wall-clock (CPU) fields are exempt. A
# deliberate cost-model change updates results/smoke14/ in the same commit.
cargo run --release --quiet -p bench --bin bench_gate -- \
    --baseline "$repo_dir/results/smoke14" --fresh "$smoke_dir/results"

echo "==> multi-query smoke (m01_multi_query --scale 14)"
(cd "$smoke_dir" \
    && cargo run --release --quiet --manifest-path "$repo_dir/Cargo.toml" \
        -p bench --bin m01_multi_query -- --scale 14 --reps 1 >m01.log 2>&1) || {
    echo "m01_multi_query smoke failed; tail of log:"
    tail -40 "$smoke_dir/m01.log"
    exit 1
}
grep -q "budgets hold" "$smoke_dir/m01.log" || {
    echo "m01_multi_query smoke: missing budget finding in output"
    exit 1
}
echo "==> SQL frontend smoke (q_tpch --scale 14)"
(cd "$smoke_dir" \
    && cargo run --release --quiet --manifest-path "$repo_dir/Cargo.toml" \
        -p bench --bin q_tpch -- --scale 14 --reps 1 \
        --explain q_tpch_explain.json >q_tpch.log 2>&1) || {
    echo "q_tpch smoke failed; tail of log:"
    tail -40 "$smoke_dir/q_tpch.log"
    exit 1
}
# The lowering must print its composite-key decisions and both queries
# must execute (fused == unfused is asserted inside the binary).
grep -q "GROUP BY (o_orderkey, o_orderdate, o_shippriority): PACK" \
    "$smoke_dir/q_tpch.log" || {
    echo "q_tpch smoke: Q3 composite GROUP BY decision missing from output"
    exit 1
}
grep -q "ORDER BY (revenue desc, o_orderdate): PACK" "$smoke_dir/q_tpch.log" || {
    echo "q_tpch smoke: Q3 packed ORDER BY decision missing from output"
    exit 1
}
# Its --explain export must be valid JSON recording both queries.
python3 - "$smoke_dir/q_tpch_explain.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
names = [q["query"] for q in doc["queries"]]
assert "q_tpch Q3" in names and "q_tpch Q18" in names, names
assert doc["kernels"], "no kernel analysis"
for q in doc["queries"]:
    assert q["tree"].strip(), f"{q['query']}: empty plan tree"
PY
echo "    q_tpch: Q3/Q18 from SQL, composite decisions printed, explain JSON valid"

echo "==> serving smoke (m02_serving --scale 14 --metrics)"
(cd "$smoke_dir" \
    && cargo run --release --quiet --manifest-path "$repo_dir/Cargo.toml" \
        -p bench --bin m02_serving -- --scale 14 --reps 1 \
        --metrics metrics.json >m02.log 2>&1) || {
    echo "m02_serving smoke failed; tail of log:"
    tail -40 "$smoke_dir/m02.log"
    exit 1
}
grep -q "saturates at the calibrated capacity" "$smoke_dir/m02.log" || {
    echo "m02_serving smoke: missing saturation finding in output"
    exit 1
}
# The --metrics exports must parse (JSON and OpenMetrics), and every
# cumulative series/counter must be monotone: totals never decrease across
# samples, and histogram bucket counts are cumulative in `le`.
test -s "$smoke_dir/metrics.json" || {
    echo "m02_serving smoke produced no metrics.json"
    exit 1
}
test -s "$smoke_dir/metrics.om" || {
    echo "m02_serving smoke produced no metrics.om"
    exit 1
}
python3 - "$smoke_dir/metrics.json" "$smoke_dir/metrics.om" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["devices"], "metrics.json records no devices"
for dev in doc["devices"]:
    for s in dev["series"]:
        ts = [p[0] for p in s["points"]]
        assert ts == sorted(ts), f"{s['name']}: unsorted timestamps"
        if s["name"].endswith("_total"):
            vs = [p[1] for p in s["points"]]
            assert vs == sorted(vs), f"{s['name']}: cumulative series decreased"
    for h in dev["histograms"]:
        counts = [b["count"] for b in h["buckets"]]
        assert sum(counts) == h["count"], f"{h['name']}: bucket counts != count"
om = open(sys.argv[2]).read()
assert om.endswith("# EOF\n"), "OpenMetrics export must end with # EOF"
lines = [l for l in om.splitlines() if l and not l.startswith("#")]
assert lines, "OpenMetrics export has no samples"
for l in lines:
    float(l.rsplit(" ", 1)[1])  # every sample line ends with a number
# Cumulative _bucket counts must be non-decreasing within each labelset.
from collections import defaultdict
buckets = defaultdict(list)
for l in lines:
    name_labels, value = l.rsplit(" ", 1)
    if "_bucket{" in name_labels:
        key = name_labels.split(",le=")[0]
        buckets[key].append(float(value))
assert buckets, "no histogram bucket samples"
for key, vs in buckets.items():
    assert vs == sorted(vs), f"{key}: non-cumulative bucket counts"
print(f"    metrics exports valid: {len(doc['devices'])} devices, "
      f"{len(lines)} OpenMetrics samples, cumulative series monotone")
PY

echo "==> admission smoke (m03_admission --scale 14 --metrics --explain)"
(cd "$smoke_dir" \
    && cargo run --release --quiet --manifest-path "$repo_dir/Cargo.toml" \
        -p bench --bin m03_admission -- --scale 14 --reps 1 \
        --metrics metrics_m03.json --explain explain_m03.json \
        >m03.log 2>&1) || {
    echo "m03_admission smoke failed; tail of log:"
    tail -40 "$smoke_dir/m03.log"
    exit 1
}
# Rerun determinism: a second run of the same configuration must export
# byte-identical metrics. Retire-triggered admissions under the SJF
# policies land in queue-depth series and admission timestamps, so this
# catches any scheduling decision that depends on host timing.
(cd "$smoke_dir" \
    && cargo run --release --quiet --manifest-path "$repo_dir/Cargo.toml" \
        -p bench --bin m03_admission -- --scale 14 --reps 1 \
        --metrics metrics_m03_rerun.json >m03_rerun.log 2>&1) || {
    echo "m03_admission rerun failed; tail of log:"
    tail -40 "$smoke_dir/m03_rerun.log"
    exit 1
}
cmp "$smoke_dir/metrics_m03.json" "$smoke_dir/metrics_m03_rerun.json" || {
    echo "m03_admission smoke: metrics export differs across reruns"
    exit 1
}
echo "    m03 metrics export byte-identical across reruns"
# The three headline findings: the SJF p99 win at equal goodput, the
# shed/reject accounting, and the plan-cache hit rates.
grep -q "SJF cuts the short class's p99" "$smoke_dir/m03.log" || {
    echo "m03_admission smoke: missing SJF-vs-FIFO finding in output"
    exit 1
}
grep -q "rejects both doomed arrivals" "$smoke_dir/m03.log" || {
    echo "m03_admission smoke: missing admission-control finding in output"
    exit 1
}
grep -q "plan cache sized for the mix" "$smoke_dir/m03.log" || {
    echo "m03_admission smoke: missing plan-cache finding in output"
    exit 1
}
# The --metrics export must carry the admission and plan-cache counter
# families with the exact totals the experiment asserts on its reports.
test -s "$smoke_dir/metrics_m03.json" || {
    echo "m03_admission smoke produced no metrics_m03.json"
    exit 1
}
python3 - "$smoke_dir/metrics_m03.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
totals = {}
for dev in doc["devices"]:
    for c in dev["counters"]:
        key = (c["name"], tuple(sorted(c.get("labels", {}).items())))
        totals[key] = totals.get(key, 0) + c["value"]
def total(name, **labels):
    return totals.get((name, tuple(sorted(labels.items()))), 0)
assert total("query_shed_total", **{"class": "burst"}) == 7, totals
assert total("query_rejected_total", **{"class": "doomed"}) == 2, totals
assert total("query_completed_total", **{"class": "burst"}) == 3, totals
hits = total("plan_cache_hits_total")
misses = total("plan_cache_misses_total")
evictions = total("plan_cache_evictions_total")
assert (hits, misses, evictions) == (9, 15, 10), (hits, misses, evictions)
print(f"    metrics_m03 valid: shed 7 / rejected 2 / completed 3, "
      f"cache {hits} hits / {misses} misses / {evictions} evictions")
PY
# The --explain export must record the cache-hit query with its cache
# provenance line.
python3 - "$smoke_dir/explain_m03.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
hit = [q for q in doc["queries"] if q["query"] == "m03 q18 (plan cache hit)"]
assert hit, [q["query"] for q in doc["queries"]]
assert "plan cache: hit" in hit[0]["tree"], hit[0]["tree"]
assert doc["kernels"], "no kernel analysis"
print("    explain_m03 valid: cache-hit EXPLAIN carries its provenance line")
PY

echo "==> SLO smoke (m04_slo --scale 14 --trace --metrics --digest)"
(cd "$smoke_dir" \
    && cargo run --release --quiet --manifest-path "$repo_dir/Cargo.toml" \
        -p bench --bin m04_slo -- --scale 14 --reps 1 \
        --trace trace_m04.json --metrics metrics_m04.json \
        --digest digest.json >m04.log 2>&1) || {
    echo "m04_slo smoke failed; tail of log:"
    tail -40 "$smoke_dir/m04.log"
    exit 1
}
# The headline finding: slow-query attribution flips from execution to
# queueing as offered load crosses the calibrated capacity.
grep -q "attribution flips execute->queue across capacity" \
    "$smoke_dir/m04.log" || {
    echo "m04_slo smoke: missing attribution-flip finding in output"
    exit 1
}
# The --digest export must parse, every slow-query attribution must
# partition its query's latency exactly, the reported dominant stage must
# match the attribution, the saturated step must blame the queue, and the
# SLO counters in the metrics export must account every completed query.
test -s "$smoke_dir/digest.json" || {
    echo "m04_slo smoke produced no digest.json"
    exit 1
}
test -s "$smoke_dir/digest.txt" || {
    echo "m04_slo smoke produced no digest.txt"
    exit 1
}
python3 - "$smoke_dir/digest.json" "$smoke_dir/metrics_m04.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
sections = doc["sections"]
assert sections, "digest.json records no sections"
stages = {"queue": "queue_ns", "planning": "planning_ns",
          "exec": "exec_ns", "interference": "interference_ns"}
slow_total = 0
for sec in sections:
    d = sec["digest"]
    assert d["queries"] > 0, f"{sec['label']}: no completed queries"
    for r in d["slow"]:
        a = r["attribution"]
        total = sum(a[k] for k in stages.values())
        assert total == r["latency_ns"], (
            f"{sec['label']} q{r['query']}: attribution {total} != "
            f"latency {r['latency_ns']}")
        assert a[stages[r["dominant_stage"]]] == max(a.values()), (
            f"{sec['label']} q{r['query']}: dominant stage "
            f"{r['dominant_stage']} is not the attribution max")
    slow_total += len(d["slow"])
assert slow_total > 0, "no slow queries across the whole sweep"
worst = sections[-1]["digest"]["slow"]
assert worst and worst[0]["dominant_stage"] == "queue", (
    "saturated step must pin the worst miss on the queue")
mdoc = json.load(open(sys.argv[2]))
checked = 0
for dev in mdoc["devices"]:
    tot = {}
    for c in dev["counters"]:
        key = (c["name"], tuple(sorted(c.get("labels", {}).items())))
        tot[key] = tot.get(key, 0) + c["value"]
    for (name, labels), v in list(tot.items()):
        if name != "slo_met_total":
            continue
        missed = tot.get(("slo_missed_total", labels), 0)
        done = tot.get(("query_completed_total", labels), 0)
        assert v + missed == done, (name, labels, v, missed, done)
        checked += 1
assert checked > 0, "metrics_m04.json carries no per-class SLO counters"
print(f"    digest valid: {len(sections)} sections, {slow_total} slow queries, "
      f"attributions exact, SLO counters account {checked} classes")
PY

# Keep the smoke trace, explain report and fresh results where CI can pick
# them up as artifacts (and where `bench_gate`'s default --fresh finds them).
mkdir -p "$repo_dir/target/smoke"
cp "$smoke_dir/trace.json" "$smoke_dir/trace.jsonl" "$smoke_dir/explain.json" \
    "$smoke_dir/metrics.json" "$smoke_dir/metrics.om" \
    "$smoke_dir/digest.json" "$smoke_dir/digest.txt" \
    "$repo_dir/target/smoke/"
rm -rf "$repo_dir/target/smoke/results"
cp -r "$smoke_dir/results" "$repo_dir/target/smoke/results"

echo "All checks passed."
