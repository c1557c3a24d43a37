#!/bin/sh
# Canonical tier-1 verification: hermetic (offline) build + test.
# The workspace has no external dependencies, so --offline must succeed
# with zero registry access; if it doesn't, a crate grew a non-path dep.
set -eu
cd "$(dirname "$0")/.."
# Two front ends — seacma, seacmad. A new experiment is a seacma-report
# Analysis (and lands in the golden below), not a binary.
[ "$(ls crates/*/src/bin/*.rs | wc -l)" -eq 2 ]
cargo build --release --offline
cargo test -q --offline
# Benchmark smoke: every workload of BENCHMARK.json at reduced size with
# every correctness gate on (daemon == offline replay, tracker == batch
# clustering, detector == linear oracle, snapshot → resume identity,
# run-to-run digests), then the benchmark package's own unit tests (in
# the target directory run.sh already built into). The package builds
# against crates/ by path, so an API break against benchmark/ fails
# tier-1 here. It replaces the per-layer `*_scaling --quick` smokes and
# the `detect_eval --quick` gate; each exactness gate those ran keeps a
# forall! twin inside `cargo test` above:
#   cluster_scaling (naive == indexed labels)
#       crates/vision/tests/proptests.rs
#   milking_scaling (simulate/merge == sequential at 1/2/8 workers)
#       crates/milker/src/scheduler.rs tests
#   tracker_scaling (incremental == batch at every epoch boundary)
#       crates/tracker/tests/proptests.rs
#   track-replay close (incremental close == full observation: summaries
#   and ledger at every boundary, one hand-built row per dirty rule)
#       crates/tracker/tests/proptests.rs
#       (incremental_close_equals_full_observation_at_every_boundary)
#   crawl_scaling (farm fast path == sequential full-render crawl)
#       crates/crawler/tests/proptests.rs
#   query_scaling (daemon == offline batch oracle, snapshot → resume)
#       crates/daemon/tests/props.rs
#   detect_eval (detector == linear oracle, snapshot → resume)
#       tests/detect_exactness.rs
#   e2e_scaling (symbol path == string reference at every boundary)
#       tests/sym_exactness.rs
benchmark/run.sh --smoke
CARGO_TARGET_DIR="$PWD/target" cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Allocation-regression gate, fed by the benchmark: one traced
# pipeline-sweep run at smoke size (crawl → cluster → track → milk →
# track at workers = 1 under the counting allocator). Each phase's
# allocation count is exact and identical run to run, and must not exceed
# the checked-in baseline by more than 10%; the summed phase wall time
# must stay under a generous sanity ceiling (~0.4 s on a dev box; 10 s
# catches a pathological slowdown without flaking on slow CI hardware).
# The same run's digest (FNV-1a of each world's final tracker state, i.e.
# every tracked dhash, plus its landing, campaign, source and discovery
# counts) is pinned beside the baseline: a kernel that drifts by one bit
# on this host, or under the instantiation this CPU selects, fails here.
run=$(mktemp) trace=$(mktemp)
benchmark/run.sh --workload pipeline-sweep --seed 42 --seconds 10 --trace 1 --smoke >"$run"
tail -n 1 "$run" >"$trace"
digest=$(sed -n 's/^wall .*; digest \([0-9a-f]*\);.*/\1/p' "$run")
pinned=$(sed -n 's/.*"digest": *"\([0-9a-f]*\)".*/\1/p' scripts/e2e_alloc_baseline.json)
if [ -z "$pinned" ] || [ "$digest" != "$pinned" ]; then
    echo "digest drift: traced pipeline-sweep --seed 42 --smoke reports '$digest'," \
        "scripts/e2e_alloc_baseline.json pins '$pinned'"
    exit 1
fi
echo "digest gate: $digest equals the pinned value"
awk '
    # The value of metric `name` in the one-line result object.
    function metric(line, name,    key, at, rest) {
        key = "\"" name "\":{\"value\":"
        at = index(line, key)
        if (!at) { printf "traced run reports no %s\n", name; bad = 1; return 0 }
        rest = substr(line, at + length(key))
        match(rest, /^[0-9.eE+-]+/)
        return substr(rest, 1, RLENGTH) + 0
    }
    FNR == NR {
        if (match($0, /"name": *"[^"]*"/)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/.*: *"/, "", name); sub(/"$/, "", name)
        }
        if (match($0, /"allocs": *[0-9]+/)) {
            a = substr($0, RSTART, RLENGTH)
            gsub(/[^0-9]/, "", a)
            base[name] = a + 0; names[++n] = name
        }
        next
    }
    {
        checked = 1
        if (!index($0, "\"correct\":true")) { print "traced run failed a correctness gate"; bad = 1 }
        for (k = 1; k <= n; k++) {
            a = metric($0, names[k])
            if (a > base[names[k]] * 1.10) {
                printf "alloc regression in %s: %d > %d +10%%\n", names[k], a, base[names[k]]; bad = 1
            } else { printf "alloc gate %-24s %8d (baseline %8d) ok\n", names[k], a, base[names[k]] }
        }
        split("crawl cluster track_crawl milk_sources milk track_milk", phases, " ")
        for (k in phases) wall += metric($0, "core." phases[k] "_ms")
        if (wall > 10000) { printf "pipeline wall-time sanity: %.1f ms > 10000 ms\n", wall; bad = 1 }
        else { printf "pipeline wall-time sanity: %.1f ms across all phases (< 10 s) ok\n", wall }
    }
    END {
        if (!checked) { print "traced run printed no result object"; bad = 1 }
        exit bad
    }
' scripts/e2e_alloc_baseline.json "$trace"
rm -f "$run" "$trace"
echo "benchmark smoke: every gate true, digest pinned, per-phase allocs within baseline"

# Daemon end-to-end smoke: boot seacmad over the simulated measurement,
# let the epoch loop drain, query, snapshot — then resume from that
# snapshot and re-issue the same queries. The two answer transcripts
# must be byte-identical (the daemon's restart story). The last two
# queries are malformed and must answer the same `{"error":…}` both times.
snap=$(mktemp) first=$(mktemp) second=$(mktemp)
trap 'rm -f "$snap" "$first" "$second"' EXIT
queries='url http://c0-0.club/lp
dhash 00000000000000000000000000000000
detect 00000000000000000000000000000000 3 4 phone,survey
campaign 0
status
detect 00000000000000000000000000000000 phone
dash x'
{
    sleep 2 # every epoch (10 ms each) has closed by now
    printf '%s\n' "$queries"
    printf 'snapshot %s\nquit\n' "$snap"
} | cargo run --release --offline -p seacma-daemon --bin seacmad -- \
        --seed 42 --epoch-ms 10 2>/dev/null | grep -v '"ok"' >"$first"
printf '%s\nquit\n' "$queries" \
    | cargo run --release --offline -p seacma-daemon --bin seacmad -- \
        --seed 42 --resume "$snap" 2>/dev/null >"$second"
diff "$first" "$second"
[ "$(grep -c '"error"' "$first")" -eq 2 ]
echo "daemon smoke: resumed answers byte-identical, both malformed queries answered as errors"

# Report smoke, through `seacma report`. (1) The text report of a seeded
# quick run must equal the checked-in golden — a drifted Table 1 count,
# Table 4 GSB rate or side-experiment headline (§4.4 ad-blocker, §4.5
# VirusTotal, §6 protection window, …) fails here with a table diff. No --bench-dir, so the
# two bench-fed sections read "(no data)" and refreshing benchmark/ never
# touches the golden. Regenerate after an intended change with
#   cargo run --release -p seacma-bench --bin seacma -- report --quick --seed 42 >REPORT_seed42.txt
# (2) Two HTML reports of the same run must be byte-identical (the
# report's determinism contract) and carry every section the text has.
# (3) Degenerate scale prints empty tables and exits 0.
seacma() { cargo run --release --offline -q -p seacma-bench --bin seacma -- "$@"; }
txt=$(mktemp) r1=$(mktemp) r2=$(mktemp)
trap 'rm -f "$snap" "$first" "$second" "$txt" "$r1" "$r2"' EXIT
seacma report --quick --seed 42 >"$txt"
diff REPORT_seed42.txt "$txt"
seacma report --quick --seed 42 --out "$r1" --bench-dir . 2>/dev/null
seacma report --quick --seed 42 --out "$r2" --bench-dir . 2>/dev/null
diff "$r1" "$r2"
ids=$(sed -n 's/^== \([a-z0-9-]*\): .* ==$/\1/p' "$txt")
[ -n "$ids" ]
for id in $ids; do
    grep -q "<section id=\"$id\">" "$r1"
done
seacma report --publishers 0 >/dev/null
echo "report smoke: text equals REPORT_seed42.txt, two HTML runs byte-identical with all" \
    "$(echo "$ids" | wc -l) sections, --publishers 0 exits 0"

# Detection-quality golden: the held-out precision/recall eval on its
# fixed world must reproduce the checked-in EVAL_detect.json byte for
# byte, so a change that moves a verdict cannot drift it unnoticed.
# Regenerate after an intended change with
#   cargo run --release -p seacma-bench --bin seacma -- eval --out EVAL_detect.json
seacma eval --out "$r1" >/dev/null
diff EVAL_detect.json "$r1"
echo "eval golden: seacma eval reproduces EVAL_detect.json"

# Export golden: the release of a seeded quick run (`seacma export`: the
# landing records, campaign clusters, milking outcome and representative
# screenshots) must reproduce the checked-in checksums, so a change to any
# codec the release is written through cannot drift it unnoticed.
# Regenerate after an intended change with
#   cargo run --release -p seacma-bench --bin seacma -- export --quick --seed 42 --out DIR
#   (cd DIR && cksum landings.jsonl campaigns.json milking.json screenshots/*.pgm) \
#       >scripts/export_seed42.cksum
release=$(mktemp -d)
trap 'rm -rf "$snap" "$first" "$second" "$txt" "$r1" "$r2" "$release"' EXIT
seacma export --quick --seed 42 --out "$release" >/dev/null
(cd "$release" && cksum landings.jsonl campaigns.json milking.json screenshots/*.pgm) \
    | diff scripts/export_seed42.cksum -
echo "export golden: seacma export --quick --seed 42 reproduces all" \
    "$(wc -l <scripts/export_seed42.cksum) checksums in scripts/export_seed42.cksum"

# The rustdoc gate: the public API documents warning-free (intra-doc
# links resolve, seacma-report's #![deny(missing_docs)] holds).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --quiet
echo "rustdoc gate: warning-free"

# ISSUE.md is per-PR scaffolding, not part of the artifact — a checkout
# without one must still verify clean.
[ -f ISSUE.md ] || echo "note: no ISSUE.md in this checkout (fine)"
