#!/usr/bin/env bash
# Local CI gate, stage-addressable so the CI workflow can run stages as
# separate jobs. No Python anywhere. The end-to-end benchmark of record
# is perfbench (see perfbench/README.md); the bench stage here is only
# the live-dashboard smoke run.
#
# Usage: scripts/check.sh [build|test|lint|reconfig|bench|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

build() {
    echo "==> cargo build --release"
    cargo build --release --workspace
}

test_stage() {
    echo "==> cargo test"
    cargo test --workspace -q

    echo "==> obs-schema gate (exporter JSON-lines shapes match the golden file)"
    cargo test --release -p hetnet-cac --test obs_schema -q

    echo "==> snapshot gate (state snapshot round-trip + pinned golden file)"
    cargo test --release -p hetnet-cac --test snapshot_roundtrip -q

    echo "==> recovery gate (faulted runs replay bit-identically from checkpoints)"
    cargo test --release -p hetnet-service --test churn_replay -q

    echo "==> dense-evaluator golden gate (150 paper-style churn decisions bit-identical to the pinned audit)"
    cargo test --release -p hetnet-service --test dense_golden -q

    echo "==> closure-oracle gate (closure-scoped grid decisions match a full-network evaluation)"
    cargo test --release -p hetnet-service --test closure_oracle -q

    echo "==> observability gate (sharded runs with full tracing stay decision-identical)"
    cargo test --release -p hetnet-service --test sharded_replay -q

    echo "==> metrics single-source gate (reports equal their registry snapshot and the audit log)"
    cargo test --release -p hetnet-service --test metrics_single_source -q
}

reconfig() {
    echo "==> reconfig certification (retuned state bit-identical to a fresh engine + pinned golden)"
    cargo test --release -p hetnet-cac --test reconfig -q

    echo "==> reconfig recovery gate (checkpointed runs replay through reconfigurations bit for bit)"
    cargo test --release -p hetnet-service --test reconfig_replay -q

    echo "==> autotune sweep/bisection unit gate"
    cargo test --release -p hetnet-sim autotune -q
}

lint() {
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (warnings denied)"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> deprecated-API gate (legacy request/request_fixed removed from the public API)"
    # The wrappers are gone; nothing may reintroduce them or re-open the
    # allow(deprecated) quarantine they used to need.
    if grep -rnE "fn request(_fixed)?\(|allow\(deprecated\)" --include="*.rs" \
        crates src tests examples; then
        echo "FAIL: legacy request/request_fixed surface reintroduced"
        exit 1
    fi
    echo "ok: no deprecated-API escapes"

    echo "==> single-metrics-store gate (per-decision metrics live only in the registry)"
    # Each decision is written once, to the metrics registry; the
    # parallel stores it replaced must not come back.
    if grep -rnE "DecisionObserver|CacheGauges|FastPathGauges|LatencyHistogram" --include="*.rs" \
        crates src tests examples; then
        echo "FAIL: a second per-decision metrics store reintroduced"
        exit 1
    fi
    echo "ok: one metrics store"

    echo "==> one-event-loop gate (both engines run the one EventCore)"
    # The event order, faults, parking, reconfiguration and sampling are
    # written once, in the shared core; a second copy of the event loop
    # must not come back.
    for f in advance_to pop_departure apply_fault component_down component_up \
        deadline_shrink readmit_parked offer_sample apply_reconfig; do
        n=$( (grep -rE "fn $f[(<]" --include="*.rs" crates/service/src || true) | wc -l)
        if [ "$n" -ne 1 ]; then
            echo "FAIL: fn $f is defined $n times under crates/service/src (want 1)"
            exit 1
        fi
    done
    echo "ok: one event loop"

    echo "==> one-admission-state gate (the sharded engine keeps the flat state behind its ledger)"
    # Both engines hold their admitted set in one NetworkState; the
    # sharded engine adds only a commit ledger. A second copy of the
    # state's bookkeeping, or the per-shard store and cut it replaced,
    # must not come back.
    for f in validate_component crosses replay_tables; do
        n=$( (grep -rE "fn $f[(<]" --include="*.rs" crates/core/src || true) | wc -l)
        if [ "$n" -ne 1 ]; then
            echo "FAIL: fn $f is defined $n times under crates/core/src (want 1)"
            exit 1
        fi
    done
    if grep -rnE "RingShard|ShardedCut|ShardCut|LedgerCut" crates; then
        echo "FAIL: a per-shard admission store or cut reintroduced"
        exit 1
    fi
    echo "ok: one admission state"

    echo "==> one-state-loader gate (restore and sharded speculation build state one way)"
    # Every admitted set reaches a NetworkState through one validated
    # loader, NetworkState::load: a restore and each sharded speculation
    # alike. The per-decision scoped constructor, the evaluator-cache
    # hand-off around it, and the duplicate FIFO multiplexer analysis
    # must not come back.
    if grep -rnE "fn scoped\(|take_eval_cache|inject_eval_cache|CarriedCache|analyze_mux" \
        --include="*.rs" crates; then
        echo "FAIL: a second state loader, the carried-cache protocol or analyze_mux reintroduced"
        exit 1
    fi
    for f in "replay_tables(" "Membership::rebuild("; do
        all=$(for src in crates/core/src/*.rs; do
            awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$src"
        done | grep -F "$f" | grep -vE "fn replay_tables\(|^[[:space:]]*//" | wc -l)
        in_load=$(awk '/fn load\(/ { on = 1 } on { print } on && /^    }$/ { exit }' \
            crates/core/src/cac.rs | grep -cF "$f" || true)
        if [ "$all" -ne 1 ] || [ "$in_load" -ne 1 ]; then
            echo "FAIL: $f has $all non-test call sites under crates/core/src," \
                "$in_load in NetworkState::load (want exactly one, there)"
            exit 1
        fi
    done
    echo "ok: one state loader"

    echo "==> one-deadline-check gate (every admission decision runs the one pipeline)"
    # Both policies, β-search steps 2 and 5 and reconfiguration share one
    # all-deadlines check, `Scope::check`, the screened one, whatever the
    # tracing flag; a second copy of the check or of the per-policy
    # admission paths must not come back. The one dense evaluation
    # explains a verdict already made: it lives in `fn explain`, and
    # neither `check` nor anything else in `Scope` reads the flag.
    for f in "evaluate_screened(" "evaluate_full("; do
        n=$(grep -cF "$f" crates/core/src/cac.rs || true)
        if [ "$n" -ne 1 ]; then
            echo "FAIL: $f appears $n times in crates/core/src/cac.rs (want 1)"
            exit 1
        fi
    done
    in_explain=$(awk '/^fn explain\(/ { on = 1 } on { print } on && /^}$/ { exit }' \
        crates/core/src/cac.rs | grep -cF "evaluate_full(" || true)
    if [ "$in_explain" -ne 1 ]; then
        echo "FAIL: the dense evaluate_full( call is not inside fn explain in crates/core/src/cac.rs"
        exit 1
    fi
    if ! grep -qE "^    fn check\(&mut self, at: Pair\) ->" crates/core/src/cac.rs; then
        echo "FAIL: Scope::check takes more than its pair (a mode flag is back)"
        exit 1
    fi
    scope_flag=$(awk '/^impl<.a> Scope<.a> \{/ { on = 1 } on { print } on && /^}$/ { exit }' \
        crates/core/src/cac.rs | grep -cE "tracing|trace_decisions|traced" || true)
    if [ "$scope_flag" -ne 0 ]; then
        echo "FAIL: Scope reads the decision-tracing flag ($scope_flag lines)"
        exit 1
    fi
    if grep -rnE "fn admit_beta|fn admit_fixed|fn feasible_with|FixedCheck" --include="*.rs" crates; then
        echo "FAIL: a per-policy admission path reintroduced"
        exit 1
    fi
    echo "ok: one deadline check"

    echo "==> one-mac-table-path gate (source-MAC output tables come from the busy-interval memo)"
    # The evaluator builds every source-MAC output table from the memo of
    # its busy interval, and a flattened table's corners and monotonicity
    # are derived in one constructor shared by both ways of building one;
    # a per-probe flatten of the MAC output or a second derivation must
    # not come back.
    if grep -nE "flatten\(mac\.output" crates/core/src/delay.rs; then
        echo "FAIL: crates/core/src/delay.rs flattens the MAC output per probe again"
        exit 1
    fi
    n=$(grep -cF ".flatten_with(" crates/core/src/delay.rs || true)
    if [ "$n" -ne 1 ]; then
        echo "FAIL: .flatten_with( appears $n times in crates/core/src/delay.rs (want 1)"
        exit 1
    fi
    for f in "let nondecreasing =" "natural.dedup_by("; do
        n=$( (grep -rF "$f" --include="*.rs" crates/traffic/src || true) | wc -l)
        if [ "$n" -ne 1 ]; then
            echo "FAIL: '$f' appears $n times under crates/traffic/src (want 1)"
            exit 1
        fi
    done
    echo "ok: one MAC table path"

    echo "==> one-busy-search gate (one busy-interval loop; the step-window kernel lives inside it)"
    # Every server analysis searches its busy interval in one loop, which
    # builds one candidate grid per iteration unless the step-window kernel
    # settles the iteration first. A second search loop, the kernel called
    # from anywhere else, or the step-end check it replaced must not come
    # back.
    for f in find_busy_interval step_window_iteration; do
        n=$( (grep -rE "fn $f[(<]" --include="*.rs" crates/traffic/src || true) | wc -l)
        if [ "$n" -ne 1 ]; then
            echo "FAIL: fn $f is defined $n times under crates/traffic/src (want 1)"
            exit 1
        fi
    done
    retired=$( (grep -rsnE "fn violated_below_step_ends\b" --include="*.rs" crates src tests || true) | wc -l)
    if [ "$retired" -ne 0 ]; then
        echo "FAIL: the retired step-end check violated_below_step_ends is defined again"
        exit 1
    fi
    search=$(awk '/^fn find_busy_interval\(/ { on = 1 } on { print } on && /^}$/ { exit }' \
        crates/traffic/src/analysis.rs | grep -vE "^[[:space:]]*//")
    calls=$(for src in crates/traffic/src/*.rs; do
        [ "$(basename "$src")" = exactness.rs ] && continue
        awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$src"
    done | grep -F "step_window_iteration(" \
        | grep -vE "fn step_window_iteration\(|^[[:space:]]*//" | wc -l)
    in_search=$(printf '%s\n' "$search" | grep -cF "step_window_iteration(" || true)
    if [ "$calls" -ne 1 ] || [ "$in_search" -ne 1 ]; then
        echo "FAIL: step_window_iteration( has $calls non-test call sites under" \
            "crates/traffic/src, $in_search in find_busy_interval (want exactly one, there)"
        exit 1
    fi
    grids=$(printf '%s\n' "$search" | grep -cF "candidate_times(" || true)
    if [ "$grids" -ne 1 ]; then
        echo "FAIL: find_busy_interval calls candidate_times( $grids times (want 1: one grid loop)"
        exit 1
    fi
    echo "ok: one busy search"

    echo "==> one-switch-point-path gate (one cap-crossing search, memoized and banded, no knobs)"
    # RateCapped::breakpoints finds its cap crossings with one bisection,
    # the banded one, whose proof covers every call; its memo and band
    # are bit-identical by construction, so nothing may switch them.
    # A second crossing search (the retired MinOf's, or a plain copy
    # beside the banded one) or a knob must not come back.
    n=$( (grep -vE "^[[:space:]]*//" crates/traffic/src/combinators.rs || true) \
        | grep -oE "(^|[^_a-z])bisect\(" | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "FAIL: crates/traffic/src/combinators.rs calls bisect( $n times (want 1: the crossing search)"
        exit 1
    fi
    if grep -rnw "MinOf" --include="*.rs" crates src tests examples; then
        echo "FAIL: MinOf is back"
        exit 1
    fi
    if grep -rnF "env::var" --include="*.rs" crates/traffic/src; then
        echo "FAIL: crates/traffic/src reads an environment variable"
        exit 1
    fi
    if awk '/^pub struct AnalysisConfig/ { on = 1 } on { print } on && /^}$/ { exit }' \
        crates/traffic/src/analysis.rs | grep -niE "memo|band"; then
        echo "FAIL: AnalysisConfig has a field that steers the breakpoint memo or the band"
        exit 1
    fi
    echo "ok: one switch-point path"

    echo "==> one-audit-equality gate (every certificate compares whole audit entries)"
    # Audit entries compare one way: entries_equivalent, behind
    # AuditEntry's ==, matches every field, reject details included, and
    # every certificate (recovery, sharded vs sequential, warm vs cold,
    # fast path on/off, traced vs untraced) uses it. A second audit-log
    # predicate, or a match that compares two rejections by class alone,
    # must not come back.
    n=$( (grep -rE "fn entries_equivalent\b" --include="*.rs" crates/service/src || true) | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "FAIL: fn entries_equivalent is defined $n times under crates/service/src (want 1)"
        exit 1
    fi
    if grep -rnE "fn (audits_equivalent|sharded_runs_equivalent)\b" --include="*.rs" crates src tests examples; then
        echo "FAIL: a second audit-log predicate is defined again"
        exit 1
    fi
    # A class-only comparison binds the class of two Rejected patterns,
    # on one line or on two adjacent lines.
    pairs=$( (grep -rnE "Rejected \{ class(: [A-Za-z_0-9]+)?, \.\. \}" --include="*.rs" crates tests || true) \
        | awk -F: '{ if (gsub(/Rejected \{ class/, "&") > 1 || ($1 == f && $2 == l + 1)) print; f = $1; l = $2 }')
    if [ -n "$pairs" ]; then
        printf '%s\n' "$pairs"
        echo "FAIL: two rejections compared by class alone"
        exit 1
    fi
    echo "ok: one audit equality"

    echo "==> one-region-solver gate (frontier tracer + dense oracle)"
    # The region module keeps two solvers over one dense loop, single-
    # threaded; the correctness certificates live in the test suite.
    # Neither the threaded sweep nor the re-run certificates and their
    # gates may come back.
    if grep -rnE "fn (sample_region_threads|sample_region_frontier|scheduler_des_validated|fault_gates|reconfig_gates)\b" \
        --include="*.rs" crates; then
        echo "FAIL: a retired region solver or bench certificate reintroduced"
        exit 1
    fi
    if grep -nF "std::thread" crates/core/src/region.rs; then
        echo "FAIL: crates/core/src/region.rs spawns threads again"
        exit 1
    fi
    echo "ok: one region solver"

    echo "==> one-experiment-driver gate (figures, ablation and autotune run through the service engine)"
    # Every experiment is a churn schedule through hetnet_service::run and
    # every baseline is an AllocationPolicy; the private arrival/departure
    # loops, their departure heaps and the policy shim must not come back.
    if grep -rnE "fn (run_admission_experiment|run_policy|request_with_policy|host_busy)\b" \
        --include="*.rs" crates; then
        echo "FAIL: a retired experiment driver or baseline shim reintroduced"
        exit 1
    fi
    if grep -rnF "BinaryHeap" crates/core/src crates/bench/src; then
        echo "FAIL: a private departure heap reintroduced outside the service engine"
        exit 1
    fi
    if grep -nF "hetnet-sim" crates/core/Cargo.toml; then
        echo "FAIL: hetnet-cac depends on hetnet-sim again"
        exit 1
    fi
    echo "ok: one experiment driver"

    echo "==> one-benchmark-of-record gate (perfbench is the only end-to-end benchmark)"
    # perfbench measures the CAC end to end against the parent commit.
    # The retired JSON pipeline (emitter binary, gate binary, pinned
    # result file) must not come back as a second benchmark.
    if find crates -path '*/src/bin/*' \( -name 'bench_json*' -o -name 'bench_gate*' \) | grep .; then
        echo "FAIL: a bench_json or bench_gate binary reintroduced"
        exit 1
    fi
    if grep -rn "BENCH_[r]egion" crates scripts .github; then
        echo "FAIL: a reference to the retired pinned benchmark file reintroduced"
        exit 1
    fi
    if find . \( -path ./target -o -path ./.git -o -path './.bench_*' \) -prune -o \
        -name 'BENCH_[r]egion*.json' -print | grep .; then
        echo "FAIL: a pinned benchmark result file reintroduced"
        exit 1
    fi
    echo "ok: one benchmark of record"
}

bench() {
    echo "==> hetnet_top smoke (live telemetry dashboard renders over a short sharded run)"
    cargo run --release -p hetnet-bench --bin hetnet_top -- \
        --rings 16 --requests 400 --rate 30 --period 5 --plain
}

case "$stage" in
    build) build ;;
    test) test_stage ;;
    lint) lint ;;
    reconfig) reconfig ;;
    bench) bench ;;
    all)
        build
        test_stage
        reconfig
        lint
        bench
        echo "==> all checks passed"
        ;;
    *)
        echo "usage: scripts/check.sh [build|test|lint|reconfig|bench|all]" >&2
        exit 2
        ;;
esac
