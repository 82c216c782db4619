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

    echo "==> hetnet-obs compiles out cleanly (--no-default-features)"
    cargo build --release -p hetnet-obs --no-default-features
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

    echo "==> one-deadline-check gate (every admission decision runs the one pipeline)"
    # Both policies, β-search steps 2 and 5 and reconfiguration share one
    # all-deadlines check, `Scope::check`; a second copy of the check or
    # of the per-policy admission paths must not come back.
    for f in "evaluate_screened(" "evaluate_full("; do
        n=$(grep -cF "$f" crates/core/src/cac.rs || true)
        if [ "$n" -ne 1 ]; then
            echo "FAIL: $f appears $n times in crates/core/src/cac.rs (want 1)"
            exit 1
        fi
    done
    if grep -rnE "fn admit_beta|fn admit_fixed|fn feasible_with|FixedCheck" --include="*.rs" crates; then
        echo "FAIL: a per-policy admission path reintroduced"
        exit 1
    fi
    echo "ok: one deadline check"

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
