#!/usr/bin/env bash
# check.sh — the repository's full verification gate, as run in CI and by
# `make verify`: formatting, go vet, the shadowvet static-analysis suite
# (simulator determinism + DRAM-protocol invariants), the build, and the
# test suite under the race detector.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l cmd internal examples ./*.go)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

# The -json report and the SARIF log are kept as CI artifacts so a reviewer
# can diff findings across runs (and a forge can render inline annotations)
# without re-running the suite. shadowvet exits non-zero on any finding,
# which aborts the gate via set -e; tee still leaves the report behind for
# inspection. The full-tree pass is also held to a wall-clock budget in a
# non-fatal warning lane below: the suite now builds a module-wide call
# graph (allocflow/detflow), and lint latency creeping past the budget must
# be visible without blocking correctness fixes.
echo "==> shadowvet"
SHADOWVET_BUDGET_SECONDS=${SHADOWVET_BUDGET_SECONDS:-120}
shadowvet_start=$(date +%s)
go run ./cmd/shadowvet -json ./... | tee shadowvet-report.json
go run ./cmd/shadowvet -sarif ./... > shadowvet.sarif
shadowvet_elapsed=$(( $(date +%s) - shadowvet_start ))
echo "shadowvet: full-tree pass (json + sarif) took ${shadowvet_elapsed}s (budget ${SHADOWVET_BUDGET_SECONDS}s)"
if [ "$shadowvet_elapsed" -gt "$SHADOWVET_BUDGET_SECONDS" ]; then
    echo "WARNING: shadowvet wall clock ${shadowvet_elapsed}s exceeds the ${SHADOWVET_BUDGET_SECONDS}s lint budget (non-fatal; profile the analyzers or the call-graph build)" >&2
fi

# The span tracker sits on the memory controller's critical path; gate it
# explicitly so a future package move can't silently drop it from the
# determinism analyzer's restricted set.
echo "==> shadowvet (span tracker)"
go run ./cmd/shadowvet ./internal/obs/span

# The flight recorder is teed into the same hot path (every DRAM command
# passes through Ring.Record); hold it to the same explicit gate.
echo "==> shadowvet (flight recorder)"
go run ./cmd/shadowvet ./internal/obs/flight

# Self-check: the analyzer framework — including the cfg package the
# flow-sensitive analyzers are built on — must pass its own suite. Gated
# by name so a refactor of internal/analysis can't waive itself out.
echo "==> shadowvet (self-check)"
go run ./cmd/shadowvet ./internal/analysis/...

# Static concurrency checking (lockflow/goroleak/sharedflow above) and
# dynamic checking gate together: a fast, focused race lane over the
# packages that actually spawn goroutines (the exp sweep workers, the obs
# inspector serving HTTP during a run) runs before the full race sweep at
# the end, so concurrency regressions fail in seconds, not minutes.
echo "==> go test -race (concurrency-focused lane)"
go test -race ./internal/exp/... ./internal/obs/...

# examples/ is built but (deliberately) excluded from layering: it sits above
# internal/ like cmd/. Gate it explicitly so the demos keep passing the rest
# of the suite — panic messages, command-error handling, lock hygiene.
echo "==> shadowvet (examples)"
go run ./cmd/shadowvet ./examples/...

# The scheduler matrix — {event-cache, full-rescan} x {event-wheel,
# per-tick} — must stay bit-identical to the retained double-oracle
# (full-rescan + per-tick) for every mitigation scheme (Stats, flips, span
# blame, command log). The suite runs inside `go test ./...` too; gating it
# by name keeps the contract visible and the failure mode unambiguous when
# someone touches the readiness cache or a readiness lower bound.
echo "==> scheduler equivalence (2x2 matrix)"
go test -run 'TestSchedulerEquivalence' ./internal/sim/

# The reproduced-results digest and the tracker contracts. The digest pins
# every figure's simulated numbers across changes; it skips itself under the
# race detector, so this uninstrumented lane is where the gate runs it. The
# heap-backed Space-Saving tracker must match its map-scan oracle op for op
# and stay allocation-free (the dynamic side of its allocflow roots). Each
# test must report PASS by name, so a rename or deletion cannot drop it
# quietly.
require_pass() {
    local pkg=$1 out t
    shift
    out=$(go test -count=1 -v -run "^($(IFS='|'; echo "$*"))\$" "$pkg") || { echo "$out"; exit 1; }
    for t in "$@"; do
        if ! grep -q -- "^--- PASS: $t " <<<"$out"; then
            echo "$out"
            echo "check.sh: $t did not run and pass in $pkg" >&2
            exit 1
        fi
        echo "ok  $pkg $t"
    done
}
echo "==> results digest + tracker contracts"
require_pass ./internal/exp/ TestResultsDigest
require_pass ./internal/mitigate/ TestTrackerMatchesReference TestTrackerZeroAllocs

echo "==> go test -race"
go test -race ./...

# The telemetry overhead budget is a wall-clock gate; race-detector
# instrumentation multiplies mutex cost, so it self-skips above and is
# enforced here on the uninstrumented build.
echo "==> telemetry overhead budget"
go test -run 'TestTelemetryOverheadBudget' -v . | grep -E 'overhead|PASS|FAIL|ok '

# Every benchmark once, gated on exit status, never on timing: a benchmark
# that panics, errors, or trips BenchmarkSim's mitigation-activity assertion
# fails the gate. Timing comparisons belong to `bash _perfbench/run.sh`,
# which runs both sides on one host.
echo "==> benchmarks (one iteration each)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "OK"
