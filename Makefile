# Developer entry points. `make verify` is the full gate every PR must pass.

.PHONY: build test race race-focused vet lint fmt bench verify

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The concurrency-focused race lane: just the packages that spawn
# goroutines (exp sweep workers, the obs inspector). Pairs with the
# static concurrency analyzers (lockflow/goroleak/sharedflow) in `make
# lint` — run both when touching anything concurrent.
race-focused:
	go test -race ./internal/exp/... ./internal/obs/...

vet:
	go vet ./...
	go run ./cmd/shadowvet ./...

# shadowvet alone, for fast iteration on analyzer findings; `make vet` runs
# it behind go vet, `make verify` behind the whole gate.
lint:
	go run ./cmd/shadowvet ./...

fmt:
	gofmt -w cmd internal examples ./*.go

# Every benchmark with allocation counts, in the text format benchstat
# reads; for a before/after comparison run the same go test line with
# -count=10 on each side (see README "Observability & profiling").
# End-to-end and per-layer numbers come from the repository benchmark,
# `bash _perfbench/run.sh` (see BENCHMARK.json).
bench:
	go test -bench . -benchmem -run '^$$' ./...

verify:
	./scripts/check.sh
