# Standard-library-only Go module; these targets just wrap the toolchain.

GO ?= go

.PHONY: all build test race vet fmt bench bench-smoke benchgate metricsmoke api apicheck examples clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# bench emits BENCH_engine.json (E10 engine-vs-serial rows),
# BENCH_gossip.json (E11 audit-gossip rows), BENCH_stream.json (E12
# update-plane churn rows), BENCH_query.json (E13 disclosure query-plane
# rows), BENCH_trace.json (E16 distributed-tracing rows), and
# BENCH_priv.json (E17 privacy-plane rows), and BENCH_store.json (E18
# durable-store rows), consumed by the perf
# trajectory, plus the printed tables on stdout. Each file carries a
# "meta" envelope recording the run's toolchain and commit.
bench:
	$(GO) run ./cmd/pvrbench -e engine -json BENCH_engine.json
	$(GO) run ./cmd/pvrbench -e gossip -json BENCH_gossip.json
	$(GO) run ./cmd/pvrbench -e stream -json BENCH_stream.json
	$(GO) run ./cmd/pvrbench -e query -json BENCH_query.json
	$(GO) run ./cmd/pvrbench -e trace -json BENCH_trace.json
	$(GO) run ./cmd/pvrbench -e priv -json BENCH_priv.json
	$(GO) run ./cmd/pvrbench -e store -json BENCH_store.json

# bench-smoke runs the experiment harnesses at tiny sizes and fails if
# any JSON output comes back empty — catches benchmark-harness rot in
# CI without paying for the full sweeps.
bench-smoke:
	$(GO) run ./cmd/pvrbench -e engine -prefixes 50 -json BENCH_engine.json
	$(GO) run ./cmd/pvrbench -e gossip -nodes 8 -json BENCH_gossip.json
	$(GO) run ./cmd/pvrbench -e stream -prefixes 400 -json BENCH_stream.json
	$(GO) run ./cmd/pvrbench -e query -prefixes 64 -json BENCH_query.json
	$(GO) run ./cmd/pvrbench -e trace -nodes 50 -json BENCH_trace.json
	$(GO) run ./cmd/pvrbench -e priv -prefixes 6 -json BENCH_priv.json
	$(GO) run ./cmd/pvrbench -e store -appenders 8 -json BENCH_store.json
	grep -q '"prefixes"' BENCH_engine.json
	grep -q '"nodes"' BENCH_gossip.json
	grep -q '"updates_per_sec"' BENCH_stream.json
	grep -q '"speedup"' BENCH_stream.json
	grep -q '"qps"' BENCH_query.json
	grep -q '"denied"' BENCH_query.json
	grep -q '"fleet_stitched"' BENCH_trace.json
	grep -q '"proof_size_bytes"' BENCH_priv.json
	grep -q '"ring_verify_p50_us"' BENCH_priv.json
	grep -q '"speedup"' BENCH_store.json
	grep -q '"recovery_ms"' BENCH_store.json

# benchgate re-runs the engine epoch at a small size and fails when its
# allocs/op regresses more than 15% — or its shard-seal p99 more than
# 20% — against the checked-in BENCH_engine.json baseline; run
# `make bench` to refresh the baseline when an increase is intentional.
benchgate:
	./scripts/benchgate.sh

# metricsmoke boots one pvrd, scrapes its /metrics endpoint, and fails
# unless every plane's metric families show up — the end-to-end check
# that the observability plumbing stays wired. It is its own target (and
# CI step), not part of test.
metricsmoke:
	./scripts/metricsmoke.sh

# api regenerates the public-API snapshot that apicheck (and CI) diff
# against; run it whenever a PR intentionally changes the pvr surface.
# One generator (in the script) serves both targets so they cannot drift.
api:
	./scripts/apicheck.sh --update

apicheck:
	./scripts/apicheck.sh

# examples vets and builds the example program (examples/participant)
# against the current API. The paper's walk-throughs are Example
# functions in internal/..., run and output-checked by test.
examples:
	$(GO) vet ./examples/...
	$(GO) build -o /dev/null ./examples/participant

clean:
	rm -f BENCH_engine.json BENCH_gossip.json BENCH_stream.json BENCH_query.json BENCH_trace.json BENCH_priv.json BENCH_store.json
