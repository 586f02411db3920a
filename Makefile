GO ?= go

.PHONY: build test test-short race vet lint loc fmt-check bench-quick bench-flowtab bench-harness bench-ctlplane serve-smoke flight-smoke ctlplane-smoke streams-smoke vet-live test-live check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -short -race ./...

vet:
	$(GO) vet ./...

# lint runs scaplint, the repo's own static-analysis suite: the
# per-package checks (hot-path allocation, snapshot-getter,
# lock-discipline, metrics-registration, exported-doc invariants) plus
# the whole-program concurrency-contract analyzers (goroutine ownership,
# atomic-field discipline, hot-path blocking and locking). -unusedignores
# also fails on stale or unjustified //scaplint:ignore directives.
lint:
	$(GO) run ./cmd/scaplint -unusedignores ./...

# loc prints the size of the code a reader has to hold: non-test,
# non-testdata Go lines of the production path (ROADMAP north star: root
# package plus the capture-path internals) and, separately, of the tooling.
PROD_DIRS = . internal/core internal/nic internal/flowtab internal/mem internal/event \
	internal/reassembly internal/sketch internal/metrics internal/streamscope
loc:
	@echo "production path: $$(cat $$(for d in $(PROD_DIRS); do ls $$d/*.go; done | grep -v _test.go) | wc -l) lines"
	@echo "cmd + internal/analysis: $$(cat $$(find cmd internal/analysis -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*') | wc -l) lines"

# bench-quick compiles and runs every benchmark for a single iteration —
# a smoke test that the bench harnesses stay buildable and terminate, not
# a measurement. Output is teed to bench-quick.txt so CI can upload it as
# a workflow artifact.
bench-quick:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./... | tee bench-quick.txt

# bench-flowtab runs the flow-table scaling suite quickly — the per-size
# lookup/miss curves (allocs/op must stay 0) and the million-concurrent-
# flow end-to-end replay — so the flat-curve claim (DESIGN.md §11,
# bench_results.txt) is tracked per-PR. 100x is a smoke iteration count:
# enough to exercise every table size including the 2^20 case, not a
# stable measurement. Output joins the bench-quick CI artifact.
bench-flowtab:
	$(GO) test -run '^$$' -bench 'BenchmarkLookup1M|BenchmarkLookupMiss' -benchtime 100x -benchmem ./internal/flowtab | tee bench-flowtab.txt
	$(GO) test -run '^$$' -bench 'BenchmarkInject1MFlows' -benchtime 100x -benchmem . | tee -a bench-flowtab.txt

# bench-harness builds and smoke-runs the repository benchmark. benchmark/ is
# a nested module, so "go test ./..." at the root never compiles it and
# nothing else notices when an internal signature it uses changes. The quick
# run still checks every delivered stream against the harness's reference
# reassembly and exits non-zero on a mismatch — the end-to-end check that a
# steering change did not split a connection across queues. Not a
# measurement.
bench-harness:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh -quick

# serve-smoke replays a small trace through a socket with the debug server
# enabled, scrapes /metrics over HTTP, and asserts nonzero packets_total —
# the end-to-end proof that the observability path works.
serve-smoke:
	$(GO) run ./cmd/scaptop -smoke serve

# flight-smoke replays a short trace with a low stream cutoff so the engines
# emit flight-recorder records, then asserts /debug/flight returns at least
# one record and a valid Chrome trace-event export.
flight-smoke:
	$(GO) run ./cmd/scaptop -smoke flight

# ctlplane-smoke overloads a deliberately tiny socket (2 MiB memory budget,
# slow consumer callbacks) with the adaptive controller enabled, then asserts
# /debug/ctlplane shows tighten decisions and /debug/flight carries the
# matching ctl_* records — the end-to-end proof of the telemetry→decision→
# actuation loop.
ctlplane-smoke:
	$(GO) run ./cmd/scaptop -smoke ctlplane

# streams-smoke replays a cutoff-heavy trace with the journal sampler
# effectively off, then asserts /debug/streams carries cutoff-promoted
# journals (the anomaly-promotion invariant), the chrome export has one
# named track per journal, and /debug/history accumulates sparkline points.
# Set SCAP_STREAMS_TRACE_OUT to also write the Perfetto-loadable export.
streams-smoke:
	$(GO) run ./cmd/scaptop -smoke streams

# bench-ctlplane runs the adaptive-vs-fixed-cutoff overload replay
# (EXPERIMENTS.md §ctlplane) with the strict comparative assertions on: the
# adaptive run must beat every fixed cutoff on p99 ring→worker latency while
# delivering at least as many useful priority-0 bytes as the best fixed
# cutoff. Results are teed to bench-ctlplane.txt.
bench-ctlplane:
	SCAP_CTLPLANE_STRICT=1 $(GO) test -run TestAdaptiveVsFixedCutoff -v . | tee bench-ctlplane.txt

# vet-live type-checks the AF_PACKET/TPACKET_V3 backend, which is behind
# the "live" build tag and otherwise invisible to vet.
vet-live:
	$(GO) vet -tags live ./...

# test-live runs the live-capture conformance tests over a veth pair.
# Needs root (CAP_NET_ADMIN + CAP_NET_RAW); the tests skip themselves
# without it, so run as: sudo make test-live
test-live:
	$(GO) test -tags live -run AFPacket -v ./internal/nic/

fmt-check:
	@out=$$(gofmt -l . | grep -v '^testdata/' || true); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# check is the full CI gate.
check: build vet vet-live lint fmt-check race serve-smoke flight-smoke ctlplane-smoke streams-smoke
