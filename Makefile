# Developer entry points. `make check` is the gate every change must pass:
# formatting, vet, build, the docs gate (no undocumented exported
# identifiers or stale design-section references), the full test suite under the race
# detector, the bench/ module's vet and tests (its own go.mod, so the root
# build skips it), and the guarded benchmarks (bench-guard). `make stress`
# is not part of it: it reruns the concurrency-heavy packages (registry,
# xq, telemetry, wsda) twenty times under the race detector, for changes
# to locking, snapshots, the recorder or the delivery the router drives
# under its merge mutex.
# Nor is `make fuzz`, which CI runs as its own job beside `make check`.

GO ?= go

.PHONY: check fmt-check vet build doclint test bench-check stress fuzz bench-noop bench bench-guard smoke run-registryd run-peerd

check: fmt-check vet build doclint test bench-check bench-guard smoke

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Docs gate: every exported identifier (including interface methods) in
# internal/... and cmd/... needs a doc comment, every package a package
# comment, and every S<N> reference in a comment must exist in DESIGN.md's
# inventory. See cmd/doclint.
doclint:
	$(GO) run ./cmd/doclint internal cmd

test:
	$(GO) test -race ./...

# bench/ is its own module (replace wsda => ../): an internal API change
# can break its load generator while the root build stays green.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

stress:
	$(GO) test -race -count=20 ./internal/registry ./internal/xq ./internal/telemetry ./internal/wsda

# Runs every fuzz target for 30 s, one `go test -fuzz` per target (it
# takes one at a time). A failing input is written under the package's
# testdata/fuzz/ and fails the run; commit it with its fix.
FUZZ_TARGETS = internal/pdp:FuzzDecode internal/xmldoc:FuzzParse internal/wsda:FuzzDecodeStream \
	internal/xq:FuzzCompile internal/registry:FuzzCanonicalQuerySource internal/wsda:FuzzDecodePageCursor \
	internal/changefeed:FuzzUnmarshalPage internal/tenant:FuzzAuthenticate \
	internal/xq:FuzzCompiledComparisonMatchesGeneral

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./$${t%%:*} -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime 30s -fuzzminimizetime 5s; \
	done

# Prints the nil-receiver (telemetry disabled) fast path's cost. Its
# allocations (none) are guarded by bench-guard's stream suite; its time is
# not: the <=5 ns/op bar is read by eye, and BenchmarkNilFlightRecord has
# read 5.51 ns/op on a shared 2-vCPU host. See internal/telemetry.
bench-noop:
	$(GO) test ./internal/telemetry/ -run '^$$' -bench 'BenchmarkNil' -benchtime 100ms

# Full benchmark suite (slow).
bench:
	$(GO) test -bench . -benchtime 1s ./...

# Perf guards: runs every benchmark a row of cmd/benchguard's table names,
# three times each with -benchmem, writes BENCH_<suite>.json for the six
# suites (view, stream, xq, shard, sdk, xml), and fails when a row's value
# is over its ceiling or its benchmark did not run.
bench-guard:
	$(GO) run ./cmd/benchguard

# Boots a real registryd on a free port and verifies /healthz, /readyz and
# /slo answer, then shuts it down — the CI probe-endpoint smoke test.
smoke:
	$(GO) run ./cmd/smoketest

run-registryd:
	$(GO) run ./cmd/registryd -seed-services 100

run-peerd:
	$(GO) run ./cmd/peerd
