# Developer entry points. `make check` is the gate every change must pass:
# formatting, vet, build, the docs gate (no undocumented exported
# identifiers or stale design-section references), the full test suite under the race
# detector, and the telemetry no-op benchmark that keeps disabled
# instrumentation free. `make stress` is not part of it: it reruns the
# concurrency-heavy packages (registry, xq, telemetry) twenty times under
# the race detector, for changes to locking, snapshots or the recorder.
# Nor is `make fuzz`, which CI runs as its own job beside `make check`.

GO ?= go

.PHONY: check fmt-check vet build doclint test stress fuzz bench-noop bench bench-guard smoke run-registryd run-peerd

check: fmt-check vet build doclint test bench-noop bench-guard smoke

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

stress:
	$(GO) test -race -count=20 ./internal/registry ./internal/xq ./internal/telemetry

# Runs every fuzz target for 30 s, one `go test -fuzz` per target (it
# takes one at a time). A failing input is written under the package's
# testdata/fuzz/ and fails the run; commit it with its fix.
FUZZ_TARGETS = internal/pdp:FuzzDecode internal/xmldoc:FuzzParse internal/wsda:FuzzDecodeStream \
	internal/xq:FuzzCompile internal/registry:FuzzCanonicalQuerySource internal/wsda:FuzzDecodePageCursor \
	internal/changefeed:FuzzUnmarshalPage internal/tenant:FuzzAuthenticate

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test ./$${t%%:*} -run '^$$' -fuzz "^$${t##*:}$$" -fuzztime 30s -fuzzminimizetime 5s; \
	done

# Proves the nil-receiver (telemetry disabled) fast path stays a bare nil
# check. The acceptance bar is <=5ns/op; see internal/telemetry.
bench-noop:
	$(GO) test ./internal/telemetry/ -run '^$$' -bench 'BenchmarkNil' -benchtime 100ms

# Full benchmark suite (slow).
bench:
	$(GO) test -bench . -benchtime 1s ./...

# Perf guards: runs the guarded suites (view, stream, xq, shard, sdk, xml —
# see cmd/benchguard) with -benchmem, writes BENCH_<suite>.json each,
# and fails on any budget breach.
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
