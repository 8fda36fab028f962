GO ?= go

# Pinned third-party linter versions. `make lint` runs them via
# `go run pkg@version`, so CI and local runs agree by construction; bump
# the pin here and the workflow follows. When the module proxy is
# unreachable (offline dev containers) the third-party passes are
# skipped with a notice — set LINT_STRICT=1 (CI does) to make
# unavailability a hard failure instead, so a download hiccup cannot
# masquerade as a clean run.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4
LINT_STRICT ?=

.PHONY: all build vet countnetvet escvet-selftest lint test race chaos bench clean

all: lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# countnetvet runs the domain analyzers only (stock vet is the `vet`
# target); `go run ./cmd/countnetvet` with no -novet runs both.
# LINT_STRICT reaches escvet: without it, a toolchain that cannot
# replay `go build -gcflags=-m` skips the allocation gate with a notice
# instead of failing.
countnetvet:
	LINT_STRICT=$(LINT_STRICT) $(GO) run ./cmd/countnetvet -novet ./...

# escvet-selftest proves the allocation gate has teeth before a clean
# run is trusted: the seeded escape regression in the analyzer's own
# testdata must produce an escvet finding. When the toolchain cannot
# produce -m output the gate is off anyway (countnetvet said so above)
# and the self-test reports the skip; LINT_STRICT=1 already made that
# skip fatal in the countnetvet target.
escvet-selftest:
	@out=$$(LINT_STRICT=$(LINT_STRICT) $(GO) run ./cmd/countnetvet -novet ./internal/analysis/testdata/src/escvet 2>&1); \
	if echo "$$out" | grep -q '\[escvet\]'; then \
		echo "escvet self-test: seeded escape regression caught"; \
	elif echo "$$out" | grep -q 'escvet skipped'; then \
		echo "escvet self-test: skipped (toolchain cannot replay -gcflags=-m)"; \
	else \
		echo "escvet self-test FAILED: seeded escape regression not reported:"; \
		echo "$$out"; exit 1; \
	fi

# lint is the full static-analysis gate: gofmt drift, stock vet, the
# countnetvet domain analyzers (plus the escvet teeth check), then the
# pinned third-party tools.
lint: vet countnetvet escvet-selftest
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	elif [ -n "$(LINT_STRICT)" ]; then \
		echo "staticcheck@$(STATICCHECK_VERSION) unavailable and LINT_STRICT set"; exit 1; \
	else \
		echo "skipping staticcheck (module proxy unreachable; set LINT_STRICT=1 to fail instead)"; \
	fi
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...; \
	elif [ -n "$(LINT_STRICT)" ]; then \
		echo "govulncheck@$(GOVULNCHECK_VERSION) unavailable and LINT_STRICT set"; exit 1; \
	else \
		echo "skipping govulncheck (module proxy unreachable; set LINT_STRICT=1 to fail instead)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race . ./internal/obs/... ./internal/shm/... ./internal/msgnet/... ./internal/conformance/... ./internal/workload/...

# chaos is the CI chaos job locally: a race-checked fault-plan soak on
# the msgnet engine with a fixed seed (byte-for-byte reproducible); a
# breach leaves a shrunken plan in chaos-plan.jsonl for
# `adversary -faults chaos-plan.jsonl`.
chaos:
	$(GO) run -race ./cmd/conformance -mode chaos -rounds 10 -fault-seed 1 -shrink -out chaos-plan.jsonl

# bench runs the root (simulator-facing), internal/shm, adaptive-engine,
# and internal/obs Go benchmarks and prints plain `go test -bench`
# output. The adaptive run is the E25/E32 worker sweep (combining funnel
# and bare network vs the adaptive front's direct fetch-and-add, 1..256
# workers) plus the E27
# serialization-cliff sweep (bare network vs the ModeLinear waiting
# mode, BenchmarkAdaptiveLinear); the obs run doubles as the
# measurement-cost record: span stamping and flight recording are
# 0 allocs/op. The benchmark with committed baselines and noise bands is
# bench/run.sh (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/shm ./internal/shm/adaptive ./internal/obs

clean:
	rm -f chaos-plan.jsonl
