# Developer entry points. `make verify` mirrors the tier-1 CI gate in
# .github/workflows/verify.yml exactly — run it before pushing.

RACE_PKGS := ./internal/obs ./internal/enclave ./internal/store ./internal/audit ./internal/core ./internal/cache ./internal/journal

.PHONY: verify build test vet race bench bench-smoke chaos-smoke drain-smoke perfbench-check advisory

verify: build test vet race

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

race:
	go test -race $(RACE_PKGS)

# Scaled-down benchmark sweep (see EXPERIMENTS.md for full commands).
bench:
	go run ./cmd/segshare-bench -exp all

# One iteration of every data-path benchmark — compile-and-run coverage
# for the crypto pipeline, not a measurement. Mirrors the bench-smoke CI
# job.
bench-smoke:
	go test -bench=. -benchtime=1x ./internal/pfs ./internal/pae ./internal/bench

# Deterministic chaos pass under -race: the brownout recovery contract
# (degraded read-only mode, breaker lifecycle, audit evidence) and the
# resilient-wrapper unit suite. Mirrors the chaos-smoke CI job.
chaos-smoke:
	go test -race -run 'TestBrownout|TestResilient|TestBackendConformance' ./internal/core ./internal/store

# Overload-resilience pass under -race (admission limiter, end-to-end
# cancellation, graceful drain) plus the real-process SIGTERM smoke
# behind the drainsmoke build tag. Mirrors the drain-smoke CI job.
drain-smoke:
	go test -race -run 'TestLimiter|TestAdmi|TestCancelled|TestOverload|TestDrain|TestGetContext|TestCloseRejects|TestExporterFlush' ./internal/core ./internal/store ./internal/journal ./internal/obs
	go test -race -tags drainsmoke -run TestSIGTERMGracefulDrain ./cmd/segshare-server

# Vet and unit-test the benchmark module (perfbench/, its own Go module
# importing the repository through a replace directive, so the root
# `go test ./...` does not cover it). Runs offline in about 25 s. Mirrors
# the perfbench CI job.
perfbench-check:
	go -C perfbench vet ./...
	go -C perfbench test ./...

# Advisory static analysis — mirrors the non-blocking CI job. Needs
# network access to fetch the tools; failures here never gate a merge.
advisory:
	-go run golang.org/x/vuln/cmd/govulncheck@latest ./...
	-go run honnef.co/go/tools/cmd/staticcheck@latest ./...
