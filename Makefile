# Repo tasks. Performance is measured by the repo benchmark only:
# BENCHMARK.json declares it, `bash bench/run.sh` runs it, and
# `make bench-check` proves it still builds and runs.

GO ?= go

.PHONY: test race lint bench-check fuzz-smoke

test:
	$(GO) build ./... && $(GO) test ./...

# The second line runs the fan-out of per-sample searches both ways under
# the race detector: at -cpu 1 every search runs on its caller, at 4
# helpers take the idle cores and retire as other callers start.
race:
	$(GO) test -short -race ./...
	$(GO) test -race -cpu 1,4 ./internal/ranking ./internal/core

# lint always runs go vet; staticcheck and govulncheck run when installed
# (CI installs both — see .github/workflows/ci.yml) and are skipped with a
# note otherwise, so the target works in hermetic environments.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

# bench-check proves the repo benchmark (BENCHMARK.json, bench/ — its own
# module, outside `go test ./...`) still builds, passes its own tests and
# runs: a short traced --quick pass of all five workloads, so the heads +
# partition + beamed-refine path of large_* meets the output checks too.
# Exit status only — the runs' output checks are the gate, not their
# timings. The binary is removed first: bench/run.sh decides freshness by
# mtime, so after a copied or switched checkout it would run the old one and
# the smoke would pass on code it never built.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .
	rm -f .bench_build/toppkg-bench
	for w in serve_static serve_churn serve_hot large_uni large_cor; do \
	  bash bench/run.sh --workload $$w --seed 1 --seconds 3 --trace 1 --quick || exit 1; done

# fuzz-smoke: the five fuzz targets for 10 s each (FuzzPadKernel holds the
# one pad kernel to Algorithm 3 unfused under every pad mode), then under
# the race detector the stale-Put property, the catalogue's one-builder suites three
# times over (TestClose*, TestFlush*, TestConcurrent* — including
# synchronous mutators racing each other — and TestDeltaBuildsRaceReaders),
# the sketch-refine suites (TestPartition*:
# exactness of the beamed refine under a beam that never truncates, masked
# walk ≡ filtered index, the gate table, the refine's allocation guard —
# three times over, so a reintroduced random seed cannot hide behind a lucky
# run), the beam's bit-identity pin (TestBeamTraceGolden), the audits of
# the barren round and package verdicts (TestBarren*) and the recycling of
# run memory across searches and goroutines
# (TestRecycledRunMemoryBitIdentical).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaEpoch$$' -fuzztime 10s ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzSkylineDelta$$' -fuzztime 10s ./internal/skyline
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionDelta$$' -fuzztime 10s ./internal/partition
	$(GO) test -run '^$$' -fuzz '^FuzzPadKernel$$' -fuzztime 10s ./internal/feature
	$(GO) test -race -run '^TestStalePutNeverServedAcrossSwaps$$' -count=1 ./internal/core
	$(GO) test -race -count=3 -run '^(TestClose|TestFlush|TestConcurrent|TestDeltaBuildsRaceReaders)' ./internal/catalog
	$(GO) test -race -run '^TestPartition' -count=3 ./internal/search
	$(GO) test -race -run '^(TestBeamTraceGolden|TestBarren|TestRecycledRunMemoryBitIdentical)' -count=1 ./internal/search
