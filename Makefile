# Repo tasks. Performance is measured by the repo benchmark only:
# BENCHMARK.json declares it, `bash bench/run.sh` runs it, and
# `make bench-check` proves it still builds and runs.

GO ?= go

.PHONY: test race lint bench-check fuzz-smoke

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -short -race ./...

# lint always runs the gofmt check (fails listing any tracked .go file
# gofmt would rewrite) and go vet; staticcheck and govulncheck run when
# installed (CI installs both — see .github/workflows/ci.yml) and are
# skipped with a note otherwise, so the target works in hermetic
# environments.
lint:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
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

# fuzz-smoke: the six fuzz targets for 10 s each (FuzzPadKernel holds the
# one pad kernel to Algorithm 3 unfused under every pad mode, FuzzOrder the
# epoch builds' radix order kernel to a comparison sort), then under
# the race detector the stale-Put property, the catalogue's one-builder suites three
# times over (TestClose*, TestFlush*, TestConcurrent* — including
# synchronous mutators racing each other — and TestDeltaBuildsRaceReaders),
# the session manager's eviction-ordering suites three times over (eviction
# churn with deletes, a restore or a delete racing an in-flight evict-save,
# and TestEviction* — the save runs on the displacing request), the
# snapshot/restore pool rule three times over (core's TestSnapshot* and
# TestRestore* — TestRestoreMatchesResidentUnderChurn among them: a
# resident session and its restored twin derive the same constraints
# under random catalogue churn — the session manager's
# TestEvictRestore*), the
# sketch-refine suites (TestPartition*:
# exactness of the beamed refine under a beam that never truncates, masked
# walk ≡ filtered index, the gate table, the refine's allocation guard, and
# the cluster bound tree's TestPartitionTreeBoundSound (a node bounds at
# least every non-empty cluster below it) and TestPartitionTreeMask (the
# pruned walk opens a flat scan's mask) — three times over, so a reintroduced random seed cannot hide behind a lucky
# run), the beam's bit-identity pin (TestBeamTraceGolden), the audits of
# the barren round and package verdicts (TestBarren*) and the recycling of
# run memory across searches and goroutines (TestRecycledRunMemoryBitIdentical,
# early exits interleaved, and TestResultsOutliveRecycledMemory: a result
# aliases nothing the pool hands to the next search), and the epoch
# builds at one worker and at four: TestEpochBuildDigest (every list, head
# set and partition bit for bit), TestOrderColumnsMatchesComparisonSort (the
# index lists sorted concurrently), TestHeadsMatchesBruteForce (the
# pivot-masked head scan) and TestBuildDeterministic (the partition's
# concurrent subtrees and derivation against one worker's), and the
# search's own pins: TestSearchDigest (packages, utility bits and every
# Result counter on the serving shapes, the partitioned 100k beams
# included) and TestHeadScreenMatchesExact (the membership screen's
# division-free estimate against headBound, and headBelow against the
# exact comparison), and a session's evidence: TestSessionDigest (slates,
# score bits, Stats, snapshots and pools of a fixed op stream at ψ 1 and
# 0.9) and TestGraphMatchesMapOracle (the flat preference graph against
# the map-based one it replaced, call for call).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaEpoch$$' -fuzztime 10s ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzSkylineDelta$$' -fuzztime 10s ./internal/skyline
	$(GO) test -run '^$$' -fuzz '^FuzzPartitionDelta$$' -fuzztime 10s ./internal/partition
	$(GO) test -run '^$$' -fuzz '^FuzzPadKernel$$' -fuzztime 10s ./internal/feature
	$(GO) test -run '^$$' -fuzz '^FuzzOrder$$' -fuzztime 10s ./internal/feature
	$(GO) test -race -run '^TestStalePutNeverServedAcrossSwaps$$' -count=1 ./internal/core
	$(GO) test -race -count=3 -run '^(TestClose|TestFlush|TestConcurrent|TestDeltaBuildsRaceReaders)' ./internal/catalog
	$(GO) test -race -count=3 -run '^(TestConcurrentEvictionChurn|TestRestoreWhileSnapshotInFlight|TestDeleteRacesInFlightEviction|TestEviction)' ./internal/session
	$(GO) test -race -count=3 -run '^(TestSnapshot|TestRestore)' ./internal/core
	$(GO) test -race -count=3 -run '^TestEvictRestore' ./internal/session
	$(GO) test -race -run '^TestPartition' -count=3 ./internal/search
	$(GO) test -race -run '^(TestBeamTraceGolden|TestBarren|TestRecycledRunMemoryBitIdentical|TestResultsOutliveRecycledMemory)' -count=1 ./internal/search
	$(GO) test -race -cpu 1,4 -run '^TestEpochBuildDigest$$' -count=1 ./internal/search
	$(GO) test -race -cpu 1,4 -run '^(TestSearchDigest|TestHeadScreenMatchesExact)$$' -count=1 ./internal/search
	$(GO) test -race -cpu 1,4 -run '^TestOrderColumnsMatchesComparisonSort$$' -count=1 ./internal/feature
	$(GO) test -race -cpu 1,4 -run '^TestHeadsMatchesBruteForce$$' -count=1 ./internal/skyline
	$(GO) test -race -cpu 1,4 -run '^TestBuildDeterministic$$' -count=1 ./internal/partition
	$(GO) test -race -run '^(TestSessionDigest|TestGraphMatchesMapOracle)$$' -count=1 ./internal/core ./internal/prefgraph
