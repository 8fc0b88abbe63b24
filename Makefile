GO ?= go

# Benchmarks whose before/after numbers EXPERIMENTS.md tracks.
CORE_BENCH := BenchmarkAnonymize|BenchmarkPhase3Heavy|BenchmarkTPCore|BenchmarkTPOnSAL4|BenchmarkTPWide|BenchmarkKLDivergence|BenchmarkAudit|BenchmarkReadCSV|BenchmarkReadCSVHighCardinality|BenchmarkWriteGeneralizedCSV|BenchmarkVerifyGeneralized

# Benchmarks of the columnar table core: the data-model primitives
# (append/sample/subset/project), the grouping primitive every TP run starts
# with and its radix kernel, and the end-to-end anonymization that sits on
# top of them. The pattern also matches BenchmarkGroupByQIRankCache in
# TABLE_PKGS' internal/table.
TABLE_BENCH := BenchmarkTableOps|BenchmarkGroupByQI|BenchmarkRadixSortPairs|BenchmarkAnonymize$$
TABLE_PKGS := . ./internal/table

.PHONY: all build test race bench bench-table bench-table-smoke bench-smoke differential profile fmt vet lint run-server smoke-server docs-lint fuzz-smoke cover

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# differential runs the scenario-corpus differential harness at extra seed
# depth — every dataset family x all seven algorithms x l in {2,3,4} — the
# same sweep the weekly scheduled CI job runs. Narrow with
# `make differential DIFF_FAMILIES=heavytail-sa,sa-card-l DIFF_SEEDS=1`.
DIFF_FAMILIES ?= all
DIFF_SEEDS ?= 3
differential:
	DIFF_FAMILIES=$(DIFF_FAMILIES) DIFF_SEEDS=$(DIFF_SEEDS) \
		$(GO) test -race -run 'TestDifferentialCorpus|TestCorpusExpectedInfeasible' -v ./internal/audit/

# make bench writes benchmark output to bench.txt; run it on two revisions
# and compare with `benchstat old.txt bench.txt`
# (go install golang.org/x/perf/cmd/benchstat@latest).
bench:
	$(GO) test -run '^$$' -bench '$(CORE_BENCH)' -benchmem -count 6 ./... | tee bench.txt
	@echo
	@echo "wrote bench.txt — compare revisions with: benchstat old.txt bench.txt"

# bench-table measures the columnar table core (GroupByQI, its sort kernel
# and end-to-end Anonymize, with allocation counts) and writes
# bench-table.txt; run it on two revisions and compare with benchstat, as
# EXPERIMENTS.md records.
bench-table:
	$(GO) test -run '^$$' -bench '$(TABLE_BENCH)' -benchmem -count 6 $(TABLE_PKGS) | tee bench-table.txt
	@echo
	@echo "wrote bench-table.txt — compare revisions with: benchstat old.txt bench-table.txt"

# bench-table-smoke executes the table-core benchmarks exactly once; CI runs
# this as a named step so a regression in the benchmark harness itself fails
# fast and visibly.
bench-table-smoke:
	$(GO) test -run '^$$' -bench '$(TABLE_BENCH)' -benchmem -benchtime 1x $(TABLE_PKGS)

# bench-smoke executes every benchmark exactly once so benchmark code cannot
# rot unnoticed; CI runs this on every push. BENCHFLAGS forwards extra go test
# flags: `make bench-smoke BENCHFLAGS=-short` skips the figure-matrix
# benchmarks (each regenerates a whole experiment grid) and keeps the
# micro-benchmarks.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCHFLAGS) ./...

# profile captures pprof CPU + allocation profiles of the SAL-4 timing
# workload (ldivbench -fig 4) under bench/profiles/ and validates them with
# `go tool pprof -top`; EXPERIMENTS.md's before/after tables cite its output.
# Smoke mode (CI): `make profile PROFILE_ROWS=2000`.
profile:
	PROFILE_FIG=$(PROFILE_FIG) PROFILE_ROWS=$(PROFILE_ROWS) PROFILE_OUT=$(PROFILE_OUT) ./scripts/profile.sh

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# lint runs ldivlint, the repo's own analyzer suite (internal/lint): detrange
# (map-iteration/wall-clock determinism in release-producing packages),
# viewsafety (mutating or retaining zero-copy table views, or writing into
# the shared GroupByQI grouping), narrowconv
# (unguarded narrowing of count-carrying integers) and poolcheck (dropped
# TrySubmit verdicts, unclosed queues). Nonzero on any diagnostic.
lint:
	./scripts/lint.sh

# run-server starts the ldivd anonymization job server on :8080 (override
# with LDIVD_FLAGS="-addr :9999 ...").
run-server:
	$(GO) run ./cmd/ldivd $(LDIVD_FLAGS)

# smoke-server builds ldivd, drives one curl job through submit -> poll ->
# result, and shuts it down; CI runs this on every push.
smoke-server:
	./scripts/server-smoke.sh

# docs-lint fails if docs/ARCHITECTURE.md or examples/README.md reference a
# package directory that no longer exists.
docs-lint:
	./scripts/docs-lint.sh

# fuzz-smoke runs every native fuzz target briefly (seed corpus under
# testdata/fuzz/ plus FUZZTIME of mutation per target), so the parsers that
# face untrusted bytes — microdata CSV, job parameters, release CSVs — get
# exercised on every push. FuzzReadCSVDifferential checks ReadCSV against
# the encoding/csv reader it replaced, and FuzzRecordScannerDifferential
# checks the record scanner against it over whole streams, including scanning
# on past syntax errors as the release auditor does. Raise FUZZTIME locally
# for a real hunt, e.g. `make fuzz-smoke FUZZTIME=5m`.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSVDifferential$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzRecordScannerDifferential$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzParseParams$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzParseVerifyParams$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzParseGeneralizedRelease$$' -fuzztime $(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz '^FuzzParseAnatomyRelease$$' -fuzztime $(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime $(FUZZTIME) ./internal/store

# cover enforces the coverage gate: per-package coverage for internal/... plus
# a fail-under threshold on the total (85% by default; override with
# COVER_THRESHOLD=NN). EXPERIMENTS.md records the per-package table.
cover:
	./scripts/coverage.sh
