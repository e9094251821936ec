# Developer entry points; CI runs the same targets (.github/workflows/ci.yml).

GO ?= go
BIN := bin

.PHONY: build test race lint bench-smoke perf perf-pair perf-test perf-selfcheck fig-hotring fig-scan fault-sweep corruption-sweep clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint = the repo's own invariant checkers (cmd/unikvlint run through the
# `go vet -vettool` protocol) plus staticcheck/govulncheck when installed.
# The external tools are optional so `make lint` works offline. unikvlint
# fails on findings AND on stale //unikv:allow suppressions — delete an
# annotation once the violation it excused is gone.
lint: $(BIN)/unikvlint
	$(GO) vet ./...
	$(GO) vet -vettool=$(BIN)/unikvlint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

$(BIN)/unikvlint: FORCE
	$(GO) build -o $(BIN)/unikvlint ./cmd/unikvlint

# One iteration per benchmark: compiles and runs them without measuring.
# The substrate packages carry the per-layer microbenchmarks (ns/op and
# allocs/op of vfs, wal, arena, memtable, sstable, vlog, the hash-index checkpoint,
# the core put/scan paths, protocol encode/decode, a server round trip, the
# read path's cache, hot ring, hash probe and boundary search, and the scan
# path's k-way merge and sorted view).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/bench/ ./internal/vfs/ ./internal/wal/ ./internal/arena/ ./internal/memtable/ ./internal/sstable/ ./internal/vlog/ ./internal/hashindex/ ./internal/core/ ./internal/protocol/ ./internal/server/ ./internal/cache/ ./internal/hotring/ ./internal/sorted/ ./internal/unsorted/ ./internal/mergeiter/ ./internal/sortedview/

# The perf ledger (perf/README.md, BENCHMARK.json): every workload, timed
# and traced. perf/ is a Go module of its own, so `go test ./...` at the
# root does not reach it — perf-test does. perf-selfcheck runs the whole
# set twice with one seed and compares (about 5 minutes). For a
# before/after of one workload against another build, see
# `perf/run.sh --against` in perf/README.md.
perf:
	bash perf/run.sh --seed 1

perf-test:
	cd perf && $(GO) vet . && $(GO) test -race .

# Paired A/B of one workload: the working tree against HEAD~1, N
# alternating pairs (default 10), per-side median and quartiles, win
# count and the verdict for every end-to-end metric. W=<workload> is
# required; N and SEED are optional. See scripts/perf-pair.sh.
perf-pair:
	bash scripts/perf-pair.sh $(W) $(or $(N),10) $(or $(SEED),1)

perf-selfcheck:
	bash perf/run.sh --selfcheck

# The hot-key read layer experiment at full scale, regenerating the
# committed trajectory artifact (bench/BENCH_fig-hotring.json). CI runs
# the same experiment at smoke scale gated against the conservative
# baseline bench/BENCH_smoke_fig-hotring.json (see bench/README.md).
fig-hotring:
	$(GO) run ./cmd/unikv-bench -exp fig-hotring -n 20000 -ops 30000 -json -json-dir bench

# The sorted-view scan experiment at full scale, regenerating the committed
# trajectory artifact (bench/BENCH_fig-scan.json). CI runs the same
# experiment at smoke scale gated against the conservative baseline
# bench/BENCH_smoke_fig-scan.json (see bench/README.md).
fig-scan:
	$(GO) run ./cmd/unikv-bench -exp fig-scan -n 20000 -ops 3000 -json -json-dir bench

# The systematic fault-injection sweep (short, strided profile), including
# the open-snapshot campaigns (faults armed while a pinned snapshot reads),
# and one failed flush, scan merge, merge, GC and split each, which must
# leave none of the files the job was writing open.
# Set UNIKV_FAULT_SWEEP=full to arm a fault at every op index (minutes).
fault-sweep:
	$(GO) test -race -run 'TestFaultSweep|TestCorrupt|TestBackgroundTransient|TestBackgroundSticky|TestFailedJobClosesItsFiles' ./internal/core/

# The corruption campaign: persistent byte flips and read-time CorruptPlans
# across file classes and offsets; each point must be detected (scrub or
# foreground read), quarantined with partition scope, repaired offline, and
# reopen with every surviving key byte-identical and every lost key in the
# loss report. Includes the scrub/GC/snapshot race storm and the offline
# repair suite (TestRepair*: a flip at every manifest byte and a removed
# CURRENT, which Open must refuse rather than sweep; rewrite numbering).
corruption-sweep:
	$(GO) test -race -run 'TestCorruptionSweep|TestScrub|TestForeground|TestRepair' ./internal/core/
	$(GO) test -race -run 'TestFailFSCorrupt' ./internal/vfs/

clean:
	rm -rf $(BIN)

.PHONY: FORCE
FORCE:
