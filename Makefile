GO ?= go

.PHONY: all build vet test race alloc-guard audit perf-test perf-pair check bench sweep fuzz-smoke analyze-smoke explore explore-smoke sched-test wal-test wal-smoke clean

all: check

build:
	$(GO) build ./...

# gofmt over every Go file (any it would rewrite fails the target), go vet
# over the Go sources, sdllint over the store's lock discipline, then sdlvet
# over the shipped SDL corpus — the examples must stay clean under every
# analyzer pass.
vet:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/sdllint internal/dataspace
	$(GO) run ./cmd/sdlvet ./examples/sdl/*.sdl

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The count-exact allocation guards (what a value constructor, an intern
# hit or miss, a tuple decode, a match, a solution, a plan of a 64-pattern
# query on a pooled matcher, a window scan, an upsert, a store commit, a WAL
# append, a read, a read view, a wait, a delayed transaction's wait, a
# spawn, a let-constant, a process's transaction statement, a parked
# process's wake and re-park, a consensus member's registration, first and
# later offer, a repartition at 24 and 96 members, a lex and a parse on
# another P, a metrics registry and its snapshot may allocate, that a
# process's selections re-arm one subscription, that a consensus fire
# grounds into one fields block and a churning process keeps one alive, and
# that a process record stays in its 640-byte size class). They skip under the race detector — it
# allocates on its own and sync.Pool drops Puts there — so the race target
# above does not run them; this does.
alloc-guard:
	$(GO) test -run 'Alloc|Allocates|ReusesSubscription|RecordSizeClass|OneBlock' ./internal/tuple ./internal/dataspace ./internal/pattern ./internal/view ./internal/txn ./internal/process ./internal/consensus ./internal/wal ./internal/lang ./internal/metrics .

# The serializability-audit suite and metrics invariants, race-enabled.
audit:
	$(GO) test -race ./internal/metrics ./internal/refmodel ./internal/trace
	$(GO) test -race -run Metrics .

# A short analyzer fuzz pass that rides the commit gate (the longer
# campaign lives in fuzz-smoke).
analyze-smoke:
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=5s -run '^$$' ./internal/analysis

# The full schedule-exploration campaign: 1000+ seeds across the twenty
# corpus programs (20 programs x 84 seeds = 1680 runs), light faults,
# serializability-checked. Any failure prints a replayable seed.
explore:
	$(GO) run ./cmd/sdlexplore -seeds 84

# A quick exploration pass that rides the commit gate (the full campaign
# lives in explore).
explore-smoke:
	$(GO) run ./cmd/sdlexplore -seeds 3

# The scheduler, exploration harness, process run queue and consensus
# offers' own tests, race-enabled and run twice to catch cross-run state
# leakage (stale globals, leaked waiters or workers).
sched-test:
	$(GO) test -race -count=2 ./internal/sched/... ./internal/process/... ./internal/consensus/...

# The full durability campaign: 100 SIGKILL-and-recover iterations per
# shard count plus a WAL decode fuzz pass. Any lost or duplicated
# acknowledged commit fails the run.
wal-test:
	SDL_WAL_KILL_ITERS=100 $(GO) test -count=1 -run TestKillRecover -timeout 20m ./internal/wal
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=30s -run '^$$' ./internal/wal

# A bounded kill-and-recover pass that rides the commit gate (the full
# campaign lives in wal-test).
wal-smoke:
	SDL_WAL_KILL_ITERS=2 $(GO) test -count=1 -run TestKillRecover ./internal/wal

# The benchmark is a module of its own (perf/go.mod), so the root targets
# neither build nor test it; it compiles against product internals, and
# this is what notices an API change breaking it.
perf-test:
	cd perf && $(GO) vet ./... && $(GO) test ./...

# The paired parent/change protocol of the perf benchmark (choosing-metrics
# §8) for one workload: N alternating pairs of S-second runs, then medians,
# quartiles, wins and resolved/unresolved against the BENCHMARK.json bounds.
# `make perf-pair W=join-read N=10 S=20`; takes 2*N*(S + set-up) seconds.
W ?= join-read
N ?= 10
S ?= 20
perf-pair:
	bash scripts/perf-pair.sh $(W) $(N) $(S)

# The verification gate: everything a commit must pass.
check: vet build race alloc-guard audit analyze-smoke sched-test explore-smoke wal-smoke perf-test

# The package-level micro-benchmarks (read shapes, barrier rounds, the
# checkpoint write and the WAL restart of 2^18 counters — BenchmarkCheckpoint,
# BenchmarkRecover — …).
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Regenerate bench_sweep.txt: the E1–E17 paper-reproduction and ablation
# tables as full parameter sweeps (takes minutes). The tables are ungated;
# the benchmark that gates performance is perf/ (BENCHMARK.json).
sweep:
	$(GO) run ./cmd/sdlbench | tee bench_sweep.txt

# Run each fuzz target briefly — a smoke pass, not a campaign.
fuzz-smoke:
	$(GO) test -fuzz=FuzzValue -fuzztime=10s -run '^$$' ./internal/tuple
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run '^$$' ./internal/lang
	$(GO) test -fuzz=FuzzLex -fuzztime=10s -run '^$$' ./internal/lang
	$(GO) test -fuzz=FuzzMatch -fuzztime=10s -run '^$$' ./internal/pattern
	$(GO) test -fuzz=FuzzEnumerate -fuzztime=10s -run '^$$' ./internal/pattern
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=10s -run '^$$' ./internal/analysis
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=10s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzWALRoundTrip -fuzztime=10s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzIDSet -fuzztime=10s -run '^$$' ./internal/dataspace
	$(GO) test -fuzz=FuzzIDIndex -fuzztime=10s -run '^$$' ./internal/dataspace
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=10s -run '^$$' ./internal/dataspace
	$(GO) test -fuzz=FuzzStoreSlab -fuzztime=10s -run '^$$' ./internal/dataspace

clean:
	$(GO) clean ./...
