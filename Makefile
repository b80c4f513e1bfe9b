GO ?= go

# Fast packages whose tests exercise the concurrency-heavy layers; the race
# subset keeps CI latency bounded while still racing every lock-order-
# sensitive path (queues, caches, message layer, fault/event/WAL machinery).
RACE_PKGS = ./internal/fifo ./internal/lru ./internal/mpi ./internal/scrub ./internal/sstable ./internal/wal
RACE_CORE = ./internal/core

.PHONY: all build vet test race chaos overload crash scrub fuzz bench-smoke ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'TestFault|TestEvent|TestWAL|TestReaderCache|TestSharedRead|TestRPC|TestRecover|TestDegrade|TestScan|TestCompact|TestScrub|TestRestart|TestForcedRedistribution' $(RACE_CORE)

# Seeded kill/recover soak under the race detector: a periodic fault rule
# kills a rank over and over while every rank loads, the victim Recovers in
# place each time, and no acknowledged put may be lost. Deterministic
# schedule, bounded wall clock.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -timeout 300s $(RACE_CORE)

# Seeded overload soak under the race detector: sustained put pressure on
# every rank while one rank's device churns in and out of ENOSPC, so the
# degradation ladder (read-only refusals, write stalls, reclaim, parked
# redelivery) is exercised end to end. Acked puts must survive, reads must
# never fail, and the cluster must converge once the churn stops.
overload:
	$(GO) test -race -run 'TestOverloadSoak' -count=1 -timeout 300s $(RACE_CORE)

# Seeded crash/reopen soak under the race detector: a rank is killed at every
# injection point in the flush/compact/checkpoint/manifest ladder (plus torn
# WAL and manifest appends, device write errors on the manifest log, and a
# failed rotation), reopened over the same device state, and the recovery
# contract asserted — every acked put readable, nothing deleted or
# overwritten resurrected, unlisted tables quarantined rather than adopted.
crash:
	$(GO) test -race -run 'TestCrash' -count=1 -timeout 300s $(RACE_CORE)

# Seeded scrub soak under the race detector: rounds of load, checkpoint, and
# scrub with a periodic at-rest bit-rot rule decaying live SSTables while
# foreground puts race the cycles. Every rot must be detected and repaired
# from the checkpoint — zero acked-value loss, rank Healthy throughout.
scrub:
	$(GO) test -race -run 'TestSoakScrub' -count=1 -timeout 300s $(RACE_CORE)

# Short coverage-guided runs of the WAL and manifest replay decoders on top
# of their committed seed corpora (internal/{wal,manifest}/testdata/fuzz).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzManifestDecode -fuzztime 10s ./internal/manifest

# One-iteration benchmark runs: catches benchmarks that no longer compile
# or error out, without paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkSSTableGet -benchtime 1x ./internal/sstable
	$(GO) test -run '^$$' -bench BenchmarkConcurrentRemoteGet -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkScan -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkCompactReadAmp -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkScrubOverhead -benchtime 1x ./internal/core

ci: build vet test race chaos overload crash scrub fuzz bench-smoke

clean:
	$(GO) clean ./...
