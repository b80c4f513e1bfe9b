#!/bin/sh
# ci.sh — the exact gate CI runs; run it locally before pushing.
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./internal/fifo ./internal/lru ./internal/mpi ./internal/scrub ./internal/sstable ./internal/wal
go test -race -run 'TestFault|TestEvent|TestWAL|TestReaderCache|TestSharedRead|TestRPC|TestRecover|TestDegrade|TestScan|TestCompact|TestScrub|TestRestart|TestForcedRedistribution' ./internal/core
go test -race -run 'TestChaos' -count=1 -timeout 300s ./internal/core
go test -race -run 'TestOverloadSoak' -count=1 -timeout 300s ./internal/core
go test -race -run 'TestCrash' -count=1 -timeout 300s ./internal/core
go test -race -run 'TestSoakScrub' -count=1 -timeout 300s ./internal/core
go test -run '^$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/wal
go test -run '^$' -fuzz FuzzManifestDecode -fuzztime 10s ./internal/manifest
go test -run '^$' -bench BenchmarkSSTableGet -benchtime 1x ./internal/sstable
go test -run '^$' -bench BenchmarkConcurrentRemoteGet -benchtime 1x ./internal/core
go test -run '^$' -bench BenchmarkScan -benchtime 1x ./internal/core
go test -run '^$' -bench BenchmarkCompactReadAmp -benchtime 1x ./internal/core
go test -run '^$' -bench BenchmarkScrubOverhead -benchtime 1x ./internal/core
