package main

import (
	"errors"
	"reflect"
	"runtime/metrics"
	"unsafe"

	"papyruskv"
	"papyruskv/internal/mpi"
	"papyruskv/internal/nvm"
	"papyruskv/internal/simnet"
)

// fabrics are the cluster's interconnect models; their Stats count every
// message the ranks exchange.
type fabrics []*simnet.Fabric

// clusterFabrics reads the fabrics out of the cluster's message world.
// Cluster keeps the world unexported and has no accessor, so the benchmark
// reads the field by reflection rather than change the program's API; a
// renamed field fails the run instead of reporting zeros.
func clusterFabrics(cl *papyruskv.Cluster) (fabrics, error) {
	f := reflect.ValueOf(cl).Elem().FieldByName("world")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*mpi.World)(nil)) {
		return nil, errors.New("papyruskv.Cluster has no world *mpi.World field to read fabric counters from")
	}
	topo := (*(**mpi.World)(unsafe.Pointer(f.UnsafeAddr()))).Topology()
	var fs fabrics
	for _, fab := range []*simnet.Fabric{topo.Net, topo.Shm} {
		if fab != nil {
			fs = append(fs, fab)
		}
	}
	return fs, nil
}

// counters is one reading of every counter the per-layer metrics use,
// summed over ranks.
type counters struct {
	core           map[string]uint64 // DB.Metrics().Snapshot()
	dev            nvm.Stats
	msgs, msgBytes uint64
	allocs         uint64
	gcCPU, allCPU  float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters(dbs []*papyruskv.DB, fabs fabrics) counters {
	c := counters{core: map[string]uint64{}}
	for _, db := range dbs {
		for k, v := range db.Metrics().Snapshot() {
			c.core[k] += v
		}
		s := db.Runtime().Device().Stats()
		c.dev.Reads += s.Reads
		c.dev.Writes += s.Writes
		c.dev.BytesRead += s.BytesRead
		c.dev.BytesWritten += s.BytesWritten
		c.dev.Opens += s.Opens
	}
	for _, f := range fabs {
		m, b := f.Stats()
		c.msgs += m
		c.msgBytes += b
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.allocs = s[0].Value.Uint64()
	c.gcCPU = s[1].Value.Float64()
	c.allCPU = s[2].Value.Float64()
	return c
}

// delta is b minus a, counter by counter (gauges in core come out as
// wrapped garbage and are not used).
func delta(a, b counters) counters {
	d := counters{core: map[string]uint64{}}
	for k, v := range b.core {
		d.core[k] = v - a.core[k]
	}
	d.dev = nvm.Stats{
		Reads:        b.dev.Reads - a.dev.Reads,
		Writes:       b.dev.Writes - a.dev.Writes,
		BytesRead:    b.dev.BytesRead - a.dev.BytesRead,
		BytesWritten: b.dev.BytesWritten - a.dev.BytesWritten,
		Opens:        b.dev.Opens - a.dev.Opens,
	}
	d.msgs, d.msgBytes = b.msgs-a.msgs, b.msgBytes-a.msgBytes
	d.allocs = b.allocs - a.allocs
	d.gcCPU, d.allCPU = b.gcCPU-a.gcCPU, b.allCPU-a.allCPU
	return d
}

// ratio is num/den, or 0 when the workload did none of the base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer counts and ratios of the timed phase,
// and the per-op layer times from the replay's time per call. Every name
// is reported on every workload; a ratio whose base the workload never
// exercises reads 0.
func layerMetrics(d counters, t opsSummary, rp replayResult) map[string]float64 {
	f := func(k string) float64 { return float64(d.core[k]) }
	puts, gets := float64(t.puts), float64(t.gets)
	scans, pairs := float64(t.scans), float64(t.pairs)
	ops := float64(t.done[0] + t.done[1])
	userBytes := puts * pairLen
	remoteReqs := f("gets_remote") + f("puts_sync") + f("migrations") + f("scan_pages")
	probesPerGet := ratio(f("sstable_probes"), gets)
	walPerPut := ratio(f("wal_records_appended"), puts)

	m := map[string]float64{
		"core.put.stall_ns_per_put": ratio(f("stall_ns_total"), puts),
		"core.put.shed_ratio":       ratio(f("puts_shed"), puts+f("puts_shed")),

		"wal.bytes_per_put":   ratio(f("wal_bytes_appended"), puts),
		"wal.puts_per_commit": ratio(f("wal_records_appended"), f("wal_group_commits")),

		"memtable.hit_ratio":  ratio(f("memtable_hits"), gets),
		"lru.local_hit_ratio": ratio(f("local_cache_hits"), gets),

		"sstable.probes_per_get":         probesPerGet,
		"sstable.reader_cache_hit_ratio": ratio(f("reader_cache_hits"), f("reader_cache_hits")+f("reader_cache_misses")),

		"nvm.reads_per_get":            ratio(float64(d.dev.Reads), gets),
		"nvm.read_bytes_per_get":       ratio(float64(d.dev.BytesRead), gets),
		"nvm.read_bytes_per_scan_pair": ratio(float64(d.dev.BytesRead), pairs),
		"nvm.write_amp":                ratio(float64(d.dev.BytesWritten), userBytes),

		"mpi.msgs_per_op":  ratio(float64(d.msgs), ops),
		"mpi.bytes_per_op": ratio(float64(d.msgBytes), ops),

		"core.rpc.remote_share":      ratio(f("gets_remote")+f("puts_remote")+f("puts_sync"), gets+puts),
		"core.rpc.retry_ratio":       ratio(f("get_retries")+f("put_sync_retries")+f("migration_retries")+f("scan_retries"), remoteReqs),
		"core.rpc.replies_unclaimed": f("replies_unclaimed"),

		"core.migrate.pairs_per_batch": ratio(f("migrated_pairs"), f("migrations")),

		"core.flush.count":                 f("flushes"),
		"core.compact.count":               f("compactions"),
		"core.compact.bytes_per_user_byte": ratio(f("compaction_bytes_written"), userBytes),
		"core.compact.deferred":            f("compactions_deferred"),
		"core.scan.pages_per_scan":         ratio(f("scan_pages"), scans),
		"core.scan.pairs_per_scan":         ratio(pairs, scans),
		"manifest.edits_per_flush":         ratio(f("manifest_edits"), f("flushes")),
		"go.allocs_per_op":                 ratio(float64(d.allocs), ops),
		"go.gc_cpu_fraction":               ratio(d.gcCPU, d.allCPU),
	}
	for k, v := range rp.ns {
		m[k] = v
	}
	m["bloom.negative_ratio"] = rp.bloomNegative
	// Layer time per op: calls per op from the counters times the
	// replay's time per call.
	m["layer.sstable_ns_per_get"] = probesPerGet * rp.ns["sstable.get_ns"]
	m["layer.bloom_ns_per_get"] = probesPerGet * rp.ns["bloom.may_contain_ns"]
	m["layer.lru_ns_per_get"] = ratio(f("gets_local"), gets) * rp.ns["lru.get_ns"]
	m["layer.wal_ns_per_put"] = walPerPut * rp.ns["wal.append_ns"]
	m["layer.memtable_ns_per_put"] = walPerPut * rp.ns["memtable.put_ns"]
	m["layer.mpi_ns_per_op"] = ratio(float64(d.msgs), ops) / 2 * rp.ns["mpi.roundtrip_ns"]
	// A scan seeks every live table of every rank once.
	m["layer.sstable_seek_ns_per_op"] = ratio(scans, ops) * float64(rp.tables) * rp.ns["sstable.seek_ns"]
	return m
}
