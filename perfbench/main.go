// Command perfbench is the repository benchmark. It drives the public
// papyruskv API with two ranks, each running one closed-loop client, on one
// of four workloads, checks every result, and prints every metric by name
// with its unit. BENCHMARK.json at the repository root describes the
// workloads and metrics; perfbench/run.sh builds and runs this command.
//
//	perfbench --workload <ingest|read_uniform|update_zipf|scan_short> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics, with --trace 1 the per-layer metrics of a traced run and its
// layer replay. The line before it is the full report: host, option set,
// workload shape, every timing summary and counter.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"time"
)

// metricDef is one reported metric; BENCHMARK.json lists the same names,
// units and directions (a test keeps them in step).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
	{"space_amp", "ratio", "lower"},
	{"mem_avg_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"core.put.stall_ns_per_put", "ns", "lower"},
	{"core.put.shed_ratio", "ratio", "lower"},
	{"wal.bytes_per_put", "B", "lower"},
	{"wal.puts_per_commit", "count", "higher"},
	{"wal.append_ns", "ns", "lower"},
	{"wal.group_commit_ns", "ns", "lower"},
	{"memtable.put_ns", "ns", "lower"},
	{"memtable.get_ns", "ns", "lower"},
	{"memtable.hit_ratio", "ratio", "higher"},
	{"lru.local_hit_ratio", "ratio", "higher"},
	{"lru.get_ns", "ns", "lower"},
	{"bloom.negative_ratio", "ratio", "higher"},
	{"bloom.may_contain_ns", "ns", "lower"},
	{"sstable.probes_per_get", "count", "lower"},
	{"sstable.reader_cache_hit_ratio", "ratio", "higher"},
	{"sstable.get_ns", "ns", "lower"},
	{"sstable.seek_ns", "ns", "lower"},
	{"nvm.reads_per_get", "count", "lower"},
	{"nvm.read_bytes_per_get", "B", "lower"},
	{"nvm.read_bytes_per_scan_pair", "B", "lower"},
	{"nvm.write_amp", "ratio", "lower"},
	{"mpi.msgs_per_op", "count", "lower"},
	{"mpi.bytes_per_op", "B", "lower"},
	{"mpi.roundtrip_ns", "ns", "lower"},
	{"core.rpc.remote_share", "ratio", "lower"},
	{"core.rpc.retry_ratio", "ratio", "lower"},
	{"core.rpc.replies_unclaimed", "count", "lower"},
	{"core.migrate.pairs_per_batch", "count", "higher"},
	{"core.flush.count", "count", "lower"},
	{"core.compact.count", "count", "lower"},
	{"core.compact.bytes_per_user_byte", "ratio", "lower"},
	{"core.compact.deferred", "count", "lower"},
	{"core.scan.pages_per_scan", "count", "lower"},
	{"core.scan.pairs_per_scan", "count", "higher"},
	{"core.scan.iterator_open_ns", "ns", "lower"},
	{"manifest.edits_per_flush", "count", "lower"},
	{"go.allocs_per_op", "count", "lower"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"layer.sstable_ns_per_get", "ns", "lower"},
	{"layer.bloom_ns_per_get", "ns", "lower"},
	{"layer.lru_ns_per_get", "ns", "lower"},
	{"layer.wal_ns_per_put", "ns", "lower"},
	{"layer.memtable_ns_per_put", "ns", "lower"},
	{"layer.mpi_ns_per_op", "ns", "lower"},
	{"layer.sstable_seek_ns_per_op", "ns", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.client_self_ns_per_op", "ns", "lower"},
}

// An untraced run times set-ups until it has `setups` whose steal (see
// stealLimit) stayed within the limit, or maxSetups in all; setup_s is the
// median of the `setups` least stolen.
const setups, maxSetups = 3, 4

// A window of the timed phase in which the hypervisor stole more than
// stealLimit of the host's CPU time measured the neighbours as much as the
// program. The throughput and latency figures are medians over the clean
// windows when at least half of the windows are clean. A timed phase with
// fewer clean windows is run again from a fresh set-up, up to attempts
// times in all; the attempt with the most clean windows is reported, and
// the report marks it when even that one had too few. A traced run is not
// retried (its per-layer figures have no bound), and neither is a run whose
// first attempt took longer than retryBefore: a host that slow would take
// the second attempt past the exit deadline.
const (
	stealLimit  = 0.05
	attempts    = 2
	retryBefore = 60 * time.Second
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "ingest, read_uniform, update_zipf or scan_short")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch databases and trace files")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <ingest|read_uniform|update_zipf|scan_short> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	base, err := filepath.Abs(filepath.Join(*out, "run", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The contract is an exit within 180 s; a wedged run fails loudly,
	// with every goroutine's stack, instead of hanging, and leaves no
	// databases behind.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.RemoveAll(base)
		os.Exit(3)
	})

	report, res, err := execute(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(map[string]any{"report": report})
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute measures workload w with its scratch databases under base, and
// removes base before it returns.
func execute(w *workloadSpec, seed int64, dur time.Duration, tracing bool, out, base string) (map[string]any, result, error) {
	defer os.RemoveAll(base)

	begin := time.Now()
	in := genInputs(w, seed)
	var r *run
	var ss []setupSample
	var steals []float64
	var cleans []int
	var attemptWall []float64
	for a := 0; a < attempts; a++ {
		t0 := time.Now()
		cand, err := newRun(w, in, seed, dur, tracing, filepath.Join(base, fmt.Sprintf("cluster%d", a)))
		if err != nil {
			return nil, result{}, err
		}
		if err := cand.measure(); err != nil {
			return nil, result{}, err
		}
		attemptWall = append(attemptWall, time.Since(t0).Seconds())
		ss = append(ss, cand.setupSample())
		steals = append(steals, cand.steal())
		cleans = append(cleans, cand.cleanWindows())
		// An attempt that saw a wrong result is reported, never retried.
		wrong := cand.totals().failed > 0 || cand.lost() > 0
		if r == nil || wrong || cand.cleanWindows() > r.cleanWindows() ||
			cand.cleanWindows() == r.cleanWindows() && cand.steal() < r.steal() {
			if r != nil {
				os.RemoveAll(r.dir)
			}
			r = cand
		} else {
			os.RemoveAll(cand.dir)
		}
		if wrong || cand.mostlyClean() || tracing || time.Since(begin) > retryBefore {
			break
		}
	}
	if r.samples.err != nil {
		return nil, result{}, fmt.Errorf("sampling device bytes: %w", r.samples.err)
	}
	t := r.totals()
	named := timedMetrics(r, t)

	for i := len(ss); !tracing && i < maxSetups && cleanSetups(ss) < setups; i++ {
		s, err := setupOnly(w, in, seed, filepath.Join(base, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		ss = append(ss, s.setupSample())
	}
	named["setup_s"] = metricValue{setupMedian(ss), "s"}

	report := map[string]any{
		"workload":               w.name,
		"seed":                   seed,
		"seconds":                dur.Seconds(),
		"trace":                  tracing,
		"host":                   hostRecord(),
		"options":                optionRecord(benchOptions()),
		"clients":                fmt.Sprintf("%d ranks, one closed-loop client each", ranks),
		"setups":                 ss,
		"setup_settle_idle":      settleIdleShare(ss),
		"sstables_at_start":      r.tablesAtStart,
		"elapsed_s":              r.end.Sub(r.start).Seconds(),
		"space_walk_share":       r.samples.walk.Seconds() / r.end.Sub(r.start).Seconds(),
		"attempt_steal":          steals,
		"attempt_clean_windows":  cleans,
		"attempt_wall_s":         attemptWall,
		"wall_s":                 time.Since(begin).Seconds(),
		"window_steal":           r.samples.steal,
		"steal_over_limit":       !r.mostlyClean(),
		"window_ops":             windowOps(t.win),
		"pairs_lost_or_degraded": r.lost(),
		"errors":                 t.errs,
	}
	defs := endToEnd
	if tracing {
		defs = perLayer
		if err := traceMetrics(r, t, named, report, filepath.Join(base, "replay"), filepath.Join(out, "traces", w.name+".jsonl")); err != nil {
			return nil, result{}, err
		}
	}

	res := result{
		Correct:   t.failed == 0 && r.lost() == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := named[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, result{}, fmt.Errorf("metric %s not measured (too few samples?)", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v.Value, Unit: d.unit}
		named[d.name] = res.Metrics[d.name]
	}
	report["metrics"] = named
	return report, res, nil
}

// setupSample is one set-up's time (see run.setupTime) and the share of
// the host's CPU time stolen during it.
type setupSample struct {
	Work  float64 `json:"s"`
	Idle  float64 `json:"settle_idle_s"`
	Steal float64 `json:"steal"`
}

func cleanSetups(ss []setupSample) int {
	n := 0
	for _, s := range ss {
		if s.Steal <= stealLimit {
			n++
		}
	}
	return n
}

// setupMedian is the median time of the `setups` least stolen set-ups.
func setupMedian(ss []setupSample) float64 {
	ss = slices.Clone(ss)
	slices.SortStableFunc(ss, func(a, b setupSample) int { return cmp.Compare(a.Steal, b.Steal) })
	var t []float64
	for _, s := range ss[:min(setups, len(ss))] {
		t = append(t, s.Work)
	}
	return median(t)
}

// settleIdleShare is the share of the set-ups' wall time that setup_s
// leaves out as the settles' confirmation waits.
func settleIdleShare(ss []setupSample) float64 {
	var work, idle float64
	for _, s := range ss {
		work, idle = work+s.Work, idle+s.Idle
	}
	return ratio(idle, work+idle)
}

// timedMetrics derives the timed phase's end-to-end figures. Throughput,
// latency and space are medians over windows, so one burst of background
// work, one GC cycle or one spell of a neighbour's load, or where the
// compaction cycle stands when the phase ends, does not move a run's
// figure.
func timedMetrics(r *run, t opsSummary) map[string]metricValue {
	named := map[string]metricValue{}
	add := func(name, unit string, v float64) { named[name] = metricValue{v, unit} }
	var rates []float64
	var lats []*hist
	for i, rate := range windowRates(t.win, r.end.Sub(r.start)) {
		if r.counts(i) {
			rates = append(rates, rate)
			lats = append(lats, t.win[i].lat)
		}
	}
	add("ops_per_s", "1/s", median(rates))
	add("op_error_ratio", "ratio", ratio(float64(t.failed), float64(t.attempted)))

	add("space_amp", "ratio", median(r.samples.spaceAmp))
	add("mem_avg_mb", "MB", r.samples.heapSum/float64(r.samples.heapPolls)/(1<<20))
	add("mem_peak_mb", "MB", float64(r.samples.heapPeak)/(1<<20))
	for _, p := range []float64{50, 90, 99} {
		if v, ok := windowedQuantile(lats, p); ok {
			add(fmt.Sprintf("op_p%g_us", p), "us", v/1e3)
		}
	}
	for _, k := range r.w.kinds {
		h := t.lat[k]
		s := h.summary()
		add(k+"_count", "count", float64(s.N))
		if s.N == 0 {
			continue
		}
		add(k+"_p50_us", "us", s.P50/1e3)
		if p99, ok := h.p99(); ok {
			add(k+"_p99_us", "us", p99/1e3)
		}
		if s.TailPct > 50 && s.TailPct != 99 {
			add(fmt.Sprintf("%s_p%g_us", k, s.TailPct), "us", s.Tail/1e3)
		}
	}
	return named
}

// traceMetrics adds a traced run's per-layer metrics to named: counter
// deltas, the layer replay, and the tracing overhead. It writes the spans
// to spanPath.
func traceMetrics(r *run, t opsSummary, named map[string]metricValue, report map[string]any, scratch, spanPath string) error {
	d := delta(r.before, r.after)
	putsPerCommit := ratio(float64(d.core["wal_records_appended"]), float64(d.core["wal_group_commits"]))
	rp, err := replayLayers(r.dir, scratch, t.sample, putsPerCommit, r.iterOpenNs[:])
	if err != nil {
		return err
	}
	for k, v := range layerMetrics(d, t, rp) {
		named[k] = metricValue{Value: v}
	}
	untracedS, tracedS := sliceTimes(r.dur)
	named["trace.overhead_ratio"] = metricValue{Value: ratio(float64(t.done[0])/untracedS, float64(t.done[1])/tracedS) - 1}
	self, roots := selfTime(r.tracers())
	named["trace.client_self_ns_per_op"] = metricValue{Value: self}
	var spans, dropped uint64
	for _, tr := range r.tracers() {
		spans += uint64(len(tr.spans))
		dropped += tr.dropped
	}
	report["trace_spans"] = spans
	report["trace_spans_dropped"] = dropped
	report["trace_roots"] = roots
	report["trace_file"] = spanPath
	if err := writeSpans(spanPath, r.tracers()); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// windowRates is each window's ops over its wall time. Every window lasts
// windowLen but the last, which runs to the end of the phase: fences count
// toward the window they fall in, ingest's final barrier toward the last.
func windowRates(ws []window, phase time.Duration) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		d := windowLen
		if i == len(ws)-1 {
			d = phase - time.Duration(i)*windowLen
		}
		out[i] = float64(w.ops) / d.Seconds()
	}
	return out
}

func windowOps(ws []window) []uint64 {
	out := make([]uint64, len(ws))
	for i, w := range ws {
		out[i] = w.ops
	}
	return out
}

// sliceTimes splits a traced run's timed phase into the time spent in
// untraced and traced slices.
func sliceTimes(d time.Duration) (untraced, traced float64) {
	for i := 0; time.Duration(i)*traceSlice < d; i++ {
		s := min(traceSlice, d-time.Duration(i)*traceSlice).Seconds()
		if i%2 == 0 {
			untraced += s
		} else {
			traced += s
		}
	}
	return untraced, traced
}
