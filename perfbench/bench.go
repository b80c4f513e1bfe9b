package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"papyruskv"
	"papyruskv/internal/workload"
)

const (
	// ranks is the SPMD world size; each rank's application goroutine is
	// one closed-loop client.
	ranks          = 2
	preloadPerRank = 100_000
	fenceEvery     = 1000
	dbName         = "bench"
	// traceSlice is the period at which a traced run alternates untraced
	// and traced ops, so both see the same database state and the
	// difference between them is the tracing overhead.
	traceSlice = 250 * time.Millisecond
	// sampleCap bounds the keys and ranges each client keeps for the
	// layer replay and the ingest read-back.
	sampleCap = 2048
	// windowLen splits the timed phase into windows; latency and space
	// are reported as medians over windows.
	windowLen = time.Second
)

// benchOptions is the one option set every workload opens with: a 1 MB
// MemTable and local cache (the preload is 28x the cache), no background
// scrub (its 60 s timer would fire in some runs and not others), and
// DefaultOptions for the rest.
func benchOptions() papyruskv.Options {
	o := papyruskv.DefaultOptions()
	o.MemTableCapacity = 1 << 20
	o.LocalCacheCapacity = 1 << 20
	o.ScrubInterval = -1
	return o
}

// inputs is everything generated from the seed before set-up; clients only
// read it.
type inputs struct {
	own    [ranks][][]byte // preload keys, by the rank that loads them
	all    [][]byte        // every preloaded key
	ranked [ranks][][]byte // update_zipf: own keys in Zipf rank order
	ranges []prefixRange   // scan_short
}

func genInputs(w *workloadSpec, seed int64) *inputs {
	in := &inputs{}
	seen := map[string]struct{}{}
	for r := 0; r < ranks; r++ {
		in.own[r] = genKeys(streamSeed(seed, streamPreload+int64(r)), preloadPerRank, seen)
		in.all = append(in.all, in.own[r]...)
		if w.name == "update_zipf" {
			rng := rand.New(rand.NewSource(streamSeed(seed, streamLayout+int64(r))))
			in.ranked[r] = rankedKeys(rng, in.own[r], func(k []byte) bool { return papyruskv.DefaultHash(k, ranks) == r })
		}
	}
	if w.name == "scan_short" {
		in.ranges = prefixRanges(in.all)
	}
	return in
}

// workloadSpec is one workload: the consistency mode of its timed phase
// and its op. Every workload starts from the same preload.
type workloadSpec struct {
	name       string
	sequential bool
	// kinds are the op kinds its timed phase times, in report order.
	kinds []string
	step  func(c *client, tr *tracer)
}

var workloads = []*workloadSpec{
	{name: "ingest", kinds: []string{"put", "fence", "barrier"}, step: (*client).ingestStep},
	{name: "read_uniform", kinds: []string{"get"}, step: (*client).readStep},
	{name: "update_zipf", sequential: true, kinds: []string{"get", "put"}, step: (*client).updateStep},
	{name: "scan_short", kinds: []string{"scan"}, step: (*client).scanStep},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// client is one rank's closed-loop client: it sends its next op only after
// the previous one returned.
type client struct {
	rank  int
	db    *papyruskv.DB
	w     *workloadSpec
	in    *inputs
	ops   *opStream
	keys  *workload.KeyGen // ingest's fresh keys
	fresh *atomic.Uint64   // ingest's fresh keys put, shared by the clients
	rng   *rand.Rand       // sampling

	versions []uint32 // update_zipf: the version last written, by ranked index
	val      []byte
	scratch  []byte
	sc       scanCheck

	lat   map[string]*hist // by op kind
	win   []window         // workload ops (not fences or barriers) by window
	cur   *window
	done  [2]uint64 // workload ops completed untraced / traced
	puts  uint64    // successful puts (user bytes written)
	gets  uint64
	scans uint64
	pairs uint64 // scan pairs delivered

	attempted, failed uint64
	errs              []string

	sample []sampled // keys and ranges for the replay and ingest read-back
	seen   uint64    // candidates offered to the reservoir

	tr  *tracer
	seq uint64
}

// window is one windowLen slice of the timed phase: the ops started in it
// and their latencies.
type window struct {
	ops uint64
	lat *hist
}

func newWindows(n int) []window {
	ws := make([]window, n)
	for i := range ws {
		ws[i].lat = newHist()
	}
	return ws
}

// sampled is one key (get and put workloads) or one range (scan_short) a
// client touched.
type sampled struct {
	key []byte
	r   prefixRange
}

func newClient(rank int, w *workloadSpec, in *inputs, seed int64, epoch time.Time) *client {
	c := &client{
		rank:    rank,
		w:       w,
		in:      in,
		rng:     rand.New(rand.NewSource(streamSeed(seed, streamSample+int64(rank)))),
		val:     make([]byte, valueLen),
		scratch: make([]byte, valueLen),
		lat:     map[string]*hist{},
		tr:      newTracer(epoch),
	}
	for _, k := range w.kinds {
		c.lat[k] = newHist()
	}
	opSeed := streamSeed(seed, streamOps+int64(rank))
	switch w.name {
	case "ingest":
		c.keys = workload.NewKeyGen(streamSeed(seed, streamIngest+int64(rank)), keyLen)
	case "read_uniform":
		c.ops = newUniformStream(opSeed, len(in.all), 100)
	case "update_zipf":
		c.ops = newZipfStream(opSeed, len(in.ranked[rank]), readPct)
		c.versions = make([]uint32, len(in.ranked[rank]))
	case "scan_short":
		c.ops = newUniformStream(opSeed, len(in.ranges), 100)
	}
	return c
}

// offer keeps a uniform sample (reservoir) of what the client touched.
func (c *client) offer(s sampled) {
	c.seen++
	if len(c.sample) < sampleCap {
		c.sample = append(c.sample, s)
	} else if j := c.rng.Int63n(int64(c.seen)); j < sampleCap {
		c.sample[j] = s
	}
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("rank %d: %v", c.rank, err))
	}
}

// call times one DB call, as a child span of the op's root span when
// traced, and records its latency under kind.
func (c *client) call(tr *tracer, trace uint64, root int32, kind, name string, op bool, fn func() error) error {
	sp := tr.begin(trace, root, name)
	t0 := time.Now()
	err := fn()
	d := int64(time.Since(t0))
	tr.end(sp)
	c.lat[kind].add(d)
	if op {
		c.cur.lat.add(d)
	}
	c.attempted++
	if err != nil {
		c.fail(err)
	}
	return err
}

func (c *client) nextTrace() uint64 {
	c.seq++
	return uint64(c.rank)<<56 | c.seq
}

func (c *client) ingestStep(tr *tracer) {
	trace := c.nextTrace()
	root := tr.begin(trace, -1, "op.put")
	key := c.keys.Next()
	putValue(c.val, key, 0)
	if c.call(tr, trace, root, "put", "db.Put", true, func() error { return c.db.Put(key, c.val) }) == nil {
		c.puts++
		c.fresh.Add(1)
		c.offer(sampled{key: key})
	}
	tr.end(root)
	if (c.done[0]+c.done[1]+1)%fenceEvery == 0 {
		trace := c.nextTrace()
		root := tr.begin(trace, -1, "op.fence")
		c.call(tr, trace, root, "fence", "db.Fence", false, c.db.Fence)
		tr.end(root)
	}
}

func (c *client) readStep(tr *tracer) {
	trace := c.nextTrace()
	root := tr.begin(trace, -1, "op.get")
	key := c.in.all[c.ops.next().idx]
	var v []byte
	err := c.call(tr, trace, root, "get", "db.Get", true, func() (err error) { v, err = c.db.Get(key); return err })
	if err == nil {
		c.gets++
		if err := checkValue(key, v, 0, c.scratch); err != nil {
			c.fail(err)
		}
	}
	c.offer(sampled{key: key})
	tr.end(root)
}

func (c *client) updateStep(tr *tracer) {
	o := c.ops.next()
	key := c.in.ranked[c.rank][o.idx]
	trace := c.nextTrace()
	if o.get {
		root := tr.begin(trace, -1, "op.get")
		var v []byte
		err := c.call(tr, trace, root, "get", "db.Get", true, func() (err error) { v, err = c.db.Get(key); return err })
		if err == nil {
			c.gets++
			if err := checkValue(key, v, c.versions[o.idx], c.scratch); err != nil {
				c.fail(err)
			}
		}
		tr.end(root)
	} else {
		root := tr.begin(trace, -1, "op.put")
		putValue(c.val, key, c.versions[o.idx]+1)
		if c.call(tr, trace, root, "put", "db.Put", true, func() error { return c.db.Put(key, c.val) }) == nil {
			c.puts++
			c.versions[o.idx]++
		}
		tr.end(root)
	}
	c.offer(sampled{key: key})
}

func (c *client) scanStep(tr *tracer) {
	r := c.in.ranges[c.ops.next().idx]
	trace := c.nextTrace()
	root := tr.begin(trace, -1, "op.scan")
	c.sc = scanCheck{r: r, prev: c.sc.prev[:0], scratch: c.scratch}
	err := c.call(tr, trace, root, "scan", "db.Scan", true, func() error {
		return c.db.Scan(context.Background(), r.lo, r.hi, func(k, v []byte) error {
			c.sc.add(k, v)
			return nil
		})
	})
	c.pairs += uint64(c.sc.n)
	if err == nil {
		c.scans++
		if err := c.sc.finish(); err != nil {
			c.fail(err)
		}
	}
	c.offer(sampled{r: r})
	tr.end(root)
}

// runTimed drives the client's closed loop until the deadline. In a traced
// run, ops alternate between untraced and traced slices.
func (c *client) runTimed(start time.Time, dur time.Duration, tracing bool) {
	deadline := start.Add(dur)
	c.win = newWindows(windows(dur))
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		c.cur = &c.win[min(int(now.Sub(start)/windowLen), len(c.win)-1)]
		var tr *tracer
		mode := 0
		if tracing && (now.Sub(start)/traceSlice)%2 == 1 {
			tr, mode = c.tr, 1
		}
		c.w.step(c, tr)
		c.cur.ops++
		c.done[mode]++
	}
}

// readBack checks ingest's sampled keys after the final barrier.
func (c *client) readBack() {
	for _, s := range c.sample {
		v, err := c.db.Get(s.key)
		c.attempted++
		if err != nil {
			c.fail(fmt.Errorf("read-back %q: %w", s.key, err))
			continue
		}
		if err := checkValue(s.key, v, 0, c.scratch); err != nil {
			c.fail(fmt.Errorf("read-back: %w", err))
		}
	}
}

// preload puts the rank's own keys in relaxed mode, in chunks each
// followed by Barrier(SSTableLevel) and a settle. A chunk fills no
// MemTable (4,000 pairs from each rank is about 770 KB per owner, under the
// 1 MB capacity), so every flush happens at a barrier and every compaction
// finishes before the next flush: the LSM shape the timed phase starts from
// is the same on every run. Left to overlap, flushes and compactions
// raced, and the table count at the start ranged from 4 to 11, which moved
// scan latency by up to 2x. Set-up must not fail, so a put shed by
// admission control is retried. It returns the time the settles spent
// confirming that nothing changed, which is the benchmark's own waiting.
func preload(db *papyruskv.DB, keys [][]byte) (idle time.Duration, err error) {
	const chunk = 4000
	val := make([]byte, valueLen)
	for i, k := range keys {
		putValue(val, k, 0)
		for {
			err := db.Put(k, val)
			if err == nil {
				break
			}
			if !errors.Is(err, papyruskv.ErrWriteStalled) {
				return idle, fmt.Errorf("preload put: %w", err)
			}
			time.Sleep(time.Millisecond)
		}
		if (i+1)%chunk == 0 || i == len(keys)-1 {
			if err := db.Barrier(papyruskv.SSTableLevel); err != nil {
				return idle, err
			}
			d, err := settle(db)
			if err != nil {
				return idle, err
			}
			idle += d
		}
	}
	return idle, nil
}

// settle waits until the rank's background work is done: its table count,
// flush and compaction counters and device reads and writes all stop
// changing (a running compaction reads and writes as it merges). It returns
// the time from the last change it saw to its return: the confirmation
// that nothing more is running, spent sleeping.
func settle(db *papyruskv.DB) (idle time.Duration, err error) {
	const poll, stableFor, limit = time.Millisecond, 50, 60 * time.Second
	read := func() [5]uint64 {
		m := db.Metrics()
		d := db.Runtime().Device().Stats()
		return [5]uint64{uint64(db.SSTableCount()), m.Flushes.Load(), m.Compactions.Load(), d.Reads, d.Writes}
	}
	t0 := time.Now()
	last, changed := read(), t0
	for stable := 0; stable < stableFor; {
		if time.Since(t0) > limit {
			return 0, fmt.Errorf("background work did not settle within %v", limit)
		}
		time.Sleep(poll)
		if cur := read(); cur == last {
			stable++
		} else {
			stable, last, changed = 0, cur, time.Now()
		}
	}
	return time.Since(changed), nil
}

// sampler watches the timed phase: the live Go heap (as marked by the
// latest GC, which, unlike all heap objects, does not depend on when the
// collector happens to run), polled every 10 ms, and at the end of each
// window the space amplification, device bytes over live user bytes, and
// the share of the host's CPU time stolen in the window.
type sampler struct {
	stop, done chan struct{}
	heapPeak   uint64  // bytes
	heapSum    float64 // bytes, over the polls
	heapPolls  int
	spaceAmp   []float64 // by window
	steal      []float64 // by window
	walk       time.Duration
	err        error
}

func startSampler(start time.Time, n int, dbDirs []string, liveBytes func() float64) *sampler {
	m := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	cpu := markCPU()
	closeWindow := func() {
		now := markCPU()
		m.steal = append(m.steal, stolen(cpu, now))
		cpu = now
		t0 := time.Now()
		var dev int64
		for _, d := range dbDirs {
			b, err := dirBytes(d)
			if err != nil && m.err == nil {
				m.err = err
			}
			dev += b
		}
		m.spaceAmp = append(m.spaceAmp, float64(dev)/liveBytes())
		m.walk += time.Since(t0)
	}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			m.heapPeak = max(m.heapPeak, s[0].Value.Uint64())
			m.heapSum += float64(s[0].Value.Uint64())
			m.heapPolls++
			if len(m.spaceAmp) < min(int(time.Since(start)/windowLen), n) {
				closeWindow()
			}
			select {
			case <-m.stop:
				for len(m.spaceAmp) < n {
					closeWindow()
				}
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// Stop ends sampling; the figures are safe to read once it returns.
func (m *sampler) Stop() {
	close(m.stop)
	<-m.done
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	// Compaction deletes files under a running walk; a vanished file
	// holds no bytes.
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// deviceDir is rank r's NVM device under a cluster directory: one storage
// group per rank, so one device each.
func deviceDir(clusterDir string, r int) string {
	return filepath.Join(clusterDir, fmt.Sprintf("nvm-g%d", r))
}

// run is one measured execution: set-up, the timed phase, quiescence, and
// (traced) the iterator-open replay, all inside one Cluster.Run.
type run struct {
	w       *workloadSpec
	in      *inputs
	seed    int64
	dur     time.Duration
	tracing bool
	dir     string

	cl      *papyruskv.Cluster
	dbs     [ranks]*papyruskv.DB
	clients [ranks]*client
	fabs    fabrics

	t0, setupEnd, start, end time.Time
	setupIdle                [ranks]time.Duration // settle confirmation in set-up
	before, after            counters
	samples                  *sampler
	cpu0, cpuSetup           cpuMark       // host CPU counters at t0 and setupEnd
	cpuStart, cpuEnd         cpuMark       // ... and over the timed phase
	fresh                    atomic.Uint64 // ingest: fresh keys put so far
	iterOpenNs               [ranks]float64
	tablesAtStart            [ranks]int
	lostOrDegraded           [ranks]uint64
}

func newRun(w *workloadSpec, in *inputs, seed int64, dur time.Duration, tracing bool, dir string) (*run, error) {
	r := &run{w: w, in: in, seed: seed, dur: dur, tracing: tracing, dir: dir}
	r.t0, r.cpu0 = time.Now(), markCPU()
	cl, err := papyruskv.NewCluster(papyruskv.ClusterConfig{Ranks: ranks, Dir: dir, NVM: papyruskv.DRAMClass})
	if err != nil {
		return nil, err
	}
	r.cl = cl
	if r.fabs, err = clusterFabrics(cl); err != nil {
		return nil, err
	}
	return r, nil
}

// setUp opens the database on a rank and brings it to the workload's
// starting state.
func (r *run) setUp(ctx *papyruskv.Context) (*papyruskv.DB, error) {
	opt := benchOptions()
	db, err := ctx.Open(dbName, &opt)
	if err != nil {
		return nil, err
	}
	if r.setupIdle[ctx.Rank()], err = preload(db, r.in.own[ctx.Rank()]); err != nil {
		return db, err
	}
	if r.w.sequential {
		if err := db.SetConsistency(papyruskv.Sequential); err != nil {
			return db, err
		}
	}
	return db, ctx.Barrier()
}

// setupOnly runs just the set-up and returns the run holding its timings.
func setupOnly(w *workloadSpec, in *inputs, seed int64, dir string) (*run, error) {
	r, err := newRun(w, in, seed, 0, false, dir)
	if err != nil {
		return nil, err
	}
	err = r.cl.Run(func(ctx *papyruskv.Context) error {
		db, err := r.setUp(ctx)
		if err != nil {
			if db != nil {
				db.Close()
			}
			return err
		}
		if ctx.Rank() == 0 {
			r.setupEnd, r.cpuSetup = time.Now(), markCPU()
		}
		return db.Close()
	})
	if err != nil {
		return nil, err
	}
	return r, os.RemoveAll(dir)
}

// setupSample is the set-up's wall time on rank 0 less the time its
// settles spent confirming that nothing changed: the program's work (puts,
// barriers, flushes, compactions), not the benchmark's waiting. The ranks
// meet at every chunk's barrier, so rank 0's time also covers rank 1's
// work.
func (r *run) setupSample() setupSample {
	idle := r.setupIdle[0].Seconds()
	return setupSample{
		Work:  r.setupEnd.Sub(r.t0).Seconds() - idle,
		Idle:  idle,
		Steal: stolen(r.cpu0, r.cpuSetup),
	}
}

// measure runs set-up and the timed phase.
func (r *run) measure() error {
	err := r.cl.Run(func(ctx *papyruskv.Context) error {
		rank := ctx.Rank()
		db, err := r.setUp(ctx)
		if err != nil {
			if db != nil {
				db.Close()
			}
			return err
		}
		r.tablesAtStart[rank] = db.SSTableCount()
		c := newClient(rank, r.w, r.in, r.seed, r.t0)
		c.db, c.fresh = db, &r.fresh
		r.dbs[rank], r.clients[rank] = db, c
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			r.setupEnd, r.cpuSetup = time.Now(), markCPU()
			r.before = readCounters(r.dbs[:], r.fabs)
			var dbDirs []string
			for q := 0; q < ranks; q++ {
				dbDirs = append(dbDirs, filepath.Join(deviceDir(r.dir, q), dbName))
			}
			r.cpuStart = markCPU()
			r.samples = startSampler(time.Now(), windows(r.dur), dbDirs, func() float64 {
				return float64(uint64(len(r.in.all))+r.fresh.Load()) * pairLen
			})
			r.start = time.Now()
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}

		c.runTimed(r.start, r.dur, r.tracing)
		if r.w.name == "ingest" {
			trace := c.nextTrace()
			root := c.tr.begin(trace, -1, "op.barrier")
			c.call(c.tr, trace, root, "barrier", "db.Barrier", false, func() error { return db.Barrier(papyruskv.SSTableLevel) })
			c.tr.end(root)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}
		if rank == 0 {
			r.end = time.Now()
			r.samples.Stop()
			r.cpuEnd = markCPU()
			r.after = readCounters(r.dbs[:], r.fabs)
		}
		if err := ctx.Barrier(); err != nil {
			return err
		}

		if r.w.name == "ingest" {
			c.readBack()
		}

		// Everything flushed and background work done before the lost-pair
		// check and the replay, which reads the device state the run left.
		if err := db.Barrier(papyruskv.SSTableLevel); err != nil {
			return err
		}
		if _, err := settle(db); err != nil {
			return err
		}
		if r.tracing {
			if r.iterOpenNs[rank], err = iteratorOpenNs(db, c.sample); err != nil {
				return err
			}
		}
		m := db.Metrics()
		r.lostOrDegraded[rank] = m.PairsLost.Load() + m.DegradedTransitions.Load()
		// A retried run holds this one while the next is measured; what
		// it keeps must not weigh on that run's heap.
		c.db, r.dbs[rank] = nil, nil
		return db.Close()
	})
	r.cl = nil
	return err
}

// steal is the share of the host's CPU time the hypervisor stole during
// the timed phase.
func (r *run) steal() float64 { return stolen(r.cpuStart, r.cpuEnd) }

// cleanWindows counts the windows of the timed phase whose steal stayed
// within stealLimit.
func (r *run) cleanWindows() int {
	n := 0
	for _, s := range r.samples.steal {
		if s <= stealLimit {
			n++
		}
	}
	return n
}

// mostlyClean reports whether at least half of the windows were clean.
func (r *run) mostlyClean() bool { return 2*r.cleanWindows() >= len(r.samples.steal) }

// counts reports whether window i counts toward the throughput and latency
// figures: every window does unless the phase is mostly clean, and then
// the clean ones do.
func (r *run) counts(i int) bool {
	return !r.mostlyClean() || r.samples.steal[i] <= stealLimit
}

// lost is the pairs lost and degraded transitions over the ranks; both
// must stay 0.
func (r *run) lost() uint64 {
	var n uint64
	for _, v := range r.lostOrDegraded {
		n += v
	}
	return n
}

// iteratorOpenNs times DB.NewIterator over the sampled scan ranges (or, for
// workloads without scans, two-character ranges of the sampled keys).
func iteratorOpenNs(db *papyruskv.DB, sample []sampled) (float64, error) {
	const maxOpens = 256
	var total time.Duration
	n := 0
	for _, s := range sample {
		if n == maxOpens {
			break
		}
		lo, hi := s.r.lo, s.r.hi
		if lo == nil {
			lo, hi = s.key[:2], []byte{s.key[0], s.key[1] + 1}
		}
		t0 := time.Now()
		it, err := db.NewIterator(lo, hi)
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("replay NewIterator: %w", err)
		}
		it.Close()
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return float64(total) / float64(n), nil
}

func windows(dur time.Duration) int { return max(1, int(dur/windowLen)) }

// opsSummary merges the clients' figures.
type opsSummary struct {
	lat                      map[string]*hist
	win                      []window // merged over clients
	done                     [2]uint64
	puts, gets, scans, pairs uint64
	attempted, failed        uint64
	errs                     []string
	sample                   []sampled
}

func (r *run) totals() opsSummary {
	s := opsSummary{lat: map[string]*hist{}, win: newWindows(windows(r.dur))}
	for _, k := range r.w.kinds {
		s.lat[k] = newHist()
	}
	for _, c := range r.clients {
		for k, h := range c.lat {
			s.lat[k].merge(h)
		}
		for i, w := range c.win {
			s.win[i].ops += w.ops
			s.win[i].lat.merge(w.lat)
		}
		s.done[0] += c.done[0]
		s.done[1] += c.done[1]
		s.puts += c.puts
		s.gets += c.gets
		s.scans += c.scans
		s.pairs += c.pairs
		s.attempted += c.attempted
		s.failed += c.failed
		s.errs = append(s.errs, c.errs...)
		s.sample = append(s.sample, c.sample...)
	}
	return s
}

func (r *run) tracers() []*tracer {
	var ts []*tracer
	for _, c := range r.clients {
		ts = append(ts, c.tr)
	}
	return ts
}
