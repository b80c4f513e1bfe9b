package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// maxSpans bounds one client's span buffer (about 5 MB); spans past it are
// counted, not kept, so a fast workload's traced run cannot exhaust memory.
const maxSpans = 100_000

// span is one timed call made by the benchmark: an op (the root of its
// trace) or the DB call inside it.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int32  `json:"span"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

// tracer records one client's spans in memory. A nil *tracer records
// nothing, which is how untraced ops run.
type tracer struct {
	epoch   time.Time
	spans   []span
	dropped uint64
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1024)}
}

// begin opens a span and returns its handle, or -1 when the buffer is full
// or t is nil.
func (t *tracer) begin(trace uint64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// selfTime returns the mean time root spans spend outside their children:
// the benchmark's own per-op work (key choice, value building, checking).
func selfTime(ts []*tracer) (ns float64, roots int) {
	var total int64
	for _, t := range ts {
		child := make(map[int32]int64)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for _, s := range t.spans {
			if s.Parent < 0 {
				total += s.End - s.Start - child[s.ID]
				roots++
			}
		}
	}
	if roots == 0 {
		return 0, 0
	}
	return float64(total) / float64(roots), roots
}

// writeSpans writes every client's spans as JSON lines to path. Span IDs are
// per client, so each line carries its client's rank.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for rank, t := range ts {
		for _, s := range t.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{rank, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
