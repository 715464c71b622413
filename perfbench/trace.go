package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Spans of one op share Op; Parent indexes the enclosing span
// in the same tracer (-1 for an op's root).
type span struct {
	Op     int       `json:"op"`
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pass nil and pay one nil check per call
// site. It is safe for concurrent use (serve-batch's two callers record
// spans at once).
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span starting now and returns its ID (-1 when tracing
// is off).
func (t *tracer) begin(op, parent int, name string) int {
	return t.add(op, parent, name, time.Now(), time.Time{})
}

// add records a span with explicit bounds (end may be zero and set
// later by finish) and returns its ID.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// finish stamps a span's end time.
func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rename relabels a span once its outcome is known (a cache hit or
// miss, the tier that ran).
func (t *tracer) rename(id int, name string) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is one span's self time: its duration minus the part of
// its interval its child spans cover.
type selfTime struct {
	op   int
	name string
	d    time.Duration
}

// selfTimes computes every finished span's self time. Overlapping
// children are counted once, and child time outside the parent's
// interval is ignored.
func selfTimes(spans []span) []selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []selfTime
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		out = append(out, selfTime{op: s.Op, name: s.Name, d: s.End.Sub(s.Start) - covered(s, children[s.ID])})
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if b.IsZero() {
			continue
		}
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// perOpUS sums the self time of the named spans within each op and
// returns the median over the ops that made such a call, in µs (0 when
// no op did). An op that calls a layer twice (two expressions per time
// step) reports the layer's total for the op.
func perOpUS(self []selfTime, name string) float64 {
	sums := make(map[int]time.Duration)
	for _, s := range self {
		if s.name == name {
			sums[s.op] += s.d
		}
	}
	if len(sums) == 0 {
		return 0
	}
	xs := make([]float64, 0, len(sums))
	for _, d := range sums {
		xs = append(xs, us(d))
	}
	return median(xs)
}

// writeSpans writes the spans as JSON lines to dir/name, creating dir.
func writeSpans(dir, name string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace write: %w", err)
		}
	}
	return w.Flush()
}
