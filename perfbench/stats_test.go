package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"dfg"
)

func TestPercentileTenBeyondRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending: percentile must sort
	}
	p99, err := percentile(xs, 0.99)
	if err != nil {
		t.Fatalf("1000 samples leave 10 beyond p99: %v", err)
	}
	if p99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 (nearest rank)", p99)
	}
	if xs[0] != 1000 {
		t.Fatal("percentile reordered its input")
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("999 samples leave 9 beyond p99; want an error")
	}
	if p50, err := percentile(xs[:20], 0.5); err != nil || p50 != 990 {
		t.Fatalf("p50 of 981..1000 = %v, %v; want 990", p50, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestWindowedP99(t *testing.T) {
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = float64(i % 1000) // three identical windows: p99 = 989
	}
	for i := 1000; i < 1100; i++ {
		xs[i] = 1e6 // a stall in the second window
	}
	got, err := windowedP99(xs)
	if err != nil || got != 989 {
		t.Fatalf("windowed p99 = %v, %v; want 989 (the stalled window is outvoted)", got, err)
	}
	if all, _ := percentile(xs, 0.99); all != 1e6 {
		t.Fatalf("the whole-run p99 should see the stall, got %v", all)
	}
	if _, err := windowedP99(xs[:999]); err == nil {
		t.Fatal("fewer than 1000 samples: want an error")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
}

func TestWindowMedianThroughputIgnoresOneStall(t *testing.T) {
	start := time.Unix(0, 0)
	var done []time.Time
	now := start
	for i := 0; i < 100; i++ {
		now = now.Add(10 * time.Millisecond) // 100 ops/s
		if i == 50 {
			now = now.Add(2 * time.Second) // one host stall
		}
		done = append(done, now)
	}
	got := windowMedianRate(start, done, 5)
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("window-median rate = %v, want 100", got)
	}
	if wall := float64(len(done)) / done[len(done)-1].Sub(start).Seconds(); wall > 40 {
		t.Fatalf("ops over wall time = %v: the stall should have pulled it well below 100", wall)
	}
	if k := windowSize(1000); k != 40 {
		t.Fatalf("window size for 1000 ops = %d, want 40", k)
	}
	if k := windowSize(10); k != 5 {
		t.Fatalf("window size floor = %d, want 5", k)
	}
}

func TestReplayFIFOAndMaxRate(t *testing.T) {
	service := make([]time.Duration, 2000)
	for i := range service {
		service[i] = 10 * time.Millisecond
	}
	// Below 100/s nothing queues: every op takes its own 10 ms.
	for _, l := range replayFIFO(service, 50) {
		if math.Abs(l-10) > 1e-9 {
			t.Fatalf("latency at 50/s = %v, want 10", l)
		}
	}
	// Above it the backlog grows without bound.
	lat := replayFIFO(service, 200)
	if lat[len(lat)-1] < 1000 {
		t.Fatalf("last latency at 200/s = %v, want a growing backlog", lat[len(lat)-1])
	}
	r := maxRateFIFO(service, 20, 1, 100)
	if r < 99 || r > 101 {
		t.Fatalf("max rate = %v, want about 100/s (the service rate)", r)
	}
	if got := maxRateFIFO(service, 5, 1, 100); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("a limit of half the service time: got %v, want the lowest rate scaled by 5/10", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add(7, -1, "op", at(0), at(100))
	a := tr.add(7, root, "child", at(10), at(40))
	tr.add(7, root, "child", at(30), at(60)) // overlaps a: counted once
	tr.add(7, root, "late", at(90), at(130)) // runs past the parent: clipped
	tr.add(7, a, "grandchild", at(15), at(20))
	self := map[string][]time.Duration{}
	for _, s := range selfTimes(tr.snapshot()) {
		if s.op != 7 {
			t.Fatalf("span lost its op ID: %+v", s)
		}
		self[s.name] = append(self[s.name], s.d)
	}
	if got := self["op"][0]; got != 40*time.Millisecond {
		t.Fatalf("root self time = %v, want 100 - 50 (children 10..60) - 10 (late, clipped) = 40ms", got)
	}
	if got := self["child"][0]; got != 25*time.Millisecond {
		t.Fatalf("child self time = %v, want 30 - 5 = 25ms", got)
	}
	if got := perOpUS(selfTimes(tr.snapshot()), "child"); got != 55000 {
		t.Fatalf("per-op child self time = %v µs, want 25+30 ms", got)
	}
	var off *tracer
	if id := off.begin(1, -1, "x"); id != -1 {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, mk := range []func(int64) *serveWorkload{newServeHot, newServeBatch} {
		a, b, c := mk(5), mk(5), mk(6)
		if len(a.cases) != len(b.cases) {
			t.Fatal("case counts differ for one seed")
		}
		for i := range a.cases {
			if a.cases[i].req.Expr != b.cases[i].req.Expr || !reflect.DeepEqual(a.cases[i].req.Inputs, b.cases[i].req.Inputs) {
				t.Fatalf("%s: case %d differs for one seed", a.name, i)
			}
		}
		ra, rb := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
		for i := 0; i < 100; i++ {
			if a.pick(ra) != b.pick(rb) {
				t.Fatalf("%s: draw %d differs for one seed", a.name, i)
			}
		}
		if a.cases[0].req.Expr == c.cases[0].req.Expr {
			t.Fatalf("%s: seeds 5 and 6 gave the same first expression", a.name)
		}
	}
	x, err := newColdInputs(9)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := newColdInputs(9)
	for i := 0; i < 50; i++ {
		if x.draw().text != y.draw().text {
			t.Fatalf("cold op %d differs for one seed", i)
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		text := x.draw().text
		if seen[text] {
			t.Fatalf("cold op text repeated: %q", text)
		}
		seen[text] = true
	}
}

func TestHotExpressionsDistinctAndChecked(t *testing.T) {
	w := newServeHot(1)
	if len(w.cases) != 2*hotDistinct {
		t.Fatalf("%d cases, want %d", len(w.cases), 2*hotDistinct)
	}
	texts := map[string]bool{}
	for _, c := range w.cases {
		texts[c.req.Expr] = true
	}
	if len(texts) != hotDistinct {
		t.Fatalf("%d distinct expressions, want %d", len(texts), hotDistinct)
	}
	// A result off by more than the tolerance fails the check.
	c := w.cases[0]
	got := make([]float32, len(c.want))
	for i, v := range c.want {
		got[i] = float32(v)
	}
	res := &dfg.Result{Data: got, Width: 1}
	if !c.check(res) {
		t.Fatal("the reference itself must pass its check")
	}
	got[3] += float32(10 * c.tol[3])
	if c.check(res) {
		t.Fatal("a wrong element must fail the check")
	}
}

func TestBenchmarkFileListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s %d: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestClosedLoopMergesCallers(t *testing.T) {
	var tl tally
	run := closedLoop(2, 20*time.Millisecond, 50, func(caller, i int) (time.Duration, bool) {
		time.Sleep(100 * time.Microsecond)
		return time.Duration(caller+1) * time.Millisecond, i%7 != 3
	}, &tl)
	if run.ops() < 50 || len(run.done) != run.ops() {
		t.Fatalf("%d ops, %d completions: want at least 50 of each", run.ops(), len(run.done))
	}
	if len(run.perCaller) != 2 || len(run.perCaller[0])+len(run.perCaller[1]) != run.ops() {
		t.Fatal("per-caller samples do not add up to the run's")
	}
	for i := 1; i < len(run.done); i++ {
		if run.done[i].Before(run.done[i-1]) {
			t.Fatal("completions must be sorted")
		}
	}
	if tl.attempted.Load() != int64(run.ops()) || tl.failed.Load() == 0 {
		t.Fatalf("tally %d attempted, %d failed; want every op counted and the wrong ones failed", tl.attempted.Load(), tl.failed.Load())
	}
}
