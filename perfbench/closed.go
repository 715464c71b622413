package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// closedRun is one closed-loop phase: each caller issues its next op
// only after its previous one completes.
type closedRun struct {
	start time.Time
	// service is every op's own time, in completion order; perCaller
	// the same times split by caller, each in its issue order.
	service   []time.Duration
	perCaller [][]time.Duration
	done      []time.Time // completions (output check included), sorted
	mem0      runtime.MemStats
	mem1      runtime.MemStats
}

// closedLoopCap bounds a closed loop extended for its minimum op count,
// so a run on a slow host still ends well within the benchmark's
// three-minute limit.
const closedLoopCap = 100 * time.Second

// closedLoop runs callers goroutines, each issuing op back to back, for
// d, extended until at least minOps ops have completed (so a p99 has
// ten samples beyond it) but never past closedLoopCap. One caller runs
// on the calling goroutine. op receives the caller's index and its op
// count, and returns the time the program call took (excluding the
// benchmark's output check) and whether the output was correct.
func closedLoop(callers int, d time.Duration, minOps int, op func(caller, i int) (time.Duration, bool), t *tally) closedRun {
	run := closedRun{mem0: memSnapshot(), perCaller: make([][]time.Duration, callers)}
	run.start = time.Now()
	soft, hard := run.start.Add(d), run.start.Add(max(d, closedLoopCap))
	var total atomic.Int64
	var mu sync.Mutex
	type sample struct {
		s    time.Duration
		done time.Time
	}
	var all []sample
	loop := func(c int) {
		var mine []sample
		for i := 0; ; i++ {
			now := time.Now()
			if now.After(hard) || (now.After(soft) && total.Load() >= int64(minOps)) {
				break
			}
			s, ok := op(c, i)
			t.note(ok)
			total.Add(1)
			mine = append(mine, sample{s, time.Now()})
			run.perCaller[c] = append(run.perCaller[c], s)
		}
		mu.Lock()
		all = append(all, mine...)
		mu.Unlock()
	}
	if callers == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				loop(c)
			}(c)
		}
		wg.Wait()
	}
	run.mem1 = memSnapshot()
	sort.Slice(all, func(i, j int) bool { return all[i].done.Before(all[j].done) })
	for _, x := range all {
		run.service = append(run.service, x.s)
		run.done = append(run.done, x.done)
	}
	return run
}

func (r closedRun) ops() int { return len(r.service) }

// warmUp drives the system untimed for n ops from one caller before
// measuring: the first ops after set-up run slow while the heap, the GC
// pacer and the caches settle, and would otherwise land in the p99. The
// count is fixed, not timed, so the live heap read after it does not
// depend on the host's speed.
func warmUp(n int, op func(caller, i int) (time.Duration, bool), t *tally) {
	for i := 0; i < n; i++ {
		_, ok := op(0, i)
		t.note(ok)
	}
}

// serviceMS is the ops' own times in ms.
func (r closedRun) serviceMS() []float64 {
	out := make([]float64, len(r.service))
	for i, s := range r.service {
		out[i] = ms(s)
	}
	return out
}

// p50 is the median op time in ms.
func (r closedRun) p50() float64 { return median(r.serviceMS()) }

// throughput is the window-median completion rate.
func (r closedRun) throughput() float64 {
	return windowMedianRate(r.start, r.done, windowSize(len(r.done)))
}

// gcPerKop is the Go runtime's collection count per thousand ops.
func (r closedRun) gcPerKop() float64 {
	if r.ops() == 0 {
		return 0
	}
	return float64(r.mem1.NumGC-r.mem0.NumGC) * 1000 / float64(r.ops())
}

// endToEndClosed fills the end-to-end metrics of a closed-loop
// workload from its measured phase. max_rate_rps replays each caller's
// measured op times through one FIFO server fed at a fixed rate and
// sums the callers' highest arrival rates (time steps, new expressions
// or requests per second) that keep p99 from due time within limitMS.
func endToEndClosed(r closedRun, limitMS float64) (map[string]float64, error) {
	p99, err := windowedP99(r.serviceMS())
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	thr := r.throughput()
	var maxRate float64
	for _, svc := range r.perCaller {
		maxRate += windowedMaxRateFIFO(svc, limitMS, thr/float64(len(r.perCaller)))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops, p50 %.3f ms, p99 %.3f ms, throughput %.1f/s, max rate %.1f/s\n", r.ops(), r.p50(), p99, thr, maxRate)
	return map[string]float64{
		"latency_p50_ms":   r.p50(),
		"latency_p99_ms":   p99,
		"throughput_ops_s": thr,
		"max_rate_rps":     maxRate,
		"alloc_kb_per_op":  allocKBPerOp(r.mem0, r.mem1, r.ops()),
	}, nil
}
