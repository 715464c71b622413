package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dfg"
	"dfg/internal/compile"
	"dfg/internal/obs"
	"dfg/internal/serve"
	"dfg/internal/strategy"
)

// The two serving workloads drive a serve.Pool of two workers (no more
// than the host's two CPUs) from closed-loop callers that each send
// their next request once the previous response arrives. An open loop
// (a generator sending on a fixed schedule) was tried first: on a
// shared 2-CPU host its p99 and max-rate figures moved by more than
// their own size between identical runs, because the generator, the
// workers and the host's own stalls compete for the same two CPUs.
const (
	poolWorkers = 2
	// serveWarmUp is the untimed requests after set-up, on top of one
	// request per case.
	serveWarmUp = 1000
)

// serveCase is one distinct request: its expression, size and inputs,
// and the float64 reference its output must match.
type serveCase struct {
	req       serve.Request
	want, tol []float64
}

// check compares a result with the case's reference.
func (c *serveCase) check(res *dfg.Result) bool {
	if res == nil || len(res.Data) != len(c.want) {
		return false
	}
	for i, w := range c.want {
		if math.Abs(float64(res.Data[i])-w) > c.tol[i] {
			return false
		}
	}
	return true
}

// serveWorkload describes one serving workload.
type serveWorkload struct {
	name   string
	config serve.Config
	cases  []*serveCase
	// pick draws the next case index from the seeded request stream.
	pick func(r *rand.Rand) int
	// callers is the number of closed-loop callers; limitMS the p99
	// limit behind max_rate_rps.
	callers int
	limitMS float64
	seed    int64
}

// hotDistinct is the serve-hot expression count: more than a worker's
// 64-handle prepared cache, fewer than the 512-entry compile cache.
const hotDistinct = 96

// Sizes of the serve-hot requests: below the tiered strategy's 4096
// cell cutover (VM tier) and above it (device tier).
const hotSmall, hotLarge = 1024, 16384

func newServeHot(seed int64) *serveWorkload {
	r := rand.New(rand.NewSource(seed))
	exprs := hotExprs(r, hotDistinct)
	vels := []velocity{randVelocity(r, hotSmall), randVelocity(r, hotLarge)}
	w := &serveWorkload{
		name:   "serve-hot",
		config: serve.Config{Workers: poolWorkers, Strategy: "tiered", Device: dfg.GPU},
		// One caller: every request meets an idle pool, so latency is
		// the per-request path itself (hand-off, parse, lookups, input
		// hashing, execution) without queueing.
		callers: 1,
		// 20 ms is over thirty times the slowest warm request (~0.6 ms
		// at n=16384) and above the 5-10 ms stalls a shared 2-CPU host
		// shows now and then.
		limitMS: 20,
		seed:    seed,
	}
	for _, e := range exprs {
		for _, vel := range vels {
			want, tol := e.reference(vel)
			w.cases = append(w.cases, &serveCase{
				req:  serve.Request{Expr: e.text, N: len(vel.u), Inputs: vel.inputs()},
				want: want, tol: tol,
			})
		}
	}
	// Zipf-skewed expression popularity; each request is small or
	// large with equal odds (cases alternate small, large).
	w.pick = func(r *rand.Rand) int {
		z := rand.NewZipf(r, 1.1, 1, hotDistinct-1)
		return 2*int(z.Uint64()) + r.Intn(2)
	}
	return w
}

const batchDistinct = 24

func newServeBatch(seed int64) *serveWorkload {
	r := rand.New(rand.NewSource(seed))
	exprs := batchExprs(r, batchDistinct)
	vel := randVelocity(r, hotLarge)
	inputs := vel.inputs() // one binding, so every request shares a batch key
	w := &serveWorkload{
		name: "serve-batch",
		config: serve.Config{Workers: poolWorkers, Device: dfg.GPU,
			BatchWindow: 2 * time.Millisecond, BatchMax: 8},
		// Two callers, one per CPU: a request waits in the forming
		// window for the other caller's, so most flushes merge two
		// members.
		callers: 2,
		// 50 ms allows the 2 ms window plus many merged runs and the
		// host's occasional stalls.
		limitMS: 50,
		seed:    seed,
	}
	for _, e := range exprs {
		want, tol := e.reference(vel)
		w.cases = append(w.cases, &serveCase{
			req:  serve.Request{Expr: e.text, N: hotLarge, Inputs: inputs},
			want: want, tol: tol,
		})
	}
	w.pick = func(r *rand.Rand) int { return r.Intn(batchDistinct) }
	return w
}

// poolRun is one pool with its callers' request streams.
type poolRun struct {
	w       *serveWorkload
	pool    *serve.Pool
	streams []*rand.Rand // one per caller, seeded from the workload seed
	peak    atomic.Int64
	// onResp, when set, sees every measured response with its send and
	// completion times (the traced run's spans and counters).
	onResp func(caller, i int, sent, done time.Time, r serve.Response)
}

// newPool builds a pool and makes one cold request of each of the
// first two cases; this is the workload's timed set-up.
func (w *serveWorkload) newPool(t *tally) (*serve.Pool, time.Duration, error) {
	start := time.Now()
	p, err := serve.NewPool(w.config)
	if err != nil {
		return nil, 0, err
	}
	for _, c := range w.cases[:2] {
		res, err := p.Submit(context.Background(), c.req)
		ok := err == nil && c.check(res)
		t.note(ok)
		if !ok {
			p.Close()
			return nil, 0, fmt.Errorf("cold request failed (err %v)", err)
		}
	}
	return p, time.Since(start), nil
}

func closePool(p *serve.Pool) {
	if p != nil {
		p.Close()
	}
}

// start times the set-ups, then warms the last pool untimed: every
// case once, so the compile cache holds every expression, then
// serveWarmUp requests of the stream.
func (w *serveWorkload) start(t *tally) (*poolRun, float64, error) {
	p, setupS, err := medianSetup(func() (*serve.Pool, time.Duration, error) { return w.newPool(t) }, closePool)
	if err != nil {
		return nil, 0, err
	}
	pr := &poolRun{w: w, pool: p}
	for c := 0; c < w.callers; c++ {
		pr.streams = append(pr.streams, rand.New(rand.NewSource(w.seed+1+int64(c))))
	}
	for _, c := range w.cases {
		res, err := p.Submit(context.Background(), c.req)
		t.note(err == nil && c.check(res))
	}
	warmUp(serveWarmUp, pr.request, t)
	return pr, setupS, nil
}

// request sends the caller's next request, waits for its response and
// checks it. It returns the time from send to response.
func (pr *poolRun) request(caller, i int) (time.Duration, bool) {
	c := pr.w.cases[pr.w.pick(pr.streams[caller])]
	sent := time.Now()
	r := <-pr.pool.EvalAsync(context.Background(), c.req)
	done := time.Now()
	if pr.onResp != nil {
		pr.onResp(caller, i, sent, done, r)
	}
	ok := r.Err == nil && c.check(r.Result)
	if r.Result != nil {
		for peak := pr.peak.Load(); r.Result.PeakDeviceBytes > peak; peak = pr.peak.Load() {
			if pr.peak.CompareAndSwap(peak, r.Result.PeakDeviceBytes) {
				break
			}
		}
	}
	return done.Sub(sent), ok
}

// runServe is the untraced run of a serving workload: its callers'
// closed loop for the run's seconds.
func runServe(w *serveWorkload, cfg runConfig, t *tally) (map[string]float64, error) {
	heap0 := liveHeap()
	pr, setupS, err := w.start(t)
	if err != nil {
		return nil, err
	}
	defer pr.pool.Close()
	heap := mib(liveHeap() - heap0)
	run := closedLoop(w.callers, cfg.seconds, 1000, pr.request, t)
	v, err := endToEndClosed(run, w.limitMS)
	if err != nil {
		return nil, err
	}
	v["setup_s"] = setupS
	v["peak_device_mb"] = mib(pr.peak.Load())
	v["heap_live_mb"] = heap
	return v, nil
}

func runServeHot(cfg runConfig, t *tally) (map[string]float64, error) {
	return runServe(newServeHot(cfg.seed), cfg, t)
}

func runServeBatch(cfg runConfig, t *tally) (map[string]float64, error) {
	return runServe(newServeBatch(cfg.seed), cfg, t)
}

// registryTotals sums the pool's exported counters by metric name.
func registryTotals(r *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, r); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += val
	}
	return out, sc.Err()
}

func poolArena(tot map[string]float64) arenaCounts {
	return arenaCounts{
		uploads:   tot["dfg_arena_uploads_total"],
		skips:     tot["dfg_arena_upload_skips_total"],
		reused:    tot["dfg_arena_buffers_reused_total"],
		allocated: tot["dfg_arena_buffers_allocated_total"],
	}
}

// tracedServe is the traced run of a serving workload: an untraced
// closed-loop phase (the base of trace.overhead_ratio and the GC and
// retained-heap counts), the same phase with a span around each
// EvalAsync and its response's Wait and Run placed inside it, and the
// layer replay of drawn requests on this goroutine.
func tracedServe(w *serveWorkload, cfg runConfig, t *tally) (map[string]float64, error) {
	pr, _, err := w.start(t)
	if err != nil {
		return nil, err
	}
	defer pr.pool.Close()
	phase := cfg.seconds / 3
	v := newLayerValues()

	h0 := liveHeap()
	base := closedLoop(w.callers, phase, 0, pr.request, t)
	v["runtime.retained_kb_per_op"] = retainedKBPerOp(h0, liveHeap(), base.ops())
	v["trace.untraced_p50_ms"] = base.p50()
	v["runtime.gc_cycles_per_kop"] = base.gcPerKop()

	tr := &tracer{}
	var prof profileAcc
	var mu sync.Mutex
	var waits, runs []float64
	pr.onResp = func(caller, i int, sent, done time.Time, r serve.Response) {
		op := caller<<32 | i
		root := tr.add(op, -1, "Pool.EvalAsync", sent, done)
		runStart := done.Add(-r.Run)
		tr.add(op, root, "Response.Wait", runStart.Add(-r.Wait), runStart)
		tr.add(op, root, "Response.Run", runStart, done)
		prof.add(r.Result)
		mu.Lock()
		waits = append(waits, us(r.Wait))
		runs = append(runs, us(r.Run))
		mu.Unlock()
	}
	stats0 := pr.pool.Stats()
	tot0, err := registryTotals(pr.pool.Registry())
	if err != nil {
		return nil, err
	}
	rec0 := pr.pool.PerfRecorder().Recorded()
	traced := closedLoop(w.callers, phase, 0, pr.request, t)
	pr.onResp = nil
	stats1 := pr.pool.Stats()
	tot1, err := registryTotals(pr.pool.Registry())
	if err != nil {
		return nil, err
	}
	n := traced.ops()
	v["trace.overhead_ratio"] = traced.p50() / base.p50()
	prof.fill(v)
	fillArena(v, poolArena(tot0), poolArena(tot1))
	fillCompile(v, statsCompile(stats0), statsCompile(stats1), n)
	v["serve.queue_wait_us_p50"] = median(waits)
	if v["serve.queue_wait_us_p99"], err = windowedP99(waits); err != nil {
		return nil, fmt.Errorf("queue wait: %w", err)
	}
	v["serve.run_us_p50"] = median(runs)
	v["serve.worker_busy_ratio"] = (tot1["dfg_worker_busy_seconds_total"] - tot0["dfg_worker_busy_seconds_total"]) /
		(poolWorkers * traced.done[n-1].Sub(traced.start).Seconds())
	v["serve.forming_wait_us_p50"] = us(pr.pool.Registry().Histogram("dfg_batch_forming_wait_seconds", "", nil).Quantile(0.5))
	batches := float64(stats1.Batches - stats0.Batches)
	v["serve.batches"] = batches
	if batches > 0 {
		v["serve.batch_split_ratio"] = float64(stats1.BatchSplits-stats0.BatchSplits) / batches
		v["passes.merge_shared_nodes"] = float64(stats1.BatchShared-stats0.BatchShared) / batches
	}
	evals := pr.pool.PerfRecorder().Recorded() - rec0
	v["serve.evals"] = float64(evals)
	if evals > 0 {
		v["serve.batch_size_mean"] = float64(stats1.Served-stats0.Served) / float64(evals)
		recs := pr.pool.PerfRecorder().Last(int(evals))
		vm := 0
		for _, rec := range recs {
			if rec.Resolved == "vm" {
				vm++
			}
		}
		v["vm.evals"] = float64(vm)
		if len(recs) > 0 {
			v["vm.share"] = float64(vm) / float64(len(recs))
		}
	}

	if err := w.replay(tr, phase, v); err != nil {
		return nil, err
	}
	return v, finishTrace(cfg, w.name, v, tr)
}

// statsCompile lifts the pool's compile- and plan-cache counters into
// the compile layer's Stats shape.
func statsCompile(s serve.Stats) (c compile.Stats) {
	c.Hits, c.Misses, c.PlanHits, c.PlanMisses = s.CacheHits, s.CacheMisses, s.PlanHits, s.PlanMisses
	return c
}

// replay re-enacts drawn requests through the layers for d: each op
// replays one request's evaluation and, on serve-batch, the merge of
// that many distinct members as the pool's mean batch.
func (w *serveWorkload) replay(tr *tracer, d time.Duration, v map[string]float64) error {
	dev, err := dfg.NewDeviceFor(dfg.Config{Device: dfg.GPU})
	if err != nil {
		return err
	}
	strat := w.config.Strategy
	if strat == "" {
		strat = "fusion"
	}
	rp, err := newReplayer(tr, "O2", strat, dev)
	if err != nil {
		return err
	}
	defer rp.close()
	texts := make([]string, 0, len(w.cases))
	for _, c := range w.cases {
		texts = append(texts, c.req.Expr)
	}
	if err := rp.warm(dedup(texts)); err != nil {
		return err
	}
	members := int(math.Round(v["serve.batch_size_mean"]))
	r := rand.New(rand.NewSource(w.seed + 2))
	var nodes, passes []float64
	end := time.Now().Add(d)
	for op := 0; op == 0 || time.Now().Before(end); op++ {
		c := w.cases[w.pick(r)]
		root := tr.begin(op, -1, "replay.op")
		bind := func() (strategy.Bindings, error) {
			b := strategy.Bindings{N: c.req.N, Sources: make(map[string]strategy.Source, len(c.req.Inputs))}
			for name, data := range c.req.Inputs {
				b.Sources[name] = strategy.Source{Data: data, Width: 1}
			}
			return b, nil
		}
		out, err := rp.eval(op, root, c.req.Expr, bind, "strategy.Bindings", c.req.N >= strategy.DefaultVMThreshold)
		if err != nil {
			return err
		}
		if members >= 2 {
			group := distinctDraw(r, texts, members, w.pick)
			if _, err := rp.merge(op, root, group); err != nil {
				return err
			}
		}
		tr.finish(root)
		nodes = append(nodes, float64(out.nodesOut))
		if out.numPasses > 0 {
			passes = append(passes, float64(out.numPasses))
		}
	}
	v["passes.nodes_out"] = median(nodes)
	if len(passes) > 0 {
		v["codegen.num_passes"] = median(passes)
	}
	return nil
}

// dedup returns texts without repeats, in first-seen order.
func dedup(texts []string) []string {
	seen := make(map[string]bool, len(texts))
	var out []string
	for _, s := range texts {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// distinctDraw draws k distinct texts from the request stream (fewer
// if the stream has fewer).
func distinctDraw(r *rand.Rand, texts []string, k int, pick func(*rand.Rand) int) []string {
	k = min(k, len(dedup(texts)))
	seen := make(map[string]bool, k)
	var out []string
	for len(out) < k {
		s := texts[pick(r)]
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func tracedServeHot(cfg runConfig, t *tally) (map[string]float64, error) {
	return tracedServe(newServeHot(cfg.seed), cfg, t)
}

func tracedServeBatch(cfg runConfig, t *tally) (map[string]float64, error) {
	return tracedServe(newServeBatch(cfg.seed), cfg, t)
}
