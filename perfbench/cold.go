package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dfg"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// cold-expr: a user typing new expressions. One caller (closed loop)
// prepares, evaluates and closes a never-seen program on a 16^3 mesh at
// O2, so parse, the pass pipeline, a compile-cache miss (with insert
// and, past 512 entries, eviction), planning and fused-kernel
// generation run on every op.
const (
	// coldLimitMS is the p99 limit behind max_rate_rps: far above the
	// median op (~1.3 ms on a 2-CPU host) and its p99 (~8-18 ms, GC on
	// a heap the program's unbounded program caches keep growing), so
	// the replay's verdict is not decided by one collection.
	coldLimitMS = 100
	coldWarmUp  = 600
)

var coldDims = dfg.Dims{NX: 16, NY: 16, NZ: 16}

// coldTemplates are the paper expressions a cold op extends, with
// dfg_test.go's golden tolerances and the reference-kernel names.
var coldTemplates = []coldTemplate{
	{"VelMag", dfg.VelocityMagnitudeExpr, "v_mag", 1e-5},
	{"VortMag", dfg.VorticityMagnitudeExpr, "w_mag", 1e-2},
	{"Q-Crit", dfg.QCriterionExpr, "q", 0.5},
}

// coldInputs are the seeded field, its golden outputs per template and
// the op draw sequence.
type coldInputs struct {
	field  *dfg.Field
	golden [][]float32
	draws  *rand.Rand
	next   int
}

func newColdInputs(seed int64) (*coldInputs, error) {
	m, err := newMesh(coldDims)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	f := dfg.GenerateRT(m, r.Int63())
	in := &coldInputs{field: f, draws: rand.New(rand.NewSource(r.Int63()))}
	in.golden = [][]float32{
		vortex.VelocityMagnitude(f.U, f.V, f.W),
		vortex.VorticityMagnitude(f.U, f.V, f.W, m),
		vortex.QCriterion(f.U, f.V, f.W, m),
	}
	return in, nil
}

// coldOp is one drawn op: its program text and what checks its output.
type coldOp struct {
	tpl  int
	text string
	c    float64
	t    term
}

// draw returns the next op in the seeded sequence. Ops cycle through
// the templates, so every stretch of three ops costs the same whatever
// the seed; the seed picks the constants and operators.
func (in *coldInputs) draw() coldOp {
	r := in.draws
	tpl := in.next % len(coldTemplates)
	cText, c := uniqueConst(r, in.next)
	in.next++
	t := pairTerm(r, "u", "w")
	return coldOp{tpl: tpl, text: coldText(coldTemplates[tpl], cText, t), c: c, t: t}
}

// check compares an op's output with golden*c + term, allowing the
// template's golden tolerance scaled by c plus the term's rounding.
func (in *coldInputs) check(op coldOp, res *dfg.Result) bool {
	f := in.field
	g := in.golden[op.tpl]
	if res == nil || len(res.Data) != len(g) {
		return false
	}
	tol := coldTemplates[op.tpl].tol * math.Abs(op.c)
	for i := range g {
		tv, tm := op.t.eval(float64(f.U[i]), float64(f.V[i]), float64(f.W[i]))
		want := float64(g[i])*op.c + tv
		if math.Abs(float64(res.Data[i])-want) > tol+flatTol*math.Max(1, tm+math.Abs(want)) {
			return false
		}
	}
	return true
}

// coldSys is the caller's engine and mesh.
type coldSys struct {
	mesh *dfg.Mesh
	eng  *dfg.Engine
	peak int64
	last *dfg.Result
}

func (in *coldInputs) fields() map[string][]float32 { return dfg.FieldInputs(in.field) }

// setup builds a fresh engine on a fresh mesh and runs its first
// (cold) ops on it: one new program per paper template, so every
// set-up does the same work whatever the seed draws.
func (in *coldInputs) setup(t *tally) (*coldSys, time.Duration, error) {
	m, err := newMesh(coldDims)
	if err != nil {
		return nil, 0, err
	}
	ops := make([]coldOp, len(coldTemplates))
	for i := range ops {
		ops[i] = in.draw()
	}
	fields := in.fields()
	s := &coldSys{mesh: m}
	start := time.Now()
	if s.eng, err = dfg.New(dfg.Config{Device: dfg.GPU, Strategy: "fusion", Opt: "O2"}); err != nil {
		return nil, 0, err
	}
	results := make([]*dfg.Result, len(ops))
	for i, op := range ops {
		p, err := s.eng.Prepare(op.text)
		if err != nil {
			return nil, 0, err
		}
		results[i], err = p.EvalMesh(m, fields)
		p.Close()
		if err != nil {
			return nil, 0, err
		}
	}
	d := time.Since(start)
	for i, op := range ops {
		ok := in.check(op, results[i])
		t.note(ok)
		if !ok {
			return nil, 0, fmt.Errorf("cold op output differs from its reference")
		}
	}
	return s, d, nil
}

// op draws and runs the next op, timing the program calls only.
func (in *coldInputs) op(s *coldSys, i int, tr *tracer) (time.Duration, bool) {
	op := in.draw()
	fields := in.fields()
	start := time.Now()
	root := tr.begin(i, -1, "cold.op")
	id := tr.begin(i, root, "Engine.Prepare")
	p, err := s.eng.Prepare(op.text)
	tr.finish(id)
	var res *dfg.Result
	if err == nil {
		id = tr.begin(i, root, "Prepared.EvalMesh")
		res, err = p.EvalMesh(s.mesh, fields)
		tr.finish(id)
		id = tr.begin(i, root, "Prepared.Close")
		p.Close()
		tr.finish(id)
	}
	tr.finish(root)
	d := time.Since(start)
	if err != nil {
		return d, false
	}
	s.peak = max(s.peak, res.PeakDeviceBytes)
	s.last = res
	return d, in.check(op, res)
}

// startRun times the set-ups, then warms the last engine untimed for
// coldWarmUp ops, enough to fill its 512-entry compile cache so the
// measured ops also evict.
func (in *coldInputs) startRun(t *tally) (*coldSys, float64, error) {
	sys, setupS, err := medianSetup(func() (*coldSys, time.Duration, error) { return in.setup(t) }, func(*coldSys) {})
	if err != nil {
		return nil, 0, err
	}
	warmUp(coldWarmUp, func(_, i int) (time.Duration, bool) { return in.op(sys, i, nil) }, t)
	return sys, setupS, nil
}

func runCold(cfg runConfig, t *tally) (map[string]float64, error) {
	in, err := newColdInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	sys, setupS, err := in.startRun(t)
	if err != nil {
		return nil, err
	}
	heap := mib(liveHeap() - heap0)
	run := closedLoop(1, cfg.seconds, 1000, func(_, i int) (time.Duration, bool) { return in.op(sys, i, nil) }, t)
	v, err := endToEndClosed(run, coldLimitMS)
	if err != nil {
		return nil, err
	}
	v["setup_s"] = setupS
	v["peak_device_mb"] = mib(sys.peak)
	v["heap_live_mb"] = heap
	return v, nil
}

// tracedCold is the traced run: an untraced phase, a phase with spans
// around Prepare, EvalMesh and Close, then the layer replay of new ops.
func tracedCold(cfg runConfig, t *tally) (map[string]float64, error) {
	in, err := newColdInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	sys, _, err := in.startRun(t)
	if err != nil {
		return nil, err
	}
	phase := cfg.seconds / 3
	v := newLayerValues()

	h0 := liveHeap()
	base := closedLoop(1, phase, 0, func(_, i int) (time.Duration, bool) { return in.op(sys, i, nil) }, t)
	v["runtime.retained_kb_per_op"] = retainedKBPerOp(h0, liveHeap(), base.ops())
	v["trace.untraced_p50_ms"] = base.p50()
	v["runtime.gc_cycles_per_kop"] = base.gcPerKop()

	tr := &tracer{}
	var prof profileAcc
	cache0, arena0 := sys.eng.CacheStats(), arenaOf(sys.eng.ArenaStats())
	traced := closedLoop(1, phase, 0, func(_, i int) (time.Duration, bool) {
		d, ok := in.op(sys, i, tr)
		prof.add(sys.last)
		return d, ok
	}, t)
	fillCompile(v, cache0, sys.eng.CacheStats(), traced.ops())
	fillArena(v, arena0, arenaOf(sys.eng.ArenaStats()))
	prof.fill(v)
	v["trace.overhead_ratio"] = traced.p50() / base.p50()

	dev, err := dfg.NewDeviceFor(dfg.Config{Device: dfg.GPU})
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(tr, "O2", "fusion", dev)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	fields := in.fields()
	bind := func() (strategy.Bindings, error) { return strategy.BindMesh(sys.mesh, fields) }
	var nodes, passes []float64
	end := time.Now().Add(phase)
	for op := 0; op == 0 || time.Now().Before(end); op++ {
		o := in.draw()
		root := tr.begin(op, -1, "replay.op")
		out, err := rp.eval(op, root, o.text, bind, "strategy.BindMesh", true)
		if err != nil {
			return nil, err
		}
		b, err := bind()
		if err != nil {
			return nil, err
		}
		if _, err := rp.reference(op, root, coldTemplates[o.tpl].name, b); err != nil {
			return nil, err
		}
		tr.finish(root)
		nodes = append(nodes, float64(out.nodesOut))
		passes = append(passes, float64(out.numPasses))
	}
	v["passes.nodes_out"], v["codegen.num_passes"] = median(nodes), median(passes)
	return v, finishTrace(cfg, "cold-expr", v, tr)
}
