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

// insitu-qcrit: the paper's in-situ pattern. One host application
// thread prepares Q-criterion and velocity magnitude once, then
// evaluates both on every new simulation time step (closed loop, one
// caller), on the GPU device with fusion at the paper's optimisation
// level.
const (
	insituSteps = 4 // pre-generated time steps, cycled
	// insituWarmUp is the untimed ops after set-up (about 1.2 s).
	insituWarmUp = 64
	// insituLimitMS is the p99 limit behind max_rate_rps: about 1.5x
	// the op's median on a 2-CPU host, so a step rate passes only while
	// queueing behind slow ops stays under half an op.
	insituLimitMS = 100
	// Tolerances of dfg_test.go's golden comparison.
	qcritTol  = 0.5
	velmagTol = 1e-5
)

var insituDims = dfg.Dims{NX: 48, NY: 48, NZ: 64}

// insituInputs are the seeded time steps and their golden outputs.
type insituInputs struct {
	steps        []*dfg.Field
	wantQ, wantV [][]float32
}

func newMesh(d dfg.Dims) (*dfg.Mesh, error) { return dfg.NewUniformMesh(d, 0.1, 0.1, 0.1) }

func newInsituInputs(seed int64) (*insituInputs, error) {
	m, err := newMesh(insituDims)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	in := &insituInputs{}
	for i := 0; i < insituSteps; i++ {
		f := dfg.GenerateRT(m, r.Int63())
		in.steps = append(in.steps, f)
		in.wantQ = append(in.wantQ, vortex.QCriterion(f.U, f.V, f.W, m))
		in.wantV = append(in.wantV, vortex.VelocityMagnitude(f.U, f.V, f.W))
	}
	return in, nil
}

// within reports whether got matches want element-wise within tol.
func within(got, want []float32, tol float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(float64(got[i])-float64(want[i])) > tol {
			return false
		}
	}
	return true
}

// insituSys is one engine with the two prepared expressions.
type insituSys struct {
	mesh   *dfg.Mesh
	eng    *dfg.Engine
	pq, pv *dfg.Prepared
	peak   int64
	// lastQ and lastV are the latest op's results, for the traced
	// run's device-profile sums.
	lastQ, lastV *dfg.Result
}

func (s *insituSys) close() {
	if s != nil {
		s.pq.Close()
		s.pv.Close()
	}
}

// setup builds a fresh engine on a fresh mesh, prepares both
// expressions and makes the first (cold) evaluation of each.
func (in *insituInputs) setup(t *tally) (*insituSys, time.Duration, error) {
	m, err := newMesh(insituDims)
	if err != nil {
		return nil, 0, err
	}
	s := &insituSys{mesh: m}
	start := time.Now()
	if s.eng, err = dfg.New(dfg.Config{Device: dfg.GPU, Strategy: "fusion"}); err != nil {
		return nil, 0, err
	}
	if s.pq, err = s.eng.Prepare(dfg.QCriterionExpr); err != nil {
		return nil, 0, err
	}
	if s.pv, err = s.eng.Prepare(dfg.VelocityMagnitudeExpr); err != nil {
		return nil, 0, err
	}
	rq, rv, err := s.eval(in.steps[0])
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	ok := in.check(0, rq, rv)
	t.note(ok)
	if !ok {
		return nil, 0, fmt.Errorf("cold evaluation output differs from the golden reference")
	}
	return s, d, nil
}

// eval is one op: both expressions on one time step.
func (s *insituSys) eval(f *dfg.Field) (rq, rv *dfg.Result, err error) {
	fields := dfg.FieldInputs(f)
	if rq, err = s.pq.EvalMesh(s.mesh, fields); err != nil {
		return nil, nil, err
	}
	if rv, err = s.pv.EvalMesh(s.mesh, fields); err != nil {
		return nil, nil, err
	}
	return rq, rv, nil
}

func (in *insituInputs) check(step int, rq, rv *dfg.Result) bool {
	return rq != nil && rv != nil &&
		within(rq.Data, in.wantQ[step], qcritTol) && within(rv.Data, in.wantV[step], velmagTol)
}

// op runs op i (time step i mod insituSteps) and checks it.
func (in *insituInputs) op(s *insituSys, i int, tr *tracer) (time.Duration, bool) {
	step := i % insituSteps
	fields := dfg.FieldInputs(in.steps[step])
	start := time.Now()
	root := tr.begin(i, -1, "insitu.op")
	id := tr.begin(i, root, "Prepared.EvalMesh")
	rq, err := s.pq.EvalMesh(s.mesh, fields)
	tr.finish(id)
	var rv *dfg.Result
	if err == nil {
		id = tr.begin(i, root, "Prepared.EvalMesh")
		rv, err = s.pv.EvalMesh(s.mesh, fields)
		tr.finish(id)
	}
	tr.finish(root)
	d := time.Since(start)
	if err != nil {
		return d, false
	}
	s.peak = max(s.peak, rq.PeakDeviceBytes, rv.PeakDeviceBytes)
	s.lastQ, s.lastV = rq, rv
	return d, in.check(step, rq, rv)
}

func (in *insituInputs) startRun(t *tally) (*insituSys, float64, error) {
	sys, setupS, err := medianSetup(func() (*insituSys, time.Duration, error) { return in.setup(t) }, (*insituSys).close)
	if err != nil {
		return nil, 0, err
	}
	warmUp(insituWarmUp, func(_, i int) (time.Duration, bool) { return in.op(sys, i, nil) }, t)
	return sys, setupS, nil
}

func runInsitu(cfg runConfig, t *tally) (map[string]float64, error) {
	in, err := newInsituInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	heap0 := liveHeap()
	sys, setupS, err := in.startRun(t)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	heap := mib(liveHeap() - heap0)
	run := closedLoop(1, cfg.seconds, 1000, func(_, i int) (time.Duration, bool) { return in.op(sys, i, nil) }, t)
	v, err := endToEndClosed(run, insituLimitMS)
	if err != nil {
		return nil, err
	}
	v["setup_s"] = setupS
	v["peak_device_mb"] = mib(sys.peak)
	v["heap_live_mb"] = heap
	return v, nil
}

// tracedInsitu is the traced run: an untraced closed-loop phase (the
// base of trace.overhead_ratio), the same loop with a span around each
// EvalMesh call and the program's counters read around it, then the
// layer replay of each op through the layers' public functions.
func tracedInsitu(cfg runConfig, t *tally) (map[string]float64, error) {
	in, err := newInsituInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	sys, _, err := in.startRun(t)
	if err != nil {
		return nil, err
	}
	defer sys.close()
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
		prof.add(sys.lastQ, sys.lastV)
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
	rp, err := newReplayer(tr, "paper", "fusion", dev)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	if err := rp.warm([]string{dfg.QCriterionExpr, dfg.VelocityMagnitudeExpr}); err != nil {
		return nil, err
	}
	exprs := []struct{ text, ref string }{{dfg.QCriterionExpr, "Q-Crit"}, {dfg.VelocityMagnitudeExpr, "VelMag"}}
	end := time.Now().Add(phase)
	for op := 0; op == 0 || time.Now().Before(end); op++ {
		fields := dfg.FieldInputs(in.steps[op%insituSteps])
		root := tr.begin(op, -1, "replay.op")
		bind := func() (strategy.Bindings, error) { return strategy.BindMesh(sys.mesh, fields) }
		nodes, passes := 0, 0
		for _, e := range exprs {
			out, err := rp.eval(op, root, e.text, bind, "strategy.BindMesh", true)
			if err != nil {
				return nil, err
			}
			b, err := bind()
			if err != nil {
				return nil, err
			}
			if _, err := rp.reference(op, root, e.ref, b); err != nil {
				return nil, err
			}
			nodes += out.nodesOut
			passes += out.numPasses
		}
		tr.finish(root)
		v["passes.nodes_out"], v["codegen.num_passes"] = float64(nodes), float64(passes)
	}
	return v, finishTrace(cfg, "insitu-qcrit", v, tr)
}
