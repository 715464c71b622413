package main

import (
	"fmt"

	"dfg/internal/codegen"
	"dfg/internal/compile"
	"dfg/internal/expr"
	"dfg/internal/ocl"
	"dfg/internal/passes"
	"dfg/internal/strategy"
	"dfg/internal/vortex"
)

// replayer re-enacts an evaluation through each layer's public
// functions, one span per call, so the traced run can attribute time
// to layers without a timer inside the program. It owns its own
// compiler and device environment, configured like the workload's
// engines: the same optimisation level, strategy and device, with a
// buffer arena attached as prepared evaluations have.
type replayer struct {
	tr    *tracer
	comp  *compile.Compiler
	lvl   passes.Level
	strat strategy.Strategy
	env   *ocl.Env
}

func newReplayer(tr *tracer, opt, strat string, dev *ocl.Device) (*replayer, error) {
	lvl, err := passes.ParseLevel(opt)
	if err != nil {
		return nil, err
	}
	s, err := strategy.ForName(strat)
	if err != nil {
		return nil, err
	}
	env := ocl.NewEnv(dev)
	env.SetPool(env.Context().Pool())
	return &replayer{tr: tr, comp: compile.NewCompiler(), lvl: lvl, strat: s, env: env}, nil
}

// close drains the replay environment's arena.
func (r *replayer) close() { r.env.Context().Pool().Drain() }

// warm compiles texts into the replay compiler, as the workload's
// compile cache holds them in steady state. Each compile is a miss,
// recorded as its own op (negative IDs, apart from the workload's ops).
func (r *replayer) warm(texts []string) error {
	for i, text := range texts {
		id := r.tr.begin(-1-i, -1, "compile.CompileAt.miss")
		_, err := r.comp.CompileAt(text, r.lvl)
		r.tr.finish(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayed is what one replayed evaluation reports beyond its spans.
type replayed struct {
	nodesOut  int
	numPasses int // fused kernel passes; 0 when the VM tier ran
}

// eval replays one evaluation of text over bind under parent:
//
//   - expr.Parse, expr.BuildNetwork and the level's pass pipeline
//     (passes.Run) — the three stages of expr.CompileWithPipeline, so
//     parse and pass time separate;
//   - compile.Compiler.CompileAt on the replay compiler, named by its
//     outcome (hit or miss);
//   - compile.Compiler.PlanNetTraced, the plan-cache half of
//     PlanTracedAt;
//   - codegen.Fuse, when the device tier runs;
//   - the bind (strategy.BindMesh for mesh workloads);
//   - Plan.Execute on the arena-backed environment, named by the tier
//     that ran.
func (r *replayer) eval(op, parent int, text string, bind func() (strategy.Bindings, error), bindName string, deviceTier bool) (replayed, error) {
	var out replayed
	id := r.tr.begin(op, parent, "expr.Parse")
	prog, err := expr.Parse(text)
	r.tr.finish(id)
	if err != nil {
		return out, err
	}
	id = r.tr.begin(op, parent, "expr.BuildNetwork")
	net, err := expr.BuildNetwork(prog)
	r.tr.finish(id)
	if err != nil {
		return out, err
	}
	id = r.tr.begin(op, parent, "passes.Run")
	_, err = passes.ForLevel(r.lvl).RunWith(net, passes.RunOptions{})
	r.tr.finish(id)
	if err != nil {
		return out, err
	}
	out.nodesOut = net.Len()

	before := r.comp.Stats().Compiles
	id = r.tr.begin(op, parent, "compile.CompileAt")
	cnet, fp, err := r.comp.CompileTracedAt(text, r.lvl, nil)
	r.tr.finish(id)
	if err != nil {
		return out, err
	}
	outcome := "compile.CompileAt.hit"
	if r.comp.Stats().Compiles != before {
		outcome = "compile.CompileAt.miss"
	}
	r.tr.rename(id, outcome)

	id = r.tr.begin(op, parent, "compile.PlanNetTraced")
	plan, err := r.comp.PlanNetTraced(cnet, fp, r.strat, r.env.Device(), nil)
	r.tr.finish(id)
	if err != nil {
		return out, err
	}

	if deviceTier {
		id = r.tr.begin(op, parent, "codegen.Fuse")
		fused, err := codegen.Fuse(cnet, "replay")
		r.tr.finish(id)
		if err != nil {
			return out, err
		}
		out.numPasses = fused.NumPasses
	}

	id = r.tr.begin(op, parent, bindName)
	b, err := bind()
	r.tr.finish(id)
	if err != nil {
		return out, err
	}

	id = r.tr.begin(op, parent, "strategy.Execute")
	res, err := plan.Execute(r.env, b)
	r.tr.finish(id)
	if err != nil {
		return out, err
	}
	if res.Resolved == "vm" || plan.Strategy() == "vm" {
		r.tr.rename(id, "vm.Execute")
	}
	return out, nil
}

// reference runs the paper's hand-written kernel (vortex.ReferenceKernel)
// over the same bound sources, with the same device-resident upload
// rule the fused plan gets (its own resident slots, so both pay for a
// changed time step), and downloads the result.
func (r *replayer) reference(op, parent int, name string, bind strategy.Bindings) ([]float32, error) {
	id := r.tr.begin(op, parent, "vortex.ReferenceKernel")
	defer r.tr.finish(id)
	k, args, err := vortex.ReferenceKernel(name)
	if err != nil {
		return nil, err
	}
	bufs := make([]*ocl.Buffer, 0, len(args)+1)
	defer func() {
		for _, b := range bufs {
			b.Release()
		}
	}()
	for _, a := range args {
		src, ok := bind.Sources[a]
		if !ok {
			return nil, fmt.Errorf("reference %s: no source %q", name, a)
		}
		b, _, err := r.env.UploadResident("ref:"+a, "ref:"+a, src.Data, 1)
		if err != nil {
			return nil, err
		}
		bufs = append(bufs, b)
	}
	out, err := r.env.NewBuffer("ref:out", bind.N, 1)
	if err != nil {
		return nil, err
	}
	bufs = append(bufs, out)
	if err := r.env.Run(k, bind.N, bufs, nil); err != nil {
		return nil, err
	}
	return r.env.Download(out)
}

// merge replays the batch former's merge of member texts
// (passes.MergeNetworks over the replay compiler's sealed networks)
// and returns the nodes the merge shared.
func (r *replayer) merge(op, parent int, texts []string) (int, error) {
	members := make([]passes.MergeMember, 0, len(texts))
	for _, text := range texts {
		net, fp, err := r.comp.CompileTracedAt(text, r.lvl, nil)
		if err != nil {
			return 0, err
		}
		members = append(members, passes.MergeMember{Fp: fp, Net: net})
	}
	id := r.tr.begin(op, parent, "passes.MergeNetworks")
	m, err := passes.MergeNetworks(members, r.lvl, passes.RunOptions{})
	r.tr.finish(id)
	if err != nil {
		return 0, err
	}
	return m.Shared, nil
}
