package main

import (
	"sync"
	"time"

	"dfg"
	"dfg/internal/compile"
	"dfg/internal/ocl"
)

// newLayerValues starts a traced run's metrics with every per-layer
// metric at 0, the value a layer reports on a workload where it does
// no work.
func newLayerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.name] = 0
	}
	return v
}

// perOpRatio is the median over ops of the ratio of two span names'
// per-op self-time sums, over the ops that made both calls.
func perOpRatio(self []selfTime, num, den string) float64 {
	n := make(map[int]time.Duration)
	d := make(map[int]time.Duration)
	for _, s := range self {
		switch s.name {
		case num:
			n[s.op] += s.d
		case den:
			d[s.op] += s.d
		}
	}
	var xs []float64
	for op, dv := range d {
		if nv, ok := n[op]; ok && dv > 0 {
			xs = append(xs, float64(nv)/float64(dv))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// fillSpanLayers sets the metrics read from span self times.
func fillSpanLayers(v map[string]float64, spans []span) {
	self := selfTimes(spans)
	v["expr.parse_us"] = perOpUS(self, "expr.Parse")
	v["passes.run_us"] = perOpUS(self, "passes.Run")
	v["passes.merge_us"] = perOpUS(self, "passes.MergeNetworks")
	v["compile.hit_us"] = perOpUS(self, "compile.CompileAt.hit")
	v["compile.miss_us"] = perOpUS(self, "compile.CompileAt.miss")
	v["compile.plan_us"] = perOpUS(self, "compile.PlanNetTraced")
	v["codegen.fuse_us"] = perOpUS(self, "codegen.Fuse")
	v["strategy.bind_us"] = perOpUS(self, "strategy.BindMesh") + perOpUS(self, "strategy.Bindings")
	v["strategy.execute_ms"] = perOpUS(self, "strategy.Execute") / 1000
	v["strategy.reference_ms"] = perOpUS(self, "vortex.ReferenceKernel") / 1000
	v["strategy.fused_over_reference"] = perOpRatio(self, "strategy.Execute", "vortex.ReferenceKernel")
	v["vm.execute_us"] = perOpUS(self, "vm.Execute")
}

// profileAcc sums the device profiles of the results a traced phase
// received. It is safe for concurrent use.
type profileAcc struct {
	mu         sync.Mutex
	ops        int
	kernels    int
	writeBytes int64
	wall       time.Duration // real host time of the device events
	modeled    time.Duration // modeled device time (ocl.DeviceSpec)
	upload     time.Duration // real host time of host-to-device writes
}

// add folds one op's results into the sums.
func (a *profileAcc) add(results ...*dfg.Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	for _, r := range results {
		if r == nil {
			continue
		}
		p := r.Profile
		a.kernels += p.Kernels
		a.writeBytes += p.WriteBytes
		a.wall += p.Wall
		a.modeled += p.WriteTime + p.ReadTime + p.KernelTime
		for _, e := range r.Events {
			if e.Kind == ocl.WriteEvent {
				a.upload += e.Wall
			}
		}
	}
}

// fill sets the per-op device metrics.
func (a *profileAcc) fill(v map[string]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ops == 0 {
		return
	}
	n := float64(a.ops)
	v["ocl.kernels_per_op"] = float64(a.kernels) / n
	v["ocl.write_mb_per_op"] = mib(a.writeBytes) / n
	v["ocl.wall_ms_per_op"] = ms(a.wall) / n
	v["ocl.modeled_device_ms_per_op"] = ms(a.modeled) / n
	v["ocl.upload_resident_us"] = us(a.upload) / n
}

// arenaCounts are buffer-arena counters, summed over engines.
type arenaCounts struct {
	uploads, skips, reused, allocated float64
}

func arenaOf(s ocl.ArenaStats) arenaCounts {
	return arenaCounts{float64(s.Uploads), float64(s.UploadsSkipped), float64(s.Reused), float64(s.Allocated)}
}

// fillArena sets the arena ratios from the counters' change over a
// phase, each with its base count.
func fillArena(v map[string]float64, before, after arenaCounts) {
	uploads := after.uploads - before.uploads
	skips := after.skips - before.skips
	acquires := (after.reused - before.reused) + (after.allocated - before.allocated)
	v["ocl.resident_uploads"] = uploads + skips
	if uploads+skips > 0 {
		v["ocl.upload_skip_ratio"] = skips / (uploads + skips)
	}
	v["ocl.arena_acquires"] = acquires
	if acquires > 0 {
		v["ocl.arena_reuse_ratio"] = (after.reused - before.reused) / acquires
	}
}

// fillCompile sets the compile- and plan-cache metrics from the
// program's own counters' change over a phase of ops operations.
func fillCompile(v map[string]float64, before, after compile.Stats, ops int) {
	hits := float64(after.Hits - before.Hits)
	lookups := hits + float64(after.Misses-before.Misses)
	planHits := float64(after.PlanHits - before.PlanHits)
	planLookups := planHits + float64(after.PlanMisses-before.PlanMisses)
	v["compile.lookups"] = lookups
	if ops > 0 {
		v["compile.lookups_per_op"] = lookups / float64(ops)
	}
	if lookups > 0 {
		v["compile.hit_ratio"] = hits / lookups
	}
	v["compile.plan_lookups"] = planLookups
	if planLookups > 0 {
		v["compile.plan_hit_ratio"] = planHits / planLookups
	}
}

// finishTrace writes the spans and sets the span-derived metrics.
func finishTrace(cfg runConfig, workload string, v map[string]float64, tr *tracer) error {
	spans := tr.snapshot()
	fillSpanLayers(v, spans)
	return writeSpans(cfg.traceDir, workload+".jsonl", spans)
}
