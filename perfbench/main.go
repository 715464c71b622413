// Command perfbench is the repository benchmark: it runs one workload
// against the public dfg and internal/serve APIs on the real clock,
// checks every operation's output against an independent reference,
// and prints its metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload insitu-qcrit --seed 1 --seconds 24 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// makes the separate traced run and prints the per-layer metrics,
// writing the recorded spans under --trace-dir. See README.md for the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  time.Duration
	traceDir string
}

// tally counts attempted operations and those that failed or returned
// a wrong output. It is safe for concurrent use.
type tally struct {
	attempted, failed atomic.Int64
}

func (t *tally) note(ok bool) {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
}

// workload runs one named workload, untraced or traced.
type workload struct {
	name   string
	run    func(cfg runConfig, t *tally) (map[string]float64, error)
	traced func(cfg runConfig, t *tally) (map[string]float64, error)
}

var workloads = []workload{
	{"insitu-qcrit", runInsitu, tracedInsitu},
	{"serve-hot", runServeHot, tracedServeHot},
	{"cold-expr", runCold, tracedCold},
	{"serve-batch", runServeBatch, tracedServeBatch},
}

// endToEnd lists the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"max_rate_rps", "1/s"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
	{"peak_device_mb", "MiB"},
}

// perLayer lists the per-layer metrics every traced run reports. A
// layer that does no work on a workload reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"expr.parse_us", "us"},
	{"passes.run_us", "us"},
	{"passes.nodes_out", "count"},
	{"passes.merge_us", "us"},
	{"passes.merge_shared_nodes", "count"},
	{"compile.hit_us", "us"},
	{"compile.miss_us", "us"},
	{"compile.plan_us", "us"},
	{"compile.lookups_per_op", "count"},
	{"compile.lookups", "count"},
	{"compile.hit_ratio", "ratio"},
	{"compile.plan_lookups", "count"},
	{"compile.plan_hit_ratio", "ratio"},
	{"codegen.fuse_us", "us"},
	{"codegen.num_passes", "count"},
	{"strategy.bind_us", "us"},
	{"strategy.execute_ms", "ms"},
	{"strategy.reference_ms", "ms"},
	{"strategy.fused_over_reference", "ratio"},
	{"ocl.upload_resident_us", "us"},
	{"ocl.kernels_per_op", "count"},
	{"ocl.write_mb_per_op", "MiB"},
	{"ocl.resident_uploads", "count"},
	{"ocl.upload_skip_ratio", "ratio"},
	{"ocl.arena_acquires", "count"},
	{"ocl.arena_reuse_ratio", "ratio"},
	{"ocl.wall_ms_per_op", "ms"},
	{"ocl.modeled_device_ms_per_op", "ms"},
	{"serve.evals", "count"},
	{"vm.evals", "count"},
	{"vm.share", "ratio"},
	{"vm.execute_us", "us"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.queue_wait_us_p99", "us"},
	{"serve.run_us_p50", "us"},
	{"serve.forming_wait_us_p50", "us"},
	{"serve.batches", "count"},
	{"serve.batch_size_mean", "count"},
	{"serve.batch_split_ratio", "ratio"},
	{"serve.worker_busy_ratio", "ratio"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.retained_kb_per_op", "KiB"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

func main() {
	name := flag.String("workload", "", "workload to run: insitu-qcrit, serve-hot, cold-expr or serve-batch")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 24, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traceDir: *traceDir}
	var t tally
	run, want := w.run, endToEnd
	if *trace == 1 {
		run, want = w.traced, perLayer
	}
	values, err := run(cfg, &t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep, err := buildReport(values, want, &t)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// buildReport checks that the run produced exactly the expected metric
// names, each a finite number, and assembles the result line.
func buildReport(values map[string]float64, want []struct{ name, unit string }, t *tally) (*report, error) {
	rep := &report{
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   make(map[string]metric, len(want)),
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for _, m := range want {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		rep.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	var extra []string
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics measured: %s", strings.Join(extra, ", "))
	}
	return rep, nil
}

// setupSamples is how many fresh set-ups each run times; setup_s is
// their median.
const setupSamples = 7

// medianSetup times fresh set-ups, collecting garbage before each so
// every sample starts from a comparable heap, and returns the median in
// seconds. Each set-up's system is closed before the next, except the
// last, which is returned for the run to use.
func medianSetup[S any](setup func() (S, time.Duration, error), closeFn func(S)) (S, float64, error) {
	var sys S
	var secs []float64
	for i := 0; i < setupSamples; i++ {
		if i > 0 {
			closeFn(sys)
		}
		runtime.GC()
		s, d, err := setup()
		if err != nil {
			return sys, 0, fmt.Errorf("set-up: %w", err)
		}
		sys = s
		secs = append(secs, d.Seconds())
	}
	return sys, median(secs), nil
}

// memSnapshot reads the runtime's allocation and GC counters.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// allocKBPerOp is the Go heap allocated per op between two snapshots.
func allocKBPerOp(before, after runtime.MemStats, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(ops)
}

// liveHeap forces a collection and returns the live heap in bytes.
// heap_live_mb is its growth from before the first set-up (inputs and
// references already built) to the end of the warm-up, read while the
// system under test is reachable: the program's retained state, after
// a fixed amount of work.
func liveHeap() int64 {
	runtime.GC()
	m := memSnapshot()
	return int64(m.HeapAlloc)
}

// retainedKBPerOp is the growth of the live heap across a phase of ops
// operations, per op: memory the program keeps for good after each op.
func retainedKBPerOp(before, after int64, ops int) float64 {
	if ops == 0 || after <= before {
		return 0
	}
	return float64(after-before) / 1024 / float64(ops)
}

// mib converts bytes to MiB.
func mib(b int64) float64 { return float64(b) / (1 << 20) }
