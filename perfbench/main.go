// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed wall-clock budget, checks every output the
// program produces, and prints its metrics; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 the run alternates untraced and traced
// operations and prints the per-layer metrics ("per_layer"), a
// per-layer self-time table, and a Perfetto trace.
// perfbench/run.py builds this package and runs it; README.md in this
// directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"faulthound/internal/buildinfo"
	"faulthound/internal/harness"
	"faulthound/internal/stats"
)

// defaultSeed is the workload seed the committed goldens were generated
// with. It is also the campaign fault seed of the reference-1k bundle,
// so inject-heavy's reference prefix check applies at this seed.
const defaultSeed = 42

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"inject-heavy":  runInjectHeavy,
	"prepare-heavy": runPrepareHeavy,
	"timing-sweep":  runTimingSweep,
	"served":        runServed,
}

// metric is one printed measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// env carries one invocation's settings and everything it measures.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	work     string // scratch directory for bundles and traces
	record   bool   // write goldens instead of checking them
	opts     harness.Options

	golden *golden // nil when recording
	// seedFreeCells marks a workload whose per-cell outputs do not
	// depend on the seed, so every seed checks them against the golden.
	seedFreeCells bool
	chk           checker
	det           map[string]any // deterministic block

	endToEnd []metric
	layers   []metric // per-layer metrics printed in the JSON result
	extra    []metric // per-layer metrics of layers this workload alone exercises
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload name: inject-heavy, prepare-heavy, timing-sweep, served")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed; the goldens were generated with the default")
		seconds = flag.Float64("seconds", 10, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "1: measure per-layer metrics with a traced pass")
		work    = flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory for bundles, reports and traces")
		gdir    = flag.String("golden", filepath.Join("perfbench", "golden"), "directory of committed goldens")
		record  = flag.Bool("record-golden", false, "write this run's outputs as the goldens instead of checking them (default seed only)")
		corrupt = flag.Bool("corrupt-golden", false, "negative control: flip one byte of the loaded golden; the run must then report failures")
	)
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", *wl, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	if *record && *seed != defaultSeed {
		fatalf("-record-golden needs the default seed %d", defaultSeed)
	}
	e := &env{
		workload: *wl,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		work:     filepath.Join(*work, fmt.Sprintf("%s-%d", *wl, os.Getpid())),
		record:   *record,
		opts:     harness.DefaultOptions(),
		det:      map[string]any{},
	}
	e.opts.Workers = runtime.GOMAXPROCS(0)
	gpath := filepath.Join(*gdir, *wl+".json")
	if !e.record {
		g, err := loadGolden(gpath)
		if err != nil {
			fatalf("%v", err)
		}
		if *corrupt {
			g.corrupt()
		}
		e.golden = g
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fatalf("%v", err)
	}
	host := hostBlock()
	fmt.Printf("host: %s\n", mustJSON(host))

	err := run(e)
	os.RemoveAll(filepath.Join(e.work, "runs"))
	if err != nil {
		fatalf("%s: %v", e.workload, err)
	}
	if e.record {
		g := &golden{Seed: e.seed, Cells: e.chk.recorded, Deterministic: e.det}
		if err := g.write(gpath); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %s (%d cells)\n", gpath, len(g.Cells))
	} else if e.seed == defaultSeed {
		e.chk.deterministic(e.golden.Deterministic, e.det)
	}
	e.endToEnd = append(e.endToEnd, metric{"peak_rss_mb", peakRSSMB(), "MB"})
	e.report(host)
}

// report prints the human-readable blocks, writes the run report, and
// prints the JSON result line last.
func (e *env) report(host map[string]any) {
	fmt.Printf("deterministic: %s\n", mustJSON(e.det))
	rate := 0.0
	if e.chk.attempted > 0 {
		rate = float64(e.chk.failed) / float64(e.chk.attempted)
	}
	fmt.Printf("error_rate: %g (%d failed of %d attempted)\n", rate, e.chk.failed, e.chk.attempted)
	for _, m := range e.endToEnd {
		fmt.Printf("end_to_end %-18s %14.6g %s\n", m.name, m.value, m.unit)
	}
	for _, m := range append(append([]metric(nil), e.layers...), e.extra...) {
		fmt.Printf("per_layer  %-30s %14.6g %s\n", m.name, m.value, m.unit)
	}
	rep := map[string]any{
		"workload": e.workload, "seed": e.seed, "trace": e.traced, "host": host,
		"deterministic": e.det, "error_rate": rate,
		"end_to_end": metricMap(e.endToEnd), "per_layer": metricMap(append(append([]metric(nil), e.layers...), e.extra...)),
	}
	rpath := filepath.Join(filepath.Dir(e.work), fmt.Sprintf("report-%s-seed%d-trace%d.json", e.workload, e.seed, btoi(e.traced)))
	if err := os.WriteFile(rpath, append(mustJSON(rep), '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	os.Remove(e.work)

	printed := e.endToEnd
	if e.traced {
		printed = e.layers
	}
	out := map[string]any{
		"correct":   e.chk.failed == 0 && e.chk.attempted > 0,
		"attempted": e.chk.attempted,
		"failed":    e.chk.failed,
		"metrics":   metricMap(printed),
	}
	fmt.Println(string(mustJSON(out)))
}

func metricMap(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// hostBlock records what a wall-clock number depends on, so numbers are
// only ever compared like for like.
func hostBlock() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := buildinfo.Resolve().Commit
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": commit,
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb)
			return kb / 1024
		}
	}
	return 0
}

// measure runs op back to back within budget. The first call is a
// warm-up whose result the caller discards (warm is true): it grows the
// heap and warms the host's caches, so no timed operation pays for
// that. The heap is collected before every operation, outside its
// timing, so each starts from the same heap state and no operation
// pays for its predecessor's garbage. A timed operation starts while
// the budget still has room for one of median length, and whenever
// enough reports that the pass lacks something it needs; at least one
// runs.
func measure(budget time.Duration, op func(warm bool) error, enough func() bool) error {
	start := time.Now()
	var durs []float64
	for i := 0; i < 2 || !enough() || budget-time.Since(start) >= time.Duration(median(durs)*float64(time.Second)); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := op(i == 0); err != nil {
			return err
		}
		if i > 0 {
			durs = append(durs, time.Since(t0).Seconds())
		}
	}
	return nil
}

// A workload's set-up is repeated at least setupMinRuns times and
// until setupMinTime has passed (at most setupMaxRuns times); setup_s
// is the median, so a set-up of a few milliseconds is measured over
// enough repetitions to be steady.
const (
	setupMinRuns = 7
	setupMaxRuns = 41
	setupMinTime = time.Second
)

// timeSetup repeats setup, records setup_s, and returns the last
// result; earlier results are released with drop.
func timeSetup[T any](e *env, setup func() (T, error), drop func(T)) (T, error) {
	var (
		v    T
		durs []float64
	)
	start := time.Now()
	for i := 0; i < setupMaxRuns && (i < setupMinRuns || time.Since(start) < setupMinTime); i++ {
		if i > 0 && drop != nil {
			drop(v)
		}
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, err
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	e.endToEnd = append(e.endToEnd, metric{"setup_s", median(durs), "s"})
	return v, nil
}

// throughput records the end-to-end metrics of the untraced operations:
// work units per wall second and per-operation latencies.
func (e *env) throughput(rate float64, ops []float64) {
	p := tailPercentile(len(ops))
	e.endToEnd = append(e.endToEnd,
		metric{"throughput_per_s", rate, "1/s"},
		metric{"op_p50_s", median(ops), "s"},
		metric{"op_tail_s", stats.Percentile(ops, p), "s"},
	)
	fmt.Printf("ops: %d; op_tail_s is p%.2f\n", len(ops), p)
}

// overhead records obs.trace_overhead_frac: traced minus untraced wall
// time per unit of work, over untraced, from operations of one pass
// that alternate between traced and untraced.
func (e *env) overhead(untracedS, tracedS float64) {
	frac := 0.0
	if untracedS > 0 && tracedS > 0 && !math.IsInf(untracedS+tracedS, 0) {
		frac = tracedS/untracedS - 1
	}
	e.layers = append(e.layers, metric{"obs.trace_overhead_frac", frac, "frac"})
}

// tailPercentile returns the highest percentile with at least ten of n
// samples beyond it, but not below the 90th. With fewer than 101
// samples no percentile at or above the 90th has ten beyond it; the
// tail is then the 90th percentile (interpolated), which unlike the
// slowest sample does not hang on a single operation.
func tailPercentile(n int) float64 {
	return math.Max(90, 100*float64(n-11)/float64(max(n-1, 1)))
}

// median returns the median of xs.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
