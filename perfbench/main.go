// Command perfbench is the repository's end-to-end benchmark. It drives
// the detector through its public Go packages — the HTTP service behind a
// loopback listener, the durable batch-job manager, the streaming training
// pipeline — on one of three workloads, checks the outputs, and prints one
// JSON result line:
//
//	perfbench --workload serve_short --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run (see trace.go and
// README.md). Inputs are generated from --seed; the program sees only the
// generated inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below mirror
// BENCHMARK.json; a workload that leaves a metric unset fails the run.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_share", "share"},
	{"peak_heap_mb", "MB"},
	{"planted_precision", "share"},
	{"planted_recall", "share"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_item", "ms"},
	{"latency_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"pattern.encode_ns", "ns"},
	{"pattern.encodes", "count"},
	{"stats.npmi_ns", "ns"},
	{"stats.npmi_calls", "count"},
	{"stats.add_column_us", "us"},
	{"stats.merge_s", "s"},
	{"stats.canonicalize_s", "s"},
	{"stats.distinct_patterns", "count"},
	{"core.detect_column_us.p50", "us"},
	{"core.detect_column_us.p99", "us"},
	{"core.self_us", "us"},
	{"core.pairs", "count"},
	{"core.lang_pairs", "count"},
	{"core.allocs_per_column", "count"},
	{"core.alloc_bytes_per_column", "bytes"},
	{"semantic.detect_column_us", "us"},
	{"repair.suggest_us", "us"},
	{"repair.calls", "count"},
	{"repair.tied_suggestions", "count"},
	{"audit.check_column_us.p50", "us"},
	{"audit.check_column_us.p99", "us"},
	{"audit.self_us", "us"},
	{"service.handler_us", "us"},
	{"service.self_us.p50", "us"},
	{"service.self_us.p99", "us"},
	{"service.requests", "count"},
	{"service.shed_429", "count"},
	{"service.timeouts_504", "count"},
	{"service.body_bytes", "bytes"},
	{"jobs.job_s", "s"},
	{"jobs.self_s", "s"},
	{"jobs.put_state_ms.p50", "ms"},
	{"jobs.put_state_ms.p99", "ms"},
	{"jobs.state_bytes_written", "bytes"},
	{"jobs.checkpoints", "count"},
	{"jobs.results_page_ms", "ms"},
	{"corpus.read_s", "s"},
	{"corpus.files", "count"},
	{"corpus.bytes", "bytes"},
	{"pipeline.count_s", "s"},
	{"pipeline.merge_s", "s"},
	{"pipeline.distsup_s", "s"},
	{"pipeline.calibrate_s", "s"},
	{"pipeline.select_s", "s"},
	{"pipeline.columns", "count"},
	{"pipeline.values", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"loadgen.lag_ms", "ms"},
	{"loadgen.sent", "count"},
}

// bench is the state shared by one run of one workload.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   *tracer // nil in untraced runs
	work    string  // scratch directory inside the checkout

	attempted, failed int
	mismatches        []string
	// tiedSuggestions counts the findings whose suggestion came from
	// another tied dominant pattern than the direct audit's (see ties.go).
	tiedSuggestions int
	e2e             map[string]float64
	layer           map[string]float64
}

// mismatch counts one failed operation and keeps its description for the
// report.
func (b *bench) mismatch(format string, args ...any) {
	b.failed++
	if len(b.mismatches) < 10 {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

// logf writes a human-readable report line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

var workloads = map[string]func(*bench) error{
	"serve_short": runServe,
	"audit_long":  runAudit,
	"train_dir":   runTrain,
}

func main() {
	workload := flag.String("workload", "", "serve_short, audit_long or train_dir")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve_short|audit_long|train_dir --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := run(fn, *workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(fn func(*bench) error, workload string, seed int64, seconds int, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := &bench{
		seed: seed, seconds: time.Duration(seconds) * time.Second,
		work: work, e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		b.trace = newTracer()
	}
	if err := fn(b); err != nil {
		return err
	}
	for _, m := range b.mismatches {
		logf("MISMATCH: %s", m)
	}
	logf("%d checked findings carried a suggestion from another tied dominant pattern than the direct audit's (accepted, see ties.go)", b.tiedSuggestions)
	b.layer["repair.tied_suggestions"] = float64(b.tiedSuggestions)
	b.e2e["ok_share"] = 1 - float64(b.failed)/float64(b.attempted)

	report := b.e2e
	defs := endToEnd
	last := filepath.Join(root, ".bench_build", "last-untraced-"+workload+".json")
	if traced {
		compareOverhead(last, b.e2e)
		if err := b.trace.write(filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))); err != nil {
			return err
		}
		report, defs = b.layer, perLayer
	} else if raw, err := json.Marshal(map[string]any{"seed": seed, "metrics": b.e2e}); err == nil {
		_ = os.WriteFile(last, raw, 0o644) // best effort: only the overhead report reads it
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := report[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// compareOverhead prints the traced run's end-to-end numbers next to the
// last untraced run of the same workload in this checkout; the relative
// difference is the tracing overhead.
func compareOverhead(path string, traced map[string]float64) {
	var last struct {
		Seed    int64              `json:"seed"`
		Metrics map[string]float64 `json:"metrics"`
	}
	raw, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(raw, &last)
	}
	if err != nil {
		logf("tracing overhead: no untraced run of this workload to compare with")
		for _, d := range endToEnd {
			logf("  %-18s traced %12.4f %s", d.name, traced[d.name], d.unit)
		}
		return
	}
	logf("tracing overhead (traced run vs last untraced run, seed %d):", last.Seed)
	for _, d := range endToEnd {
		t, u := traced[d.name], last.Metrics[d.name]
		logf("  %-18s traced %12.4f  untraced %12.4f %-5s overhead %+.1f%%", d.name, t, u, d.unit, 100*(t-u)/u)
	}
}

// measure marks the start of a workload's measured phase: set-up garbage
// is collected, then the heap is sampled until the returned function is
// called with the number of items (requests, columns) the phase completed.
// It records the peak live heap as peak_heap_mb and the process CPU time per
// item as cpu_ms_per_item. CPU time excludes time the hypervisor stole
// from the guest, so this figure holds still on a busy host when the
// wall-clock ones do not.
func (b *bench) measure() (stop func(items int)) {
	runtime.GC()
	h := startHeapSampler()
	cpu0 := cpuTime()
	return func(items int) {
		b.e2e["cpu_ms_per_item"] = (cpuTime() - cpu0).Seconds() * 1e3 / float64(items)
		b.e2e["peak_heap_mb"] = h.stop() / (1 << 20)
	}
}

// cpuTime is the user plus system CPU time of the process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap: the bytes the last collection
// found reachable. Unlike the heap's current size it does not swing with
// when the collector happens to run.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := float64(sample[0].Value.Uint64()); v > h.peak {
			h.peak = v
		}
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.done:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

// runtimeCounters snapshots the GC and allocation totals for the runtime.*
// per-layer metrics.
type runtimeCounters struct {
	gcCycles   uint32
	pauseNs    uint64
	allocBytes uint64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{ms.NumGC, ms.PauseTotalNs, ms.TotalAlloc}
}

func (b *bench) runtimeSince(start runtimeCounters) {
	now := readRuntime()
	b.layer["runtime.gc_cycles"] = float64(now.gcCycles - start.gcCycles)
	b.layer["runtime.gc_pause_ms"] = float64(now.pauseNs-start.pauseNs) / 1e6
	b.layer["runtime.alloc_mb"] = float64(now.allocBytes-start.allocBytes) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// scaled converts durations to seconds times perSecond (1e3 gives
// milliseconds).
func scaled(ds []time.Duration, perSecond float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * perSecond
	}
	return out
}

// timeSetups runs setup n times, reports the median duration as setup_s,
// so one slow set-up does not move it, and returns the last result. Each
// set-up starts from a collected heap, so none pays for collecting the
// garbage of the one before.
func timeSetups[T any](b *bench, n int, setup func(i int) (T, error)) (T, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := setup(i)
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		last = v
	}
	b.e2e["setup_s"] = median(secs)
	logf("setup_s runs: %s", joinFloats(secs, "%.3f"))
	return last, nil
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
