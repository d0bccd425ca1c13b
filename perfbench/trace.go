package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/pattern"
	"repro/internal/repair"
	"repro/internal/semantic"
	"repro/internal/stats"
)

// The traced run records spans only from the benchmark's own files: around
// each request, job or build it drives, and around the replay of a sampled
// input through the public entry point of every lower layer. A replayed
// span names its caller's span as parent even though it runs after it, so
// a layer's self time is its span's duration minus the durations of its
// replayed children. Spans stay in memory and are written out at the end.

// span is one recorded interval; times are nanoseconds since the tracer
// started, and Parent 0 marks a root.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID. It is safe on a nil tracer, which
// records nothing and returns 0.
func (t *tracer) add(name string, trace uint64, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// self returns, for every span with the given name, its duration minus
// the durations of its children whose names are listed.
func (t *tracer) self(name string, children ...string) []time.Duration {
	isChild := map[string]bool{}
	for _, c := range children {
		isChild[c] = true
	}
	sub := map[int]time.Duration{}
	for _, s := range t.spans {
		if isChild[s.Name] && s.Parent != 0 {
			sub[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur()-sub[s.ID])
		}
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// replayer re-runs sampled columns through the audit layer and each layer
// below it, keeping the counts the spans do not carry.
type replayer struct {
	tr                 *tracer
	det                *core.Detector
	sem                *semantic.Model
	encodes, npmiCalls int
	suggests, columns  int
	allocs, allocBytes uint64
	sink               float64
}

// column audits one column directly, recording the audit span under
// parent, and returns the findings. With deep set it also replays the
// column through each layer the audit calls.
func (r *replayer) column(trace uint64, parent int, values []string, deep bool) []audit.Finding {
	t0 := time.Now()
	fs := audit.CheckColumn(context.Background(), r.det, r.sem, values, 0)
	aid := r.tr.add("audit.check_column", trace, parent, t0, time.Now())
	if !deep {
		return fs
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	r.sink += float64(len(r.det.DetectColumn(values)))
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	cid := r.tr.add("core.detect_column", trace, aid, t0, t1)
	r.columns++
	r.allocs += m1.Mallocs - m0.Mallocs
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc

	// The detector encodes every distinct non-empty value, then scores the
	// pairs among the first maxScored of them in every language.
	var distinct []string
	seen := map[string]bool{}
	for _, v := range values {
		if v != "" && !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	runs := make([]pattern.Runs, len(distinct))
	t0 = time.Now()
	for i, v := range distinct {
		runs[i] = pattern.Encode(v)
	}
	r.tr.add("pattern.encode", trace, cid, t0, time.Now())
	r.encodes += len(distinct)

	if len(runs) > maxScored {
		runs = runs[:maxScored]
	}
	langs := make([]*stats.LanguageStats, 0, len(r.det.Languages()))
	for _, c := range r.det.Languages() {
		langs = append(langs, c.Stats)
	}
	t0 = time.Now()
	for i := range runs {
		for j := i + 1; j < len(runs); j++ {
			for _, ls := range langs {
				r.sink += ls.NPMIRuns(runs[i], runs[j])
			}
		}
	}
	r.tr.add("stats.npmi", trace, cid, t0, time.Now())
	if n := len(runs); n > 1 {
		r.npmiCalls += n * (n - 1) / 2 * len(langs)
	}

	if r.sem != nil {
		t0 = time.Now()
		r.sink += float64(len(r.sem.DetectColumn(values)))
		r.tr.add("semantic.detect_column", trace, aid, t0, time.Now())
	}
	for _, f := range fs {
		if f.Kind != "pattern" {
			continue
		}
		t0 = time.Now()
		if s, ok := repair.Suggest(values, f.Value); ok {
			r.sink += s.Confidence
		}
		r.tr.add("repair.suggest", trace, aid, t0, time.Now())
		r.suggests++
	}
	return fs
}

// columnLayers records the per-layer metrics of the column replays.
func (b *bench) columnLayers(r *replayer) {
	t := b.trace
	us := func(ds []time.Duration) []float64 { return scaled(ds, 1e6) }
	enc := t.durations("pattern.encode")
	b.layer["pattern.encode_ns"] = float64(sum(enc).Nanoseconds()) / float64(max(r.encodes, 1))
	b.layer["pattern.encodes"] = float64(r.encodes)
	b.layer["stats.npmi_ns"] = float64(sum(t.durations("stats.npmi")).Nanoseconds()) / float64(max(r.npmiCalls, 1))
	b.layer["stats.npmi_calls"] = float64(r.npmiCalls)
	det := us(t.durations("core.detect_column"))
	b.layer["core.detect_column_us.p50"] = quantile(det, 0.5)
	b.layer["core.detect_column_us.p99"] = quantile(det, 0.99)
	b.layer["core.self_us"] = median(us(t.self("core.detect_column", "pattern.encode", "stats.npmi")))
	b.layer["core.allocs_per_column"] = float64(r.allocs) / float64(max(r.columns, 1))
	b.layer["core.alloc_bytes_per_column"] = float64(r.allocBytes) / float64(max(r.columns, 1))
	b.layer["semantic.detect_column_us"] = median(us(t.durations("semantic.detect_column")))
	b.layer["repair.suggest_us"] = median(us(t.durations("repair.suggest")))
	b.layer["repair.calls"] = float64(r.suggests)
	aud := us(t.durations("audit.check_column"))
	b.layer["audit.check_column_us.p50"] = quantile(aud, 0.5)
	b.layer["audit.check_column_us.p99"] = quantile(aud, 0.99)
	b.layer["audit.self_us"] = median(us(t.self("audit.check_column", "core.detect_column", "semantic.detect_column", "repair.suggest")))
}

// replayStatsWrites folds up to 200 training columns, alternately, into
// two partial statistics builders, merges them and canonicalizes the
// result — the write path of the stats layer that the pipeline drives.
func (b *bench) replayStatsWrites(cols []*corpus.Column, langs []pattern.Language) error {
	if len(cols) > 200 {
		cols = cols[:200]
	}
	parts := []*stats.Builder{stats.NewBuilder(langs, stats.DefaultSmoothing), stats.NewBuilder(langs, stats.DefaultSmoothing)}
	for i, c := range cols {
		t0 := time.Now()
		parts[i%2].AddColumn(c.Values)
		b.trace.add("stats.add_column", uint64(i), 0, t0, time.Now())
	}
	t0 := time.Now()
	if err := parts[0].Merge(parts[1]); err != nil {
		return err
	}
	b.trace.add("stats.merge", 0, 0, t0, time.Now())
	t0 = time.Now()
	if err := parts[0].Canonicalize(); err != nil {
		return err
	}
	b.trace.add("stats.canonicalize", 0, 0, t0, time.Now())
	distinct := 0
	for _, ls := range parts[0].Stats() {
		distinct += ls.DistinctPatterns()
	}
	b.layer["stats.add_column_us"] = median(scaled(b.trace.durations("stats.add_column"), 1e6))
	b.layer["stats.merge_s"] = sum(b.trace.durations("stats.merge")).Seconds()
	b.layer["stats.canonicalize_s"] = sum(b.trace.durations("stats.canonicalize")).Seconds()
	b.layer["stats.distinct_patterns"] = float64(distinct)
	return nil
}
