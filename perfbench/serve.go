package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/corpus"
)

// serve_short is an open loop over HTTP: requests leave on a fixed
// schedule whether or not earlier ones have finished, the way independent
// users arrive, and each is timed from when it was due. 90% are
// /v1/check-column and 10% /v1/check-table requests of 4–8 columns, drawn
// from a pool of short WIKI and Ent-XLS columns with planted errors.
const (
	// baseRate is the fixed open-loop rate latency is reported at: about a
	// quarter of the closed-loop capacity of two clients on the two-core box.
	baseRate = 650.0
	// baseShare of --seconds is spent at the base rate and closedShare in
	// the closed loop that measures capacity. The open-loop ladder then
	// climbs from baseRate in steps 10% apart, each stepLength long.
	baseShare    = 0.4
	closedShare  = 0.2
	closedWindow = 500 * time.Millisecond
	ladderFactor = 1.1
	ladderSteps  = 40
	stepLength   = 500 * time.Millisecond
	stepGap      = 100 * time.Millisecond
	p99Limit     = 10 * time.Millisecond
	// A step whose generator ran this late at p99, beyond waiting for a
	// free connection, is invalid: the generator alone would use half the
	// latency limit, so the step says nothing about the service.
	maxGeneratorLag = p99Limit / 2
	warmup          = 500 * time.Millisecond

	poolColumns    = 4000
	tableTemplates = 400
	// Every sampleEvery-th request's response is checked byte for byte;
	// every traceEvery-th is replayed through the lower layers when traced.
	sampleEvery = 16
	traceEvery  = 32
)

// template is one request body and the labeled columns it carries.
type template struct {
	path string
	body []byte
	cols []*corpus.Column
}

// serveTemplates builds the request pool: one check-column template per
// pool column, then check-table templates of 4–8 random pool columns named
// c0, c1, ...
func serveTemplates(seed int64) ([]*template, error) {
	pool := labeledColumns(seed+100, poolColumns, 5, 40, 0.3)
	r := rand.New(rand.NewSource(seed + 200))
	var out []*template
	for _, c := range pool {
		body, err := json.Marshal(map[string]any{"values": c.Values})
		if err != nil {
			return nil, err
		}
		out = append(out, &template{path: "/v1/check-column", body: body, cols: []*corpus.Column{c}})
	}
	for i := 0; i < tableTemplates; i++ {
		t := &template{path: "/v1/check-table"}
		cols := map[string][]string{}
		for j, n := 0, 4+r.Intn(5); j < n; j++ {
			c := pool[r.Intn(len(pool))]
			cols[fmt.Sprintf("c%d", j)] = c.Values
			t.cols = append(t.cols, c)
		}
		body, err := json.Marshal(map[string]any{"columns": cols})
		if err != nil {
			return nil, err
		}
		t.body = body
		out = append(out, t)
	}
	return out, nil
}

// pickTemplate maps request i to a template, deterministically in seed:
// one request in ten is a table.
func pickTemplate(seed int64, i int) int {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	if h%10 == 0 {
		return poolColumns + int((h>>8)%tableTemplates)
	}
	return int((h >> 8) % poolColumns)
}

// outcome is one open-loop request.
type outcome struct {
	index, tmpl           int
	due, free, sent, done time.Time
	status                int
	body                  []byte
}

// drive sends requests from `clients` goroutines, starting at request
// index first, and returns them in index order. With rate > 0 it is an
// open loop: rate×length requests on a fixed schedule, each due at its
// slot whether or not earlier ones have finished. With rate 0 it is a
// closed loop for length: each goroutine sends its next request as soon
// as the previous one is answered, which is then when it is due. free is
// when the sending goroutine finished its previous request.
func drive(s *server, seed int64, tmpls []*template, first int, rate float64, length time.Duration, keep func(int) bool) []outcome {
	n := int(rate * length.Seconds())
	var mu sync.Mutex
	out := make([]outcome, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := start
			for {
				j := int(next.Add(1) - 1)
				due := free
				if rate > 0 {
					if j >= n {
						return
					}
					due = start.Add(time.Duration(float64(j) / rate * float64(time.Second)))
					sleepUntil(due)
				} else if time.Since(start) >= length {
					return
				}
				o := outcome{index: first + j, tmpl: pickTemplate(seed, first+j), due: due, free: free, sent: time.Now()}
				t := tmpls[o.tmpl]
				status, body, err := s.do(http.MethodPost, t.path, t.body)
				o.done = time.Now()
				if err != nil {
					status = 0
				}
				o.status = status
				if keep(o.index) {
					o.body = body
				}
				free = o.done
				mu.Lock()
				for len(out) <= j {
					out = append(out, outcome{})
				}
				out[j] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// timers wake goroutines with millisecond granularity when the process is
// otherwise idle, which would make the generator itself up to a
// millisecond late; a blocking nanosleep is typically late by tens of
// microseconds and does not spin.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is resumed by the loop
	}
}

// step summarizes one open-loop phase.
type step struct {
	rate                         float64
	sent, ok, failed, shed, t504 int
	p50, p99, lagP99, genLagP99  float64 // milliseconds
	backlog, valid               bool
}

// summarize judges one step. Its backlog grows when the last quarter of
// its requests waited more than a millisecond longer for their send than
// the first quarter.
func summarize(rate float64, os []outcome) step {
	st := step{rate: rate, sent: len(os)}
	var lat, lag, gen []float64
	for _, o := range os {
		switch {
		case o.status == http.StatusOK:
			st.ok++
		case o.status == http.StatusTooManyRequests:
			st.shed++
			st.failed++
		case o.status == http.StatusGatewayTimeout:
			st.t504++
			st.failed++
		default:
			st.failed++
		}
		lat = append(lat, ms(o.done.Sub(o.due)))
		lag = append(lag, ms(o.sent.Sub(o.due)))
		ready := o.due
		if o.free.After(ready) {
			ready = o.free
		}
		gen = append(gen, ms(o.sent.Sub(ready)))
	}
	if q := len(lag) / 4; q > 0 {
		st.backlog = median(append([]float64(nil), lag[len(lag)-q:]...)) > 1+median(append([]float64(nil), lag[:q]...))
	}
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	st.lagP99, st.genLagP99 = quantile(lag, 0.99), quantile(gen, 0.99)
	st.valid = st.genLagP99 <= ms(maxGeneratorLag)
	return st
}

// windowRate is the median, over consecutive windows of the given length,
// of the requests completed per second in each: a window the host stalled
// does not move it.
func windowRate(os []outcome, window time.Duration) float64 {
	if len(os) == 0 {
		return 0
	}
	start := os[0].due
	for _, o := range os {
		if o.due.Before(start) {
			start = o.due
		}
	}
	var counts []float64
	for _, o := range os {
		w := int(o.done.Sub(start) / window)
		for len(counts) <= w {
			counts = append(counts, 0)
		}
		counts[w]++
	}
	if len(counts) > 1 {
		counts = counts[:len(counts)-1] // the last window is partial
	}
	return median(counts) / window.Seconds()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (st step) String() string {
	return fmt.Sprintf("rate %6.0f/s sent %5d ok %5d failed %d shed %d 504 %d p50 %.3fms p99 %.3fms lag p99 %.3fms generator lag p99 %.3fms backlog %v valid %v",
		st.rate, st.sent, st.ok, st.failed, st.shed, st.t504, st.p50, st.p99, st.lagP99, st.genLagP99, st.backlog, st.valid)
}

type serveSetup struct {
	m     *model
	tmpls []*template
}

func runServe(b *bench) error {
	in, err := timeSetups(b, modelSetups, func(i int) (*serveSetup, error) {
		m, err := buildModel(filepath.Join(b.work, fmt.Sprintf("setup-%d", i)), modelColumns, servingLanguages())
		if err != nil {
			return nil, err
		}
		tmpls, err := serveTemplates(b.seed)
		return &serveSetup{m: m, tmpls: tmpls}, err
	})
	if err != nil {
		return err
	}
	s, err := startServer(in.m, filepath.Join(b.work, "jobs"), 1)
	if err != nil {
		return err
	}
	defer s.close()

	keepBase := func(int) bool { return true }
	sampled := func(i int) bool { return i%sampleEvery == 0 || (b.trace != nil && i%traceEvery == 0) }
	warm := drive(s, b.seed, in.tmpls, 0, baseRate, warmup, sampled)

	stop := b.measure()
	rt0, hot0 := readRuntime(), core.HotPath()
	all := append([]outcome(nil), warm...)
	send := func(rate float64, length time.Duration, keep func(int) bool) []outcome {
		os := drive(s, b.seed, in.tmpls, len(all), rate, length, keep)
		all = append(all, os...)
		return os
	}
	base := send(baseRate, time.Duration(float64(b.seconds)*baseShare), keepBase)
	bs := summarize(baseRate, base)
	logf("base    %s", bs)
	closedLen := time.Duration(float64(b.seconds) * closedShare)
	closed := send(0, closedLen, sampled)
	// CPU and heap are measured over the two phases of fixed length; the
	// ladder's length depends on the capacity.
	stop(len(base) + len(closed))
	capacity := windowRate(closed, closedWindow)
	logf("closed  %d requests from %d clients in %v: %.1f/s overall, median %v window %.1f/s",
		len(closed), clients, closedLen, float64(len(closed))/closedLen.Seconds(), closedWindow, capacity)
	// The open-loop ladder climbs from the base rate to just past the
	// closed-loop capacity, or until two valid steps in a row fall behind.
	sloCapacity, keptUp, behind := 0.0, 0.0, 0
	for k := 0; k <= ladderSteps && behind < 2; k++ {
		st := bs
		if k > 0 {
			rate := baseRate * math.Pow(ladderFactor, float64(k))
			if rate > capacity*ladderFactor {
				break
			}
			time.Sleep(stepGap)
			st = summarize(rate, send(rate, stepLength, sampled))
			logf("ladder  %s", st)
		}
		switch {
		case !st.valid:
		case st.failed == 0 && !st.backlog:
			keptUp, behind = st.rate, 0
			if st.p99 <= ms(p99Limit) {
				sloCapacity = st.rate
			}
		default:
			behind++
		}
	}
	hot1 := core.HotPath()
	b.runtimeSince(rt0)
	logf("open loop: highest step kept up with %.0f/s; highest step with p99 <= %v %.0f/s; base-rate p50 %.3fms p99 %.3fms over %d requests",
		keptUp, p99Limit, sloCapacity, bs.p50, bs.p99, bs.sent)

	// The gated latency is the median round trip in the closed loop, where
	// both cores stay busy. At the base rate the cores idle between
	// requests, and how fast the host wakes them moved the base-rate median
	// by 40% between sets of runs; it is reported above, not gated.
	var rtt []float64
	for _, o := range closed {
		rtt = append(rtt, ms(o.done.Sub(o.sent)))
	}
	b.e2e["latency_p50_ms"] = median(rtt)
	b.e2e["throughput_per_s"] = capacity
	b.attempted += len(all)
	var lag []float64
	for _, o := range all {
		if o.status != http.StatusOK {
			b.failed++
		}
	}
	for _, o := range base {
		lag = append(lag, ms(o.sent.Sub(o.due)))
	}
	b.layer["loadgen.lag_ms"] = quantile(lag, 0.99)
	b.layer["loadgen.sent"] = float64(len(all))
	b.layer["core.pairs"] = float64(hot1.Pairs - hot0.Pairs)
	b.layer["core.lang_pairs"] = float64(hot1.LanguagePairs - hot0.LanguagePairs)

	// Quality over every base-phase response.
	var q quality
	for _, o := range base {
		if o.status == http.StatusOK {
			if err := scoreResponse(&q, in.tmpls[o.tmpl], o.body); err != nil {
				b.mismatch("request %d: %v", o.index, err)
			}
		}
	}
	b.reportQuality(q)

	props := newInputProps(in.m.det)
	for i := 0; i < 1000 && i < len(all); i++ {
		for _, c := range in.tmpls[all[i].tmpl].cols {
			props.add(c.Values)
		}
	}
	props.report("requests' columns")

	r := &replayer{tr: b.trace, det: in.m.det, sem: in.m.sem}
	if err := b.verifyServe(s, r, in, all); err != nil {
		return err
	}
	if b.trace == nil {
		return nil
	}
	var replays []*http.Request
	for _, o := range all {
		if o.index%traceEvery != 0 || o.status != http.StatusOK {
			continue
		}
		t := in.tmpls[o.tmpl]
		id := b.trace.add("service.request", uint64(o.index), 0, o.sent, o.done)
		for _, c := range t.cols {
			r.column(uint64(o.index), id, c.Values, true)
		}
		if len(replays) < 200 {
			req := httptest.NewRequest(http.MethodPost, t.path, bytes.NewReader(t.body))
			req.Header.Set("Content-Type", "application/json")
			replays = append(replays, req)
		}
	}
	b.columnLayers(r)
	b.serviceLayers(s, "service.request", replays)
	b.layerFromBuild(in.m.build)
	return b.replayStatsWrites(in.m.corpus, in.m.langs)
}

// scoreResponse adds one check response's findings to q.
func scoreResponse(q *quality, t *template, body []byte) error {
	got, err := decodeBody(t, body)
	if err != nil {
		return err
	}
	for i, c := range t.cols {
		q.add(c, got[colName(i)])
	}
	return nil
}

// colName is the name of a template's i-th column in check-table requests
// and in the column-keyed form of a response.
func colName(i int) string { return fmt.Sprintf("c%d", i) }

// decodeBody returns a check response's findings keyed by column name; a
// check-column response's findings are keyed "c0".
func decodeBody(t *template, body []byte) (map[string][]audit.Finding, error) {
	if t.path == "/v1/check-column" {
		var resp struct {
			Findings []audit.Finding `json:"findings"`
		}
		err := json.Unmarshal(body, &resp)
		return map[string][]audit.Finding{colName(0): resp.Findings}, err
	}
	var resp struct {
		Columns map[string][]audit.Finding `json:"columns"`
	}
	err := json.Unmarshal(body, &resp)
	return resp.Columns, err
}

// encodeBody encodes column-keyed findings as the handler for t's path
// does.
func encodeBody(t *template, cols map[string][]audit.Finding) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if t.path == "/v1/check-column" {
		err := enc.Encode(struct {
			Findings []audit.Finding `json:"findings"`
		}{cols[colName(0)]})
		return buf.Bytes(), err
	}
	err := enc.Encode(struct {
		Columns map[string][]audit.Finding `json:"columns"`
	}{cols})
	return buf.Bytes(), err
}

// directAudit audits a template's columns directly, keyed as in
// decodeBody.
func directAudit(m *model, t *template) map[string][]audit.Finding {
	if t.path == "/v1/check-column" {
		return map[string][]audit.Finding{colName(0): audit.CheckColumn(context.Background(), m.det, m.sem, t.cols[0].Values, 0)}
	}
	cols := map[string][]string{}
	for i, c := range t.cols {
		cols[colName(i)] = c.Values
	}
	return audit.CheckTable(context.Background(), m.det, m.sem, cols, 0, 1)
}

// tiedBody reports whether body is the expected answer exp for t once
// suggestions from tied dominant patterns are reconciled (see ties.go),
// and how many findings were reconciled.
func tiedBody(t *template, exp, body []byte) (bool, int, error) {
	want, err := decodeBody(t, exp)
	if err != nil {
		return false, 0, err
	}
	got, err := decodeBody(t, body)
	if err != nil {
		return false, 0, nil
	}
	ties := 0
	for i, c := range t.cols {
		// Only reconciled columns are written back: the check-table
		// handler leaves columns without findings out of its answer.
		if w, n := reconcileTies(c.Values, want[colName(i)], got[colName(i)]); n > 0 {
			want[colName(i)] = w
			ties += n
		}
	}
	exp, err = encodeBody(t, want)
	return bytes.Equal(exp, body), ties, err
}

// verifyServe checks every sampled response byte for byte against a
// direct audit, then resubmits the sampled columns as one batch job and
// checks that the batch API agrees with the direct audit too.
func (b *bench) verifyServe(s *server, r *replayer, in *serveSetup, all []outcome) error {
	want := map[int][]byte{}
	job := map[string][]string{}
	for _, o := range all {
		if o.index%sampleEvery != 0 || o.status != http.StatusOK {
			continue
		}
		t := in.tmpls[o.tmpl]
		exp, ok := want[o.tmpl]
		if !ok {
			var err error
			if exp, err = encodeBody(t, directAudit(in.m, t)); err != nil {
				return err
			}
			want[o.tmpl] = exp
		}
		if !bytes.Equal(exp, o.body) {
			same, ties, err := tiedBody(t, exp, o.body)
			if err != nil {
				return err
			}
			if same {
				b.tiedSuggestions += ties
			} else {
				b.mismatch("request %d (%s) differs from a direct audit: got %.300s want %.300s", o.index, t.path, o.body, exp)
			}
		}
		if t.path == "/v1/check-column" && len(job) < 100 {
			job[fmt.Sprintf("t%05d", o.tmpl)] = t.cols[0].Values
		}
	}
	logf("verified %d sampled responses against a direct audit", len(want))
	jr, err := s.runJob(b, 0, job)
	if err != nil {
		b.attempted++
		b.mismatch("cross-check job: %v", err)
		return nil
	}
	if err := b.verifyJob(r, jr, job, 1, 1, b.trace != nil); err != nil {
		return err
	}
	if b.trace != nil {
		b.jobLayers(jr.pages)
	}
	return nil
}
