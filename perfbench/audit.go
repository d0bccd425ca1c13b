package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// audit_long is a closed loop of `clients` submitters: each submits a batch
// job of long Ent-XLS and WIKI columns through POST /v1/jobs, polls it to
// done, pages through every finding, and only then submits its next job.
// Every column has more distinct values than the detector scores, so the
// pair loop and repair suggestions dominate, next to one durable state
// write per column.
const (
	jobColumns        = 300
	longMinRows       = 200
	longMaxRows       = 800
	auditJobWorkers   = 2
	verifyStride      = 10 // every 10th column of every job is audited again directly
	auditDeepEvery    = 30 // traced runs replay every 30th column through the lower layers
	auditPlantedShare = 0.5
)

// jobInput is the labeled columns of the job with the given index; a
// job's columns are a function of the seed and the index alone.
func jobInput(seed int64, index int) map[string]*corpus.Column {
	cols := labeledColumns(seed*1_000_003+int64(index)*7919, jobColumns, longMinRows, longMaxRows, auditPlantedShare)
	out := make(map[string]*corpus.Column, len(cols))
	for i, c := range cols {
		out[fmt.Sprintf("c%03d", i)] = c
	}
	return out
}

func valuesOf(cols map[string]*corpus.Column) map[string][]string {
	out := make(map[string][]string, len(cols))
	for n, c := range cols {
		out[n] = c.Values
	}
	return out
}

// auditJob is one job as a submitter ran it. Its columns are dropped once
// the job is scored, so the benchmark's own memory does not grow with the
// jobs done and change the collector's work; the checks regenerate them.
type auditJob struct {
	index int
	res   *jobResult
	err   error
	lag   time.Duration // submit time minus the moment the previous job of the submitter ended
	q     quality
}

func runAudit(b *bench) error {
	m, err := timeSetups(b, modelSetups, func(i int) (*model, error) {
		return buildModel(filepath.Join(b.work, fmt.Sprintf("setup-%d", i)), modelColumns, servingLanguages())
	})
	if err != nil {
		return err
	}
	s, err := startServer(m, filepath.Join(b.work, "jobs"), auditJobWorkers)
	if err != nil {
		return err
	}
	defer s.close()

	// Each submitter generates its next job's columns while the current
	// one runs, so generation does not leave a job worker idle.
	next := make([]chan map[string]*corpus.Column, clients)
	for c := range next {
		next[c] = make(chan map[string]*corpus.Column, 1)
		next[c] <- jobInput(b.seed, c)
	}
	stop := b.measure()
	rt0, hot0 := readRuntime(), core.HotPath()
	start := time.Now()
	deadline := start.Add(b.seconds)
	var mu sync.Mutex
	var done []*auditJob
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int, next chan map[string]*corpus.Column) {
			defer wg.Done()
			ended := start
			for k := 0; time.Now().Before(deadline); k++ {
				j := &auditJob{index: k*clients + c}
				cols := <-next
				go func(index int) { next <- jobInput(b.seed, index) }(j.index + clients)
				j.lag = time.Since(ended)
				j.res, j.err = s.runJob(b, uint64(j.index), valuesOf(cols))
				ended = time.Now()
				if j.err == nil {
					for n, c := range cols {
						j.q.add(c, j.res.findings[n])
					}
				}
				mu.Lock()
				done = append(done, j)
				mu.Unlock()
			}
			<-next
		}(c, next[c])
	}
	wg.Wait()
	hot1 := core.HotPath()
	b.runtimeSince(rt0)
	sort.Slice(done, func(i, j int) bool { return done[i].index < done[j].index })

	var lat, lag []float64
	var pages []time.Duration
	columns, byDeadline := 0, 0
	var q quality
	for _, j := range done {
		b.attempted++
		lag = append(lag, ms(j.lag))
		if j.err != nil {
			b.mismatch("job %d: %v", j.index, j.err)
			continue
		}
		columns += jobColumns
		byDeadline += j.res.doneBy(deadline)
		lat = append(lat, ms(j.res.done.Sub(j.res.submit)))
		pages = append(pages, j.res.pages...)
		q.merge(j.q)
	}
	stop(columns)
	// Throughput counts the columns done within the measured window, as
	// the status polls saw them, so how the last jobs straddle the end of
	// the window does not move it.
	b.e2e["throughput_per_s"] = float64(byDeadline) / b.seconds.Seconds()
	b.e2e["latency_p50_ms"] = quantile(lat, 0.5)
	logf("%d jobs of %d columns (%d–%d rows), %d columns done within %v, with %d submitters and %d job workers",
		len(done), jobColumns, longMinRows, longMaxRows, byDeadline, b.seconds, clients, auditJobWorkers)
	b.reportQuality(q)
	b.layer["loadgen.lag_ms"] = quantile(lag, 0.99)
	b.layer["loadgen.sent"] = float64(len(done))
	b.layer["core.pairs"] = float64(hot1.Pairs - hot0.Pairs)
	b.layer["core.lang_pairs"] = float64(hot1.LanguagePairs - hot0.LanguagePairs)

	props := newInputProps(m.det)
	for _, j := range done[:min(2, len(done))] {
		cols := jobInput(b.seed, j.index)
		for i := 0; i < 100; i++ {
			props.add(cols[fmt.Sprintf("c%03d", i)].Values)
		}
	}
	props.report("columns")

	r := &replayer{tr: b.trace, det: m.det, sem: m.sem}
	var first *jobResult
	for _, j := range done {
		if j.err != nil {
			continue
		}
		replayAll := b.trace != nil && first == nil
		if replayAll {
			first = j.res
		}
		if err := b.verifyJob(r, j.res, valuesOf(jobInput(b.seed, j.index)), verifyStride, auditDeepEvery, replayAll); err != nil {
			return err
		}
	}
	if b.trace == nil {
		return nil
	}
	if first == nil {
		return fmt.Errorf("no job completed")
	}
	var replays []*http.Request
	for page := 0; page < 3; page++ {
		replays = append(replays, httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/jobs/%s/results?page=%d&page_size=1000", first.id, page), nil))
	}
	b.columnLayers(r)
	b.serviceLayers(s, "service.job_request", replays)
	b.jobLayers(pages)
	b.layerFromBuild(m.build)
	return b.replayStatsWrites(m.corpus, m.langs)
}
