package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/jobs"
	"repro/internal/service"
)

// clients is the load generator's goroutine and connection count: one per
// core of the two-core box the benchmark is sized for, and never more than
// the cores there are.
var clients = min(2, runtime.NumCPU())

// server is the detection service behind a loopback listener, with the
// batch-job manager mounted, plus the client that drives it.
type server struct {
	handler http.Handler
	jobs    *jobs.Manager
	http    *http.Server
	served  chan error
	base    string
	client  *http.Client

	mu                   sync.Mutex
	requests, shed, t504 int
	bodyBytes            int64
}

// startServer serves m over HTTP on a loopback port with a durable jobs
// directory under dir.
func startServer(m *model, dir string, jobWorkers int) (*server, error) {
	svc := service.New(m.det, m.sem)
	// Long-column audit jobs exceed the default 100k-cell submission cap.
	svc.MaxTableValues = 1 << 21
	mgr, err := jobs.Open(context.Background(), jobs.Config{
		Dir: dir, Workers: jobWorkers, Model: svc.Model,
	})
	if err != nil {
		return nil, err
	}
	svc.Jobs = mgr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close(context.Background())
		return nil, err
	}
	h := svc.Handler()
	s := &server{
		handler: h, jobs: mgr, served: make(chan error, 1),
		http: &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients,
				DisableCompression: true,
			},
		},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serve loop, and drains the
// job manager.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if jerr := s.jobs.Close(ctx); err == nil {
		err = jerr
	}
	return err
}

// do sends one request and reads the whole response. A client-side
// timeout is reported as status 504.
func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	status := 0
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		status, err = http.StatusGatewayTimeout, nil
	}
	s.mu.Lock()
	s.requests++
	s.bodyBytes += int64(len(body))
	switch status {
	case http.StatusTooManyRequests:
		s.shed++
	case http.StatusGatewayTimeout:
		s.t504++
	}
	s.mu.Unlock()
	return status, out, err
}

// call is do plus a root span in traced runs; any status other than want
// is an error.
func (s *server) call(b *bench, spanName string, trace uint64, method, path string, body []byte, want int) ([]byte, time.Duration, error) {
	t0 := time.Now()
	status, out, err := s.do(method, path, body)
	t1 := time.Now()
	b.trace.add(spanName, trace, 0, t0, t1)
	if err == nil && status != want {
		err = fmt.Errorf("%s %s: status %d: %.200s", method, path, status, out)
	}
	return out, t1.Sub(t0), err
}

// serviceLayers records the service per-layer metrics: request counters
// from the client, handler time from replaying requests in process
// through a response recorder, and service self time (round trip minus
// the replayed audit time of the same input) over the spans named
// spanName.
func (b *bench) serviceLayers(s *server, spanName string, replays []*http.Request) {
	var handler []float64
	for _, req := range replays {
		t0 := time.Now()
		s.handler.ServeHTTP(httptest.NewRecorder(), req)
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	self := scaled(b.trace.self(spanName, "audit.check_column"), 1e6)
	s.mu.Lock()
	defer s.mu.Unlock()
	b.layer["service.handler_us"] = median(handler)
	b.layer["service.self_us.p50"] = quantile(self, 0.5)
	b.layer["service.self_us.p99"] = quantile(self, 0.99)
	b.layer["service.requests"] = float64(s.requests)
	b.layer["service.shed_429"] = float64(s.shed)
	b.layer["service.timeouts_504"] = float64(s.t504)
	b.layer["service.body_bytes"] = float64(s.bodyBytes)
}

// jobResult is one finished batch job as the client saw it.
type jobResult struct {
	id           string
	trace        uint64
	submit, done time.Time
	span         int
	findings     map[string][]audit.Finding
	pages        []time.Duration
	// progress holds the columns done as of each status poll.
	progress []progress
}

type progress struct {
	at   time.Time
	done int
}

// doneBy returns how many of the job's columns were done at t, as far as
// the polls before t show.
func (jr *jobResult) doneBy(t time.Time) int {
	n := 0
	for _, p := range jr.progress {
		if p.at.After(t) {
			break
		}
		n = p.done
	}
	return n
}

// pollEvery is how often a submitter polls its job's status. Every poll
// reads the job's whole durable state, so polling much faster would take
// a noticeable share of the CPU from the job workers.
const pollEvery = 100 * time.Millisecond

// runJob submits columns as one batch job, polls it to done and pages
// through every finding.
func (s *server) runJob(b *bench, trace uint64, columns map[string][]string) (*jobResult, error) {
	body, err := json.Marshal(map[string]any{"columns": columns})
	if err != nil {
		return nil, err
	}
	jr := &jobResult{trace: trace, submit: time.Now(), findings: map[string][]audit.Finding{}}
	out, _, err := s.call(b, "service.job_request", trace, http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var st struct {
		ID          string `json:"id"`
		Status      string `json:"status"`
		Error       string `json:"error"`
		ColumnsDone int    `json:"columns_done"`
	}
	if err := json.Unmarshal(out, &st); err != nil {
		return nil, err
	}
	jr.id = st.ID
	for st.Status != string(jobs.StatusDone) {
		if st.Status == string(jobs.StatusFailed) || st.Status == string(jobs.StatusCancelled) {
			return nil, fmt.Errorf("job %s %s: %s", jr.id, st.Status, st.Error)
		}
		if time.Since(jr.submit) > 2*time.Minute {
			return nil, fmt.Errorf("job %s still %s after two minutes", jr.id, st.Status)
		}
		time.Sleep(pollEvery)
		if out, _, err = s.call(b, "service.job_request", trace, http.MethodGet, "/v1/jobs/"+jr.id, nil, http.StatusOK); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(out, &st); err != nil {
			return nil, err
		}
		jr.progress = append(jr.progress, progress{time.Now(), st.ColumnsDone})
	}
	jr.done = time.Now()
	for page := 0; ; page++ {
		out, d, err := s.call(b, "service.job_request", trace, http.MethodGet, fmt.Sprintf("/v1/jobs/%s/results?page=%d&page_size=1000", jr.id, page), nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		jr.pages = append(jr.pages, d)
		var res struct {
			Findings []struct {
				Column string `json:"column"`
				audit.Finding
			} `json:"findings"`
			NextPage *int `json:"next_page"`
		}
		if err := json.Unmarshal(out, &res); err != nil {
			return nil, err
		}
		for _, f := range res.Findings {
			jr.findings[f.Column] = append(jr.findings[f.Column], f.Finding)
		}
		if res.NextPage == nil {
			break
		}
	}
	jr.span = b.trace.add("jobs.job", trace, 0, jr.submit, jr.done)
	return jr, nil
}

// findingsDiff compares two finding lists of the same column values by
// their JSON encoding, the form the API serves them in, and describes the
// first difference ("" when they are equal). Suggestions from tied
// dominant patterns are reconciled first (see ties.go); it also returns
// how many were.
func findingsDiff(values []string, want, got []audit.Finding) (string, int) {
	want, ties := reconcileTies(values, want, got)
	if len(want) == 0 && len(got) == 0 {
		return "", 0
	}
	if len(want) != len(got) {
		return fmt.Sprintf("%d findings, want %d", len(got), len(want)), 0
	}
	for i := range want {
		jw, _ := json.Marshal(want[i]) // a Finding always encodes
		jg, _ := json.Marshal(got[i])
		if !bytes.Equal(jw, jg) {
			return fmt.Sprintf("finding %d is %s, want %s", i, jg, jw), 0
		}
	}
	return "", ties
}

// verifyJob checks the job's findings for the columns at every stride-th
// position of the audit order (column-name order) against a direct audit
// of the same values; each checked column counts as one operation. In
// traced runs every deepEvery-th column is also replayed through the
// layers below the audit; with replayAll every column is audited again
// under the job's span, and the checkpoint writes are replayed too.
func (b *bench) verifyJob(r *replayer, jr *jobResult, columns map[string][]string, stride, deepEvery int, replayAll bool) error {
	names := make([]string, 0, len(columns))
	for n := range columns {
		names = append(names, n)
	}
	sort.Strings(names)
	var results []jobs.ColumnResult
	for i, name := range names {
		if i%stride != 0 && !replayAll {
			continue
		}
		deep := b.trace != nil && deepEvery > 0 && i%deepEvery == 0
		want := r.column(jr.trace, jr.span, columns[name], deep)
		b.attempted++
		d, ties := findingsDiff(columns[name], want, jr.findings[name])
		if d != "" {
			b.mismatch("job %s column %s differs from a direct audit: %s", jr.id, name, d)
		}
		b.tiedSuggestions += ties
		results = append(results, jobs.ColumnResult{Column: name, Findings: want})
	}
	if !replayAll {
		return nil
	}
	return b.replayCheckpoints(jr, results)
}

// replayCheckpoints rewrites the job's durable state once per completed
// column, as the executor does, into a store of its own.
func (b *bench) replayCheckpoints(jr *jobResult, results []jobs.ColumnResult) error {
	dir := filepath.Join(b.work, "replay-jobs")
	store, err := jobs.OpenStore(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// The job directory is created by the submit-time spec write, which
	// the replay leaves out.
	if err := os.MkdirAll(filepath.Join(dir, jr.id), 0o755); err != nil {
		return err
	}
	st := &jobs.State{ID: jr.id, Status: jobs.StatusRunning, ColumnsTotal: len(results)}
	var written int64
	path := filepath.Join(dir, jr.id, "state.bin")
	for i := 0; i <= len(results); i++ {
		st.Results, st.ColumnsDone = results[:i], i
		if i == len(results) {
			st.Status = jobs.StatusDone
		}
		t0 := time.Now()
		if err := store.PutState(st); err != nil {
			return err
		}
		b.trace.add("jobs.put_state", 0, jr.span, t0, time.Now())
		if info, err := os.Stat(path); err == nil {
			written += info.Size()
		}
	}
	b.layer["jobs.state_bytes_written"] += float64(written)
	b.layer["jobs.checkpoints"] += float64(len(results) + 1)
	return nil
}

// jobLayers records the jobs per-layer metrics from the job spans.
func (b *bench) jobLayers(pages []time.Duration) {
	t := b.trace
	jobsS := scaled(t.durations("jobs.job"), 1)
	b.layer["jobs.job_s"] = median(jobsS)
	// Only jobs whose every column was replayed carry a meaningful self
	// time: the job's wall time minus the audit replay of all its columns.
	var self []float64
	replayed := map[int]bool{}
	for _, s := range t.spans {
		if s.Name == "jobs.put_state" {
			replayed[s.Parent] = true
		}
	}
	all := t.self("jobs.job", "audit.check_column")
	i := 0
	for _, s := range t.spans {
		if s.Name == "jobs.job" {
			if replayed[s.ID] {
				self = append(self, all[i].Seconds())
			}
			i++
		}
	}
	b.layer["jobs.self_s"] = median(self)
	put := scaled(t.durations("jobs.put_state"), 1e3)
	b.layer["jobs.put_state_ms.p50"] = quantile(put, 0.5)
	b.layer["jobs.put_state_ms.p99"] = quantile(put, 0.99)
	b.layer["jobs.results_page_ms"] = median(scaled(pages, 1e3))
}
