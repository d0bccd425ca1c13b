package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/observe"
)

// getText fetches url and returns status plus body.
func getText(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint drives one detection request and then scrapes
// /metrics, asserting every advertised family from the service layer is
// present: readiness/model gauges, HTTP request counters with bounded
// route labels, span histograms, and the hot-path counter funcs.
func TestMetricsEndpoint(t *testing.T) {
	det, sem := trainedModel(t)
	svc := New(det, sem)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, _ := postJSON(t, ts.URL+"/v1/check-column", map[string]any{
		"values": []string{"2011-01-01", "2012-05-14", "2013/11/30"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check-column status = %d", resp.StatusCode)
	}

	status, body := getText(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	for _, want := range []string{
		"autodetect_model_loaded 1",
		"autodetect_model_bytes ",
		"autodetect_model_languages ",
		"autodetect_model_swaps_total 0",
		`autodetect_http_requests_total{route="/v1/check-column",code="200"} 1`,
		`autodetect_span_seconds_count{span="check_column"} 1`,
		`autodetect_span_seconds_count{span="check_column/detect_pattern"} 1`,
		"autodetect_detect_values_total",
		"autodetect_detect_pairs_total",
		"autodetect_detect_language_pairs_total",
		"autodetect_detect_pattern_pairs_total",
		"autodetect_sketch_estimate_total",
		"# TYPE autodetect_http_request_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Unknown paths must collapse into the "other" route label.
	if st, _ := getText(t, ts.URL+"/no/such/route"); st != http.StatusNotFound {
		t.Fatalf("unknown route status = %d", st)
	}
	_, body = getText(t, ts.URL+"/metrics")
	if !strings.Contains(body, `autodetect_http_requests_total{route="other",code="404"} 1`) {
		t.Error("unknown route was not collapsed into the \"other\" label")
	}
}

// TestSwapUpdatesMetrics checks the model-swap counter and gauge resync.
func TestSwapUpdatesMetrics(t *testing.T) {
	det, sem := trainedModel(t)
	svc := New(det, sem)
	reg := svc.Registry()

	if got := reg.Counter("autodetect_model_swaps_total", "").Value(); got != 0 {
		t.Fatalf("swaps before = %v, want 0", got)
	}
	if err := svc.Swap(det, sem); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("autodetect_model_swaps_total", "").Value(); got != 1 {
		t.Errorf("swaps after = %v, want 1", got)
	}
	if got := reg.Gauge("autodetect_model_loaded", "").Value(); got != 1 {
		t.Errorf("model_loaded = %v, want 1", got)
	}
	if got := reg.Gauge("autodetect_model_bytes", "").Value(); got <= 0 {
		t.Errorf("model_bytes = %v, want > 0", got)
	}
}

// TestPprofGating pins the security posture: /debug/pprof is absent by
// default and only mounted when EnablePprof is set.
func TestPprofGating(t *testing.T) {
	det, sem := trainedModel(t)

	off := httptest.NewServer(New(det, sem).Handler())
	defer off.Close()
	if st, _ := getText(t, off.URL+"/debug/pprof/"); st != http.StatusNotFound {
		t.Errorf("pprof disabled: status = %d, want 404", st)
	}

	onSvc := New(det, sem)
	onSvc.EnablePprof = true
	on := httptest.NewServer(onSvc.Handler())
	defer on.Close()
	if st, _ := getText(t, on.URL+"/debug/pprof/"); st != http.StatusOK {
		t.Errorf("pprof enabled: status = %d, want 200", st)
	}
}

// TestSharedRegistry checks that a caller-supplied registry is adopted,
// so the daemon can co-locate pipeline metrics with serving metrics.
func TestSharedRegistry(t *testing.T) {
	det, sem := trainedModel(t)
	reg := observe.NewRegistry()
	svc := New(det, sem)
	svc.Metrics = reg
	if svc.Registry() != reg {
		t.Fatal("server did not adopt the provided registry")
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	reg.Counter("autodetect_extra_total", "Caller-registered series.").Add(7)
	_, body := getText(t, ts.URL+"/metrics")
	if !strings.Contains(body, "autodetect_extra_total 7") {
		t.Error("caller-registered counter missing from /metrics")
	}
}
