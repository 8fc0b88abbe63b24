package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ldiv"
	"ldiv/internal/store"
)

// sampleCSV is a small 2-eligible table (no disease exceeds half the rows).
const sampleCSV = `Age,Gender,Disease
30,M,flu
30,F,cold
40,M,flu
40,F,cold
50,M,angina
50,F,flu
60,M,cold
60,F,angina
`

// newTestServer starts a Server with the given config on an httptest server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// submit POSTs csv with the given query string and decodes the response.
func submit(t *testing.T, ts *httptest.Server, query, csv string) (int, jobView, errorBody) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?"+query, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var view jobView
	var apiErr errorBody
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
	} else if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatalf("decoding error %q: %v", body, err)
	}
	return resp.StatusCode, view, apiErr
}

// getJSON fetches path and decodes the body into out, returning the status.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
	}
	return resp.StatusCode
}

// awaitDone polls the status endpoint until the job leaves the queue.
func awaitDone(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var view jobView
		if code := getJSON(t, ts, "/v1/jobs/"+id, &view); code != http.StatusOK {
			t.Fatalf("status endpoint returned %d", code)
		}
		switch view.Status {
		case store.PhaseDone, store.PhaseFailed, store.PhaseQuarantined:
			return view
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobView{}
}

// fetchResult GETs a result part and returns (status, body).
func fetchResult(t *testing.T, ts *httptest.Server, id, query string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result" + query)
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

func TestSubmitPollFetchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, view, _ := submit(t, ts, "algo=tp%2B&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d, want 202", code)
	}
	if view.ID == "" || view.Params.Algorithm != "tp+" || view.Params.L != 2 {
		t.Fatalf("submit view = %+v", view)
	}

	done := awaitDone(t, ts, view.ID)
	if done.Status != store.PhaseDone {
		t.Fatalf("job ended %s: %s", done.Status, done.Error)
	}
	m := done.Metrics
	if m == nil {
		t.Fatal("done job has no metrics")
	}
	if m.Rows != 8 {
		t.Errorf("metrics.Rows = %d, want 8", m.Rows)
	}
	if m.KLDivergence == nil {
		t.Error("generalization job should report KL-divergence")
	}
	if m.TerminationPhase < 1 || m.TerminationPhase > 3 {
		t.Errorf("termination phase = %d", m.TerminationPhase)
	}

	code, csv := fetchResult(t, ts, view.ID, "")
	if code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	// The release must be a valid CSV table that is 2-diverse.
	tbl, err := ldiv.ReadCSV(strings.NewReader(sampleCSV), []string{"Age", "Gender"}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv, "\n"); lines != tbl.Len()+1 {
		t.Errorf("result has %d lines, want %d", lines, tbl.Len()+1)
	}
	if !strings.HasPrefix(csv, "Age,Gender,Disease\n") {
		t.Errorf("result header wrong: %q", csv[:30])
	}

	// part=st only exists for anatomy.
	if code, _ := fetchResult(t, ts, view.ID, "?part=st"); code != http.StatusNotFound {
		t.Errorf("part=st on a generalization job returned %d, want 404", code)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	tests := []struct {
		name     string
		query    string
		csv      string
		wantCode int
		wantErr  string
	}{
		{"unknown algorithm", "algo=k-anon&l=2&qi=Age&sa=Disease", sampleCSV, 400, "invalid_algorithm"},
		{"missing l", "algo=tp&qi=Age&sa=Disease", sampleCSV, 400, "invalid_l"},
		{"non-integer l", "algo=tp&l=two&qi=Age&sa=Disease", sampleCSV, 400, "invalid_l"},
		{"l below 2", "algo=tp&l=1&qi=Age&sa=Disease", sampleCSV, 400, "invalid_l"},
		{"missing qi", "algo=tp&l=2&sa=Disease", sampleCSV, 400, "missing_qi"},
		{"missing sa", "algo=tp&l=2&qi=Age", sampleCSV, 400, "missing_sa"},
		{"empty body", "algo=tp&l=2&qi=Age&sa=Disease", "", 400, "bad_csv"},
		{"unknown column", "algo=tp&l=2&qi=Nope&sa=Disease", sampleCSV, 400, "bad_csv"},
		{"ambiguous QI column", "algo=tp&l=2&qi=Age&sa=Disease", "Age,Age,Disease\n30,99,flu\n40,98,cold\n", 400, "bad_csv"},
		{"ambiguous SA column", "algo=tp&l=2&qi=Age&sa=Disease", "Disease,Age,Disease\nflu,30,cold\nflu,40,flu\n", 400, "bad_csv"},
		{"unselected duplicate column", "algo=tp&l=2&qi=Age&sa=Disease", "Note,Age,Disease,Note\nx,30,flu,y\nx,40,cold,y\n", 202, ""},
		{"bad projection", "algo=tp&l=2&qi=Age,Gender&sa=Disease&projection=Nope", sampleCSV, 400, "bad_projection"},
		{"not eligible", "algo=tp&l=5&qi=Age,Gender&sa=Disease", sampleCSV, 422, "not_eligible"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, _, apiErr := submit(t, ts, tc.query, tc.csv)
			if code != tc.wantCode || apiErr.Error.Code != tc.wantErr {
				t.Errorf("got %d/%s, want %d/%s (message %q)",
					code, apiErr.Error.Code, tc.wantCode, tc.wantErr, apiErr.Error.Message)
			}
		})
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	code, _, apiErr := submit(t, ts, "algo=tp&l=2&qi=Age&sa=Disease", sampleCSV)
	if code != http.StatusRequestEntityTooLarge || apiErr.Error.Code != "body_too_large" {
		t.Fatalf("got %d/%s, want 413/body_too_large", code, apiErr.Error.Code)
	}
}

func TestResultCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	query := "algo=tp%2B&l=2&qi=Age,Gender&sa=Disease"
	code, first, _ := submit(t, ts, query, sampleCSV)
	if code != http.StatusAccepted {
		t.Fatalf("first submit returned %d", code)
	}
	awaitDone(t, ts, first.ID)
	_, firstCSV := fetchResult(t, ts, first.ID, "")

	code, second, _ := submit(t, ts, query, sampleCSV)
	if code != http.StatusOK {
		t.Fatalf("cached submit returned %d, want 200", code)
	}
	if !second.Cached || second.Status != store.PhaseDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	_, secondCSV := fetchResult(t, ts, second.ID, "")
	if firstCSV != secondCSV {
		t.Error("cached result differs from computed result")
	}
	if got := s.metrics.cacheHits.Load(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	// Different parameters miss the cache.
	code, third, _ := submit(t, ts, "algo=tp&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	if code != http.StatusAccepted || third.Cached {
		t.Errorf("different algorithm should miss the cache: %d %+v", code, third)
	}
	awaitDone(t, ts, third.ID)
}

func TestAnatomyResultParts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	code, view, _ := submit(t, ts, "algo=anatomy&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	done := awaitDone(t, ts, view.ID)
	if done.Status != store.PhaseDone {
		t.Fatalf("anatomy job failed: %s", done.Error)
	}
	if done.Metrics.Stars != 0 {
		t.Errorf("anatomy reported %d stars, want 0", done.Metrics.Stars)
	}
	if done.Metrics.KLDivergence != nil {
		t.Error("anatomy should not report KL-divergence")
	}

	code, qit := fetchResult(t, ts, view.ID, "")
	if code != http.StatusOK || !strings.HasPrefix(qit, "Row,Age,Gender,GroupID\n") {
		t.Fatalf("QIT part: %d %q", code, qit)
	}
	code, st := fetchResult(t, ts, view.ID, "?part=st")
	if code != http.StatusOK || !strings.HasPrefix(st, "GroupID,Disease,Count\n") {
		t.Fatalf("ST part: %d %q", code, st)
	}
	if code, _ := fetchResult(t, ts, view.ID, "?part=bogus"); code != http.StatusNotFound {
		t.Errorf("unknown part returned %d, want 404", code)
	}
}

func TestResultBeforeDoneAndAfterFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	block := make(chan struct{})
	s.run = func(t *ldiv.Table, p Params) (*Result, error) {
		<-block
		return nil, fmt.Errorf("synthetic failure")
	}
	code, view, _ := submit(t, ts, "algo=tp&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	if code, _ := fetchResult(t, ts, view.ID, ""); code != http.StatusConflict {
		t.Errorf("result of unfinished job returned %d, want 409", code)
	}
	close(block)
	done := awaitDone(t, ts, view.ID)
	if done.Status != store.PhaseFailed || !strings.Contains(done.Error, "synthetic failure") {
		t.Fatalf("job view = %+v", done)
	}
	code, body := fetchResult(t, ts, view.ID, "")
	if code != http.StatusConflict || !strings.Contains(body, "job_failed") {
		t.Errorf("result of failed job: %d %q", code, body)
	}
	if got := s.metrics.jobsFailed.Load(); got != 1 {
		t.Errorf("jobsFailed = %d, want 1", got)
	}
}

func TestJobPanicBecomesFailure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	s.run = func(t *ldiv.Table, p Params) (*Result, error) { panic("kaboom") }
	_, view, _ := submit(t, ts, "algo=tp&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	done := awaitDone(t, ts, view.ID)
	if done.Status != store.PhaseFailed || !strings.Contains(done.Error, "kaboom") {
		t.Fatalf("panicking job view = %+v", done)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	block := make(chan struct{})
	defer close(block)
	s.run = func(t *ldiv.Table, p Params) (*Result, error) {
		<-block
		return nil, fmt.Errorf("never observed")
	}
	// Occupy the single worker. Capacity 0 means a submission is accepted only
	// when a worker is ready to receive it, so retry until the worker
	// goroutine has parked on the queue.
	deadline := time.Now().Add(10 * time.Second)
	var first jobView
	for {
		code, view, _ := submit(t, ts, "algo=tp&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
		if code == http.StatusAccepted {
			first = view
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		var view jobView
		getJSON(t, ts, "/v1/jobs/"+first.ID, &view)
		if view.Status == store.PhaseRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	before := s.metrics.jobsRejected.Load()
	code, _, apiErr := submit(t, ts, "algo=tp&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	if code != http.StatusTooManyRequests || apiErr.Error.Code != "queue_full" {
		t.Fatalf("got %d/%s, want 429/queue_full", code, apiErr.Error.Code)
	}
	if got := s.metrics.jobsRejected.Load(); got != before+1 {
		t.Errorf("jobsRejected = %d, want %d", got, before+1)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	real := s.run
	s.run = func(t *ldiv.Table, p Params) (*Result, error) {
		close(started)
		<-release
		return real(t, p)
	}
	code, view, _ := submit(t, ts, "algo=tp%2B&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d", code)
	}
	<-started
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a job was still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the in-flight job finished")
	}
	// The drained job completed and is still queryable.
	done := awaitDone(t, ts, view.ID)
	if done.Status != store.PhaseDone {
		t.Fatalf("drained job ended %s: %s", done.Status, done.Error)
	}
	// New submissions are refused while (and after) draining.
	code, _, apiErr := submit(t, ts, "algo=tp&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	if code != http.StatusServiceUnavailable || apiErr.Error.Code != "shutting_down" {
		t.Errorf("submit during drain: %d/%s, want 503/shutting_down", code, apiErr.Error.Code)
	}
	var health map[string]any
	getJSON(t, ts, "/healthz", &health)
	if health["draining"] != true {
		t.Errorf("healthz during drain = %v", health)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var health map[string]any
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if health["status"] != "ok" || health["draining"] != false {
		t.Errorf("healthz = %v", health)
	}

	_, view, _ := submit(t, ts, "algo=hilbert&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
	awaitDone(t, ts, view.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, w := range []string{
		"ldivd_jobs_submitted_total 1",
		"ldivd_jobs_done_total 1",
		"ldivd_rows_anonymized_total 8",
		"ldivd_cache_misses_total 1",
		`ldivd_job_duration_seconds_bucket{algorithm="hilbert",le="+Inf"} 1`,
		`ldivd_job_duration_seconds_count{algorithm="hilbert"} 1`,
	} {
		if !strings.Contains(text, w) {
			t.Errorf("metrics output misses %q:\n%s", w, text)
		}
	}
}

func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if code := getJSON(t, ts, "/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Errorf("status of unknown job returned %d", code)
	}
	if code, _ := fetchResult(t, ts, "nope", ""); code != http.StatusNotFound {
		t.Errorf("result of unknown job returned %d", code)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	a, b, d := &Result{Rows: 1}, &Result{Rows: 2}, &Result{Rows: 3}
	c.put("a", a)
	c.put("b", b)
	if _, ok := c.get("a"); !ok { // touch a so b is the LRU victim
		t.Fatal("a missing")
	}
	c.put("d", d)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.get("a"); !ok || got != a {
		t.Error("a lost")
	}
	if got, ok := c.get("d"); !ok || got != d {
		t.Error("d lost")
	}
	if c.len() != 2 {
		t.Errorf("len = %d", c.len())
	}

	disabled := newResultCache(0)
	disabled.put("x", a)
	if _, ok := disabled.get("x"); ok || disabled.len() != 0 {
		t.Error("capacity-0 cache should be disabled")
	}
}

func TestCanonicalAlgorithm(t *testing.T) {
	for in, want := range map[string]string{
		"tp": "tp", "TP": "tp", "tp+": "tp+", "TPPlus": "tp+", "tp-plus": "tp+",
		"hilbert": "hilbert", "tds": "tds", "anatomy": "anatomy",
		"mondrian": "mondrian", "Incognito": "incognito",
	} {
		got, ok := ldiv.CanonicalAlgorithm(in)
		if !ok || got != want {
			t.Errorf("CanonicalAlgorithm(%q) = %q, %v", in, got, ok)
		}
	}
	if _, ok := ldiv.CanonicalAlgorithm("k-anonymity"); ok {
		t.Error("unknown algorithm accepted")
	}
}

func TestJobRetentionEvictsOldestFinished(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobRetention: 2, CacheEntries: -1})
	var ids []string
	for i := 0; i < 3; i++ { // cache disabled, so each submission is a fresh job
		code, view, apiErr := submit(t, ts, "algo=tp&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d returned %d: %+v", i, code, apiErr)
		}
		awaitDone(t, ts, view.ID)
		ids = append(ids, view.ID)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+ids[0], nil); code != http.StatusNotFound {
		t.Errorf("oldest finished job still queryable (%d), want evicted", code)
	}
	for _, id := range ids[1:] {
		if code := getJSON(t, ts, "/v1/jobs/"+id, nil); code != http.StatusOK {
			t.Errorf("job %s evicted too early (%d)", id, code)
		}
	}
}
