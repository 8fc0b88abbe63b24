package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ldiv"
	"ldiv/internal/store"
)

// sampleParams are the submit parameters every durability test uses; they
// match sampleCSV.
func sampleParams() Params {
	return Params{Algorithm: "tp+", L: 2, QI: []string{"Age", "Gender"}, SA: "Disease"}
}

const sampleQuery = "algo=tp%2B&l=2&qi=Age,Gender&sa=Disease"

// submitWithTenant POSTs csv with an X-Tenant header and returns the raw
// response (closed bodies are the caller's problem — it returns the body too).
func submitWithTenant(t *testing.T, ts *httptest.Server, query, csv, tenant string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?"+query, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// metricsText fetches /metrics as a string.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestTransientFailuresRetryUntilSuccess(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RetryBaseDelay: time.Millisecond})
	var mu sync.Mutex
	calls := 0
	s.run = func(tab *ldiv.Table, p Params) (*Result, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n < 3 {
			return nil, markTransient(fmt.Errorf("synthetic transient failure %d", n))
		}
		return runPreparedWorkers(tab, p, 0)
	}
	code, view, _ := submit(t, ts, sampleQuery, sampleCSV)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	done := awaitDone(t, ts, view.ID)
	if done.Status != store.PhaseDone {
		t.Fatalf("job ended %s (%s), want done after retries", done.Status, done.Error)
	}
	if done.Attempts != 3 {
		t.Fatalf("job took %d attempts, want 3", done.Attempts)
	}
	if m := metricsText(t, ts); !strings.Contains(m, "ldivd_job_retries_total 2") {
		t.Fatalf("metrics missing ldivd_job_retries_total 2:\n%s", m)
	}
}

func TestPoisonJobQuarantinedAfterMaxAttempts(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxAttempts: 2, RetryBaseDelay: time.Millisecond})
	s.run = func(tab *ldiv.Table, p Params) (*Result, error) {
		return nil, markTransient(errors.New("synthetic poison"))
	}
	_, view, _ := submit(t, ts, sampleQuery, sampleCSV)
	done := awaitDone(t, ts, view.ID)
	if done.Status != store.PhaseQuarantined {
		t.Fatalf("job ended %s, want quarantined", done.Status)
	}
	if !strings.Contains(done.Error, "2 failed attempts") {
		t.Fatalf("quarantine error %q does not mention the attempt count", done.Error)
	}
	if code, body := fetchResult(t, ts, view.ID, ""); code != http.StatusConflict || !strings.Contains(body, "job_quarantined") {
		t.Fatalf("result for quarantined job = %d %q, want 409 job_quarantined", code, body)
	}
	if m := metricsText(t, ts); !strings.Contains(m, "ldivd_jobs_quarantined_total 1") {
		t.Fatalf("metrics missing ldivd_jobs_quarantined_total 1:\n%s", m)
	}
}

func TestJobTimeoutFailsTheAttempt(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobTimeout: 5 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	s.run = func(tab *ldiv.Table, p Params) (*Result, error) {
		<-release
		return nil, errors.New("never reached in time")
	}
	_, view, _ := submit(t, ts, sampleQuery, sampleCSV)
	done := awaitDone(t, ts, view.ID)
	if done.Status != store.PhaseFailed || !strings.Contains(done.Error, "deadline") {
		t.Fatalf("job ended %s (%q), want failed with a deadline error", done.Status, done.Error)
	}
}

func TestTenantQuotaRejectsAndRefills(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	_, ts := newTestServer(t, Config{Workers: 1, TenantQPS: 1, TenantBurst: 1, Clock: clock})

	if resp, _ := submitWithTenant(t, ts, sampleQuery, sampleCSV, "acme"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first acme submit = %d, want 202", resp.StatusCode)
	}
	resp, body := submitWithTenant(t, ts, sampleQuery, sampleCSV, "acme")
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(string(body), "tenant_quota") {
		t.Fatalf("second acme submit = %d %q, want 429 tenant_quota", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("tenant rejection Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
	// Another tenant has its own bucket.
	if resp, _ := submitWithTenant(t, ts, sampleQuery, sampleCSV, "globex"); resp.StatusCode >= 300 {
		t.Fatalf("globex submit = %d, want success", resp.StatusCode)
	}
	// After the bucket refills, acme is admitted again.
	advance(2 * time.Second)
	if resp, _ := submitWithTenant(t, ts, sampleQuery, sampleCSV, "acme"); resp.StatusCode >= 300 {
		t.Fatalf("acme submit after refill = %d, want success", resp.StatusCode)
	}
	if m := metricsText(t, ts); !strings.Contains(m, "ldivd_tenant_rejections_total 1") {
		t.Fatalf("metrics missing ldivd_tenant_rejections_total 1:\n%s", m)
	}
}

func TestRetryAfterIsComputedFromBacklog(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.run = func(tab *ldiv.Table, p Params) (*Result, error) {
		<-release
		return runPreparedWorkers(tab, p, 0)
	}
	_, first, _ := submit(t, ts, sampleQuery, sampleCSV)
	// Wait until the worker has picked the job up, so the backlog state is
	// deterministic for the submissions below.
	deadline := time.Now().Add(5 * time.Second)
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

	// Polling the result of a queued/running job answers 409 with a computed
	// Retry-After (an integer >= 1), replacing the old hardcoded "1".
	resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result poll = %d, want 409", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("result poll Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
	}

	// Fill the backlog (second CSV differs so the cache cannot answer), then
	// overflow it and check the 429 carries a computed Retry-After too.
	altCSV := strings.Replace(sampleCSV, "30,M,flu", "31,M,flu", 1)
	if code, _, _ := submit(t, ts, sampleQuery, altCSV); code != http.StatusAccepted {
		t.Fatalf("backlog submit = %d, want 202", code)
	}
	thirdCSV := strings.Replace(sampleCSV, "30,M,flu", "32,M,flu", 1)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?"+sampleQuery, strings.NewReader(thirdCSV))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp2.StatusCode)
	}
	if ra, err := strconv.Atoi(resp2.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After = %q, want an integer >= 1", resp2.Header.Get("Retry-After"))
	}
	close(release)
	awaitDone(t, ts, first.ID)
}

func TestDurableResultsSurviveRestart(t *testing.T) {
	dir := t.TempDir()

	s1, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, view, _ := submit(t, ts1, sampleQuery, sampleCSV)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	done := awaitDone(t, ts1, view.ID)
	if done.Status != store.PhaseDone {
		t.Fatalf("job ended %s, want done", done.Status)
	}
	_, want := fetchResult(t, ts1, view.ID, "")
	ts1.Close()
	s1.Close()

	s2, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()

	// The finished job is still queryable after the restart, byte-identical.
	var recovered jobView
	if code := getJSON(t, ts2, "/v1/jobs/"+view.ID, &recovered); code != http.StatusOK {
		t.Fatalf("recovered status = %d, want 200", code)
	}
	if recovered.Status != store.PhaseDone {
		t.Fatalf("recovered job is %s, want done", recovered.Status)
	}
	if code, got := fetchResult(t, ts2, view.ID, ""); code != http.StatusOK || got != want {
		t.Fatalf("recovered result differs from the original (code %d)", code)
	}
	// Resubmitting the same body answers from the durable store without
	// recomputing, and new job IDs do not collide with recovered ones.
	code, again, _ := submit(t, ts2, sampleQuery, sampleCSV)
	if code != http.StatusOK || !again.Cached {
		t.Fatalf("resubmit after restart = %d cached=%v, want 200 cached", code, again.Cached)
	}
	if again.ID == view.ID {
		t.Fatalf("new job reused recovered ID %s", again.ID)
	}
	if m := metricsText(t, ts2); !strings.Contains(m, "ldivd_jobs_recovered_total 1") {
		t.Fatalf("metrics missing ldivd_jobs_recovered_total 1:\n%s", m)
	}
}

// seedCrashedStore writes a journal that looks like a server crashed with the
// given records, returning the body digest and submission key.
func seedCrashedStore(t *testing.T, dir string, extra func(id, key, digest string) []store.Record) (id, key string) {
	t.Helper()
	st, _, err := store.Open(dir, store.OSFS{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	digest, err := st.PutBody([]byte(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	params := sampleParams()
	paramsJSON, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	id = "j000001"
	key = params.cacheKey([]byte(sampleCSV))
	recs := []store.Record{{
		Op: store.OpAccept, ID: id, Key: key, Body: digest,
		Params: paramsJSON, Unix: 1,
	}}
	if extra != nil {
		recs = append(recs, extra(id, key, digest)...)
	}
	if err := st.Append(recs...); err != nil {
		t.Fatal(err)
	}
	return id, key
}

func TestRecoveryReenqueuesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	id, _ := seedCrashedStore(t, dir, func(id, key, digest string) []store.Record {
		return []store.Record{{Op: store.OpRun, ID: id, Attempt: 1, Unix: 2}}
	})

	s, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	done := awaitDone(t, ts, id)
	if done.Status != store.PhaseDone {
		t.Fatalf("recovered job ended %s (%s), want done", done.Status, done.Error)
	}
	// The recovered run is byte-identical to a direct library run.
	tab, err := ldiv.ReadCSV(strings.NewReader(sampleCSV), []string{"Age", "Gender"}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	res, err := runPreparedWorkers(tab, sampleParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, got := fetchResult(t, ts, id, ""); got != string(res.CSV) {
		t.Fatal("recovered job's result differs from a direct library run")
	}
}

func TestRecoveryQuarantinesPoisonJobs(t *testing.T) {
	dir := t.TempDir()
	id, _ := seedCrashedStore(t, dir, func(id, key, digest string) []store.Record {
		// Three interrupted attempts: the job was mid-run at every crash.
		return []store.Record{
			{Op: store.OpRun, ID: id, Attempt: 1, Unix: 2},
			{Op: store.OpRun, ID: id, Attempt: 2, Unix: 3},
			{Op: store.OpRun, ID: id, Attempt: 3, Unix: 4},
		}
	})

	s, err := Open(Config{Workers: 1, StoreDir: dir, MaxAttempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var view jobView
	if code := getJSON(t, ts, "/v1/jobs/"+id, &view); code != http.StatusOK {
		t.Fatalf("poison job status = %d, want 200", code)
	}
	if view.Status != store.PhaseQuarantined {
		t.Fatalf("poison job is %s, want quarantined", view.Status)
	}
	if m := metricsText(t, ts); !strings.Contains(m, "ldivd_jobs_quarantined_total 1") {
		t.Fatalf("metrics missing ldivd_jobs_quarantined_total 1:\n%s", m)
	}
}

func TestRecoveryQuarantinesJobWithUnreadableResult(t *testing.T) {
	dir := t.TempDir()
	id, key := seedCrashedStore(t, dir, func(id, key, digest string) []store.Record {
		return []store.Record{{Op: store.OpDone, ID: id, Key: key, Unix: 2}}
	})
	// The journal says done, but the result files never made it (or were
	// lost): the job must come back quarantined, not 404 and not fatal.
	_ = key

	s, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	var view jobView
	if code := getJSON(t, ts, "/v1/jobs/"+id, &view); code != http.StatusOK {
		t.Fatalf("status = %d, want 200", code)
	}
	if view.Status != store.PhaseQuarantined {
		t.Fatalf("job with missing result is %s, want quarantined", view.Status)
	}
	m := metricsText(t, ts)
	if !strings.Contains(m, "ldivd_jobs_quarantined_total 1") {
		t.Fatalf("metrics missing ldivd_jobs_quarantined_total 1:\n%s", m)
	}
}

func TestCorruptJournalQuarantinesButServes(t *testing.T) {
	dir := t.TempDir()
	seedCrashedStore(t, dir, nil)
	// Append garbage to the journal: the tail must be quarantined while the
	// server still opens and serves both the recovered job and new traffic.
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"op\":\"garbage\"}\n\x00\x01\x02 torn"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err := Open(Config{Workers: 1, StoreDir: dir})
	if err != nil {
		t.Fatalf("Open on a corrupt journal must not fail: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	m := metricsText(t, ts)
	if !strings.Contains(m, "ldivd_store_errors_total") || strings.Contains(m, "ldivd_store_errors_total 0\n") {
		t.Fatalf("metrics should count the corrupt journal entries:\n%s", m)
	}
	// New traffic still works on the repaired store.
	code, view, _ := submit(t, ts, sampleQuery, strings.Replace(sampleCSV, "30,M,flu", "33,M,flu", 1))
	if code != http.StatusAccepted {
		t.Fatalf("submit on repaired store = %d, want 202", code)
	}
	if done := awaitDone(t, ts, view.ID); done.Status != store.PhaseDone {
		t.Fatalf("job on repaired store ended %s, want done", done.Status)
	}
}

func TestStoreAppendFailureReturns500(t *testing.T) {
	dir := t.TempDir()
	ffs := newFaultInjectingFS()
	s, err := Open(Config{Workers: 1, StoreDir: dir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	ffs.failOn("sync", "journal.log", errors.New("injected fsync failure"))
	code, _, apiErr := submit(t, ts, sampleQuery, sampleCSV)
	if code != http.StatusInternalServerError || apiErr.Error.Code != "store_error" {
		t.Fatalf("submit with failing journal = %d %q, want 500 store_error", code, apiErr.Error.Code)
	}
	ffs.clearFaults()
	// Once the disk heals, the same submission is accepted.
	code, view, _ := submit(t, ts, sampleQuery, sampleCSV)
	if code != http.StatusAccepted {
		t.Fatalf("submit after fault cleared = %d, want 202", code)
	}
	if done := awaitDone(t, ts, view.ID); done.Status != store.PhaseDone {
		t.Fatalf("job ended %s, want done", done.Status)
	}
	m := metricsText(t, ts)
	if !strings.Contains(m, "ldivd_store_errors_total 1") {
		t.Fatalf("metrics missing ldivd_store_errors_total 1:\n%s", m)
	}
}

// faultInjectingFS is a store.FS that delegates to the real filesystem but
// fails selected operations, for proving the service surfaces store faults
// instead of acknowledging jobs it cannot make durable. (The store package
// has its own richer double; this one only covers the service-level seams.)
type faultInjectingFS struct {
	os store.OSFS

	mu    sync.Mutex
	rules []faultRule
}

type faultRule struct {
	op     string // "sync", "create", "openappend", "rename"
	substr string
	err    error
}

func newFaultInjectingFS() *faultInjectingFS { return &faultInjectingFS{} }

func (f *faultInjectingFS) failOn(op, substr string, err error) {
	f.mu.Lock()
	f.rules = append(f.rules, faultRule{op, substr, err})
	f.mu.Unlock()
}

func (f *faultInjectingFS) clearFaults() {
	f.mu.Lock()
	f.rules = nil
	f.mu.Unlock()
}

func (f *faultInjectingFS) check(op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rules {
		if r.op == op && strings.Contains(path, r.substr) {
			return r.err
		}
	}
	return nil
}

func (f *faultInjectingFS) MkdirAll(path string) error { return f.os.MkdirAll(path) }

func (f *faultInjectingFS) OpenAppend(path string) (store.File, error) {
	if err := f.check("openappend", path); err != nil {
		return nil, err
	}
	file, err := f.os.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultInjectingFile{File: file, fs: f, path: path}, nil
}

func (f *faultInjectingFS) Create(path string) (store.File, error) {
	if err := f.check("create", path); err != nil {
		return nil, err
	}
	file, err := f.os.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultInjectingFile{File: file, fs: f, path: path}, nil
}

func (f *faultInjectingFS) ReadFile(path string) ([]byte, error) { return f.os.ReadFile(path) }

func (f *faultInjectingFS) Rename(oldpath, newpath string) error {
	if err := f.check("rename", newpath); err != nil {
		return err
	}
	return f.os.Rename(oldpath, newpath)
}

func (f *faultInjectingFS) Remove(path string) error              { return f.os.Remove(path) }
func (f *faultInjectingFS) Stat(path string) (fs.FileInfo, error) { return f.os.Stat(path) }
func (f *faultInjectingFS) Truncate(path string, n int64) error   { return f.os.Truncate(path, n) }
func (f *faultInjectingFS) SyncDir(path string) error             { return f.os.SyncDir(path) }

type faultInjectingFile struct {
	store.File
	fs   *faultInjectingFS
	path string
}

func (f *faultInjectingFile) Sync() error {
	if err := f.fs.check("sync", f.path); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestMetricsExposeDurabilityCounters pins the full set of durability metric
// names so dashboards can rely on them existing from the first scrape.
func TestMetricsExposeDurabilityCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	m := metricsText(t, ts)
	for _, name := range []string{
		"ldivd_job_retries_total",
		"ldivd_jobs_recovered_total",
		"ldivd_jobs_quarantined_total",
		"ldivd_store_errors_total",
		"ldivd_tenant_rejections_total",
	} {
		if !strings.Contains(m, name+" 0") {
			t.Errorf("metrics missing %s", name)
		}
	}
}

func TestBackoffDelayIsBoundedAndDeterministic(t *testing.T) {
	s := New(Config{Workers: 1, RetryBaseDelay: 100 * time.Millisecond})
	defer s.Close()
	prevMin := time.Duration(0)
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := s.backoffDelay("somekey", attempt)
		d2 := s.backoffDelay("somekey", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff is nondeterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 > 10*time.Second {
			t.Fatalf("attempt %d: backoff %v exceeds the 10s cap", attempt, d1)
		}
		if d1 < prevMin/2 {
			t.Fatalf("attempt %d: backoff %v collapsed below half the previous floor", attempt, d1)
		}
		prevMin = d1
	}
	if a, b := s.backoffDelay("key-a", 1), s.backoffDelay("key-b", 1); a == b {
		t.Log("distinct keys produced equal jitter; possible but unlikely — not a failure")
	}
}
