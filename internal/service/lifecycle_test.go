package service

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldiv"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// stepClock is an injected clock that stands still until the test moves it,
// so every journal timestamp and submitted_at is reproducible.
type stepClock struct{ ms atomic.Int64 }

func newStepClock() *stepClock {
	c := &stepClock{}
	c.ms.Store(1_700_000_000_123)
	return c
}

func (c *stepClock) now() time.Time { return time.UnixMilli(c.ms.Load()) }
func (c *stepClock) step()          { c.ms.Add(1000) }

// variantCSV is sampleCSV with its first age changed, so each variant is a
// distinct body (and submission key) that the cache cannot answer.
func variantCSV(age int) string {
	return strings.Replace(sampleCSV, "30,M,flu", fmt.Sprintf("%d,M,flu", age), 1)
}

// scriptedRun replaces Server.run with a queue of per-call behaviours: each
// call pops the next one and, unless it fails, runs the algorithm.
type scriptedRun struct {
	mu    sync.Mutex
	steps []func() error
}

func (r *scriptedRun) push(steps ...func() error) {
	r.mu.Lock()
	r.steps = append(r.steps, steps...)
	r.mu.Unlock()
}

func (r *scriptedRun) run(tab *ldiv.Table, p Params) (*Result, error) {
	r.mu.Lock()
	var step func() error
	if len(r.steps) > 0 {
		step, r.steps = r.steps[0], r.steps[1:]
	}
	r.mu.Unlock()
	if step != nil {
		if err := step(); err != nil {
			return nil, err
		}
	}
	res, err := runPreparedWorkers(tab, p, 1)
	if err == nil {
		// A runtime whose millisecond float does not truncate back to the
		// same nanosecond count, so a lossy result round trip shows.
		res.Runtime = 1_000_001 * time.Nanosecond
	}
	return res, err
}

func transient(msg string) func() error {
	return func() error { return markTransient(errors.New(msg)) }
}

func permanent(msg string) func() error {
	return func() error { return errors.New(msg) }
}

func ok() error { return nil }

// statusBody fetches a job's raw status JSON.
func statusBody(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status of %s = %d: %s", id, resp.StatusCode, body)
	}
	return string(body)
}

// TestJournalGolden pins the exact journal bytes of a fixed scenario under
// an injected clock: a plain run, a retried run, a permanent failure, a
// quarantine, a cache hit, and a shed submission next to a queued one. The
// journal is the on-disk format, so a change to the job lifecycle must not
// change it. Regenerate with `go test ./internal/service -run
// TestJournalGolden -update` only for a deliberate format change.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	clock := newStepClock()
	s, err := Open(Config{
		Workers: 1, QueueDepth: 1, StoreDir: dir, Clock: clock.now,
		MaxAttempts: 2, RetryBaseDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	script := &scriptedRun{}
	s.run = script.run
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	finish := func(body string, want int, steps ...func() error) {
		t.Helper()
		script.push(steps...)
		code, view, _ := submit(t, ts, sampleQuery, body)
		if code != want {
			t.Fatalf("submit = %d, want %d", code, want)
		}
		awaitDone(t, ts, view.ID)
		clock.step()
	}
	finish(variantCSV(31), http.StatusAccepted, ok)
	finish(variantCSV(32), http.StatusAccepted, transient("flaky disk"), ok)
	finish(variantCSV(33), http.StatusAccepted, permanent("bad input"))
	finish(variantCSV(34), http.StatusAccepted, transient("poison"), transient("poison"))
	finish(variantCSV(31), http.StatusOK)

	// Shed: one job holds the only worker, one fills the backlog, the third
	// is rejected after its accept record was written.
	entered, release := make(chan struct{}), make(chan struct{})
	script.push(func() error { close(entered); <-release; return nil }, ok)
	_, held, _ := submit(t, ts, sampleQuery, variantCSV(35))
	<-entered
	_, queued, _ := submit(t, ts, sampleQuery, variantCSV(36))
	if code, _, _ := submit(t, ts, sampleQuery, variantCSV(37)); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", code)
	}
	close(release)
	awaitDone(t, ts, held.ID)
	awaitDone(t, ts, queued.ID)
	s.Close()

	got, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "journal.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// TestStatusSurvivesRestart checks that a finished job's status JSON is
// byte-identical before a restart and after the store is reopened, for every
// way a job can finish.
func TestStatusSurvivesRestart(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		steps []func() error
		// hit resubmits the first job's body and follows the cache hit.
		hit bool
	}{
		{name: "plain", steps: []func() error{ok}},
		{name: "retried", steps: []func() error{transient("synthetic transient failure 1"), ok}},
		{name: "failed", steps: []func() error{permanent("synthetic permanent failure")}},
		{name: "quarantined", cfg: Config{MaxAttempts: 2},
			steps: []func() error{transient("poison"), transient("poison")}},
		{name: "timeout", cfg: Config{JobTimeout: 20 * time.Millisecond},
			steps: []func() error{func() error { time.Sleep(time.Second); return nil }}},
		{name: "cache-hit", steps: []func() error{ok}, hit: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newStepClock()
			cfg := tc.cfg
			cfg.Workers, cfg.StoreDir, cfg.Clock, cfg.RetryBaseDelay = 1, t.TempDir(), clock.now, time.Millisecond
			s1, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			script := &scriptedRun{}
			script.push(tc.steps...)
			s1.run = script.run
			ts1 := httptest.NewServer(s1.Handler())
			_, view, _ := submit(t, ts1, sampleQuery, sampleCSV)
			awaitDone(t, ts1, view.ID)
			if tc.hit {
				clock.step()
				code, hit, _ := submit(t, ts1, sampleQuery, sampleCSV)
				if code != http.StatusOK || !hit.Cached {
					t.Fatalf("resubmit = %d cached=%v, want 200 cached", code, hit.Cached)
				}
				view = hit
			}
			before := statusBody(t, ts1, view.ID)
			ts1.Close()
			s1.Close()

			clock.step()
			s2, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(s2.Handler())
			defer s2.Close()
			defer ts2.Close()
			if after := statusBody(t, ts2, view.ID); after != before {
				t.Fatalf("status changed across the restart:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}

// TestStoredRuntimeRoundTrips checks that a runtime survives the store's
// millisecond encoding to the nanosecond, so runtime_ms reads the same after
// a restart. Truncating instead of rounding loses 1 ns on 1.8% of this range.
func TestStoredRuntimeRoundTrips(t *testing.T) {
	for d := time.Duration(1); d <= 5_000_000; d++ {
		if got := runtimeFromMS(float64(d) / float64(time.Millisecond)); got != d {
			t.Fatalf("runtime %d ns came back as %d ns", d, got)
		}
	}
}
