package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain starts os/signal's watcher goroutine, which lives for the rest of
// the process once any run installs a handler, before a test takes its
// goroutine baseline.
func TestMain(m *testing.M) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGUSR1)
	signal.Stop(c)
	os.Exit(m.Run())
}

// settled waits until the goroutine count is back to base, so a test sees
// a listener, server or connection left running.
func settled(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines left running, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind: %s", e.Name())
	}
}

// lastJSON decodes the result line a run prints last.
func lastJSON(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return res
}

func TestServeDurableRunLeavesNothingBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "serve-durable", "--seed", "3", "--seconds", "1", "--trace", "1", "--workdir", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	res := lastJSON(t, stdout.String())
	if res["correct"] != true || res["failed"] != 0.0 {
		t.Fatalf("result not correct: %v", res)
	}
	metrics := res["metrics"].(map[string]any)
	for _, d := range perLayer {
		if _, ok := metrics[d.name]; !ok {
			t.Errorf("traced run did not report %s", d.name)
		}
	}
	if got := metrics["service.cache_hit_ratio"].(map[string]any)["value"]; got != 0.5 {
		t.Errorf("cache hit ratio %v, want 0.5", got)
	}
	assertEmpty(t, dir)
	settled(t, base)
}

func TestServeDurableFailedCheckLeavesNothingBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	spec := serveDurable
	spec.rows = 400
	spec.l = 60 // 50 sensitive values: no body is 60-eligible, so every submit fails
	_, _, err := runServe(context.Background(), spec, options{workload: spec.name, seed: 1, seconds: 1, workdir: dir})
	if err == nil {
		t.Fatal("a run whose submits all fail reported no error")
	}
	assertEmpty(t, dir)
	settled(t, base)
}

func TestServeDurableSignalLeavesNothingBehind(t *testing.T) {
	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			base := runtime.NumGoroutine()
			dir := t.TempDir()
			// Signal once the run has created its store, i.e. after it
			// installed its handler and while it holds a server.
			go func() {
				for {
					if entries, _ := os.ReadDir(dir); len(entries) > 0 {
						time.Sleep(200 * time.Millisecond)
						_ = syscall.Kill(os.Getpid(), sig)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
			}()
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", "serve-durable", "--seconds", "20", "--workdir", dir}, &stdout, &stderr)
			if code != 130 {
				t.Fatalf("exit %d after %v, want 130\nstderr:\n%s", code, sig, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("an interrupted run printed a result:\n%s", stdout.String())
			}
			assertEmpty(t, dir)
			settled(t, base)
		})
	}
}

func TestTracedPublishDoesTheSameWork(t *testing.T) {
	csv, err := genSAL(3000, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []publishSpec{publishSAL, publishWide} {
		plain, err := publish(csv, spec.qi, spec.l, spec.algo)
		if err != nil {
			t.Fatal(err)
		}
		traced, tr, err := publishTraced(csv, spec.qi, spec.l, spec.algo)
		if err != nil {
			t.Fatal(err)
		}
		if !traced.sameAs(plain) {
			t.Errorf("%s: traced release differs from the plain one", spec.name)
		}
		if _, err := verifyRelease(plain, spec.l); err != nil {
			t.Errorf("%s: %v", spec.name, err)
		}
		if tr.groups == 0 || tr.releaseBytes != len(plain.csv) {
			t.Errorf("%s: trace counts %d groups, %d release bytes", spec.name, tr.groups, tr.releaseBytes)
		}
	}
}
