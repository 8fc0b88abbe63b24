package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// openTemp opens a store in a fresh temp dir over the given FS (nil = real).
func openTemp(t *testing.T, fsys FS) (*Store, *Replay, string) {
	t.Helper()
	dir := t.TempDir()
	s, rep, err := Open(dir, fsys)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, rep, dir
}

// reopen closes nothing and replays the same directory fresh.
func reopen(t *testing.T, dir string, fsys FS) (*Store, *Replay) {
	t.Helper()
	s, rep, err := Open(dir, fsys)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, rep
}

func TestJournalRoundTrip(t *testing.T) {
	s, rep, dir := openTemp(t, nil)
	if len(rep.Jobs) != 0 || len(rep.Quarantined) != 0 {
		t.Fatalf("fresh store replayed %d jobs, %d quarantines", len(rep.Jobs), len(rep.Quarantined))
	}
	params := json.RawMessage(`{"l":2}`)
	recs := []Record{
		{Op: OpAccept, ID: "j000001", Key: "k1", Body: "b1", Params: params, Tenant: "acme", Unix: 42},
		{Op: OpRun, ID: "j000001", Attempt: 1},
		{Op: OpDone, ID: "j000001", Key: "k1"},
		{Op: OpAccept, ID: "j000002", Key: "k2", Body: "b2", Params: params},
		{Op: OpRun, ID: "j000002", Attempt: 1},
		{Op: OpAccept, ID: "j000003", Key: "k3", Body: "b3", Params: params},
		{Op: OpAccept, ID: "j000004", Key: "k4", Body: "b4", Params: params},
		{Op: OpRun, ID: "j000004", Attempt: 1},
		{Op: OpRetry, ID: "j000004", Attempt: 1, Error: "flaky"},
		{Op: OpRun, ID: "j000004", Attempt: 2},
		{Op: OpFailed, ID: "j000004", Error: "boom"},
		{Op: OpAccept, ID: "j000005", Key: "k5", Body: "b5", Params: params},
		{Op: OpShed, ID: "j000005"},
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append(%v): %v", r.Op, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep = reopen(t, dir, nil)
	if len(rep.Quarantined) != 0 {
		t.Fatalf("clean journal produced quarantines: %+v", rep.Quarantined)
	}
	want := []struct {
		id       string
		phase    Phase
		attempts int
		tenant   string
	}{
		{"j000001", PhaseDone, 1, "acme"},
		{"j000002", PhaseRunning, 1, ""},
		{"j000003", PhaseQueued, 0, ""},
		{"j000004", PhaseFailed, 2, ""},
	}
	if len(rep.Jobs) != len(want) {
		t.Fatalf("replayed %d jobs, want %d (shed job must vanish): %+v", len(rep.Jobs), len(want), rep.Jobs)
	}
	for i, w := range want {
		got := rep.Jobs[i]
		if got.ID != w.id || got.Phase != w.phase || got.Attempts != w.attempts || got.Tenant != w.tenant {
			t.Errorf("job[%d] = {%s %s attempts=%d tenant=%q}, want %+v", i, got.ID, got.Phase, got.Attempts, got.Tenant, w)
		}
	}
	if rep.Jobs[0].Unix != 42 || string(rep.Jobs[0].Params) != `{"l":2}` {
		t.Errorf("job metadata not preserved: unix=%d params=%s", rep.Jobs[0].Unix, rep.Jobs[0].Params)
	}
}

func TestReplayTruncatedTailIsRepaired(t *testing.T) {
	s, _, dir := openTemp(t, nil)
	if err := s.Append(
		Record{Op: OpAccept, ID: "j000001", Key: "k1", Body: "b1"},
		Record{Op: OpAccept, ID: "j000002", Key: "k2", Body: "b2"},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: half a record, no newline.
	jpath := filepath.Join(dir, "journal.log")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"op":"acc`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.ReadFile(jpath)

	s2, rep := reopen(t, dir, nil)
	if len(rep.Jobs) != 2 {
		t.Fatalf("replayed %d jobs, want the 2 before the torn tail", len(rep.Jobs))
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Line != 3 {
		t.Fatalf("want one tail quarantine verdict on line 3, got %+v", rep.Quarantined)
	}
	after, _ := os.ReadFile(jpath)
	if len(after) >= len(before) {
		t.Fatalf("journal not repaired: %d bytes before, %d after", len(before), len(after))
	}
	// Appends after repair land on a record boundary and replay cleanly.
	if err := s2.Append(Record{Op: OpDone, ID: "j000001", Key: "k1"}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep = reopen(t, dir, nil)
	if len(rep.Quarantined) != 0 {
		t.Fatalf("post-repair journal still quarantines: %+v", rep.Quarantined)
	}
	if rep.Jobs[0].Phase != PhaseDone {
		t.Fatalf("job j000001 = %s, want done", rep.Jobs[0].Phase)
	}
}

func TestReplayBitFlippedRecordQuarantinesAndContinues(t *testing.T) {
	s, _, dir := openTemp(t, nil)
	if err := s.Append(
		Record{Op: OpAccept, ID: "j000001", Key: "k1", Body: "b1"},
		Record{Op: OpDone, ID: "j000001", Key: "k1"},
		Record{Op: OpAccept, ID: "j000002", Key: "k2", Body: "b2"},
		Record{Op: OpDone, ID: "j000002", Key: "k2"},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(dir, "journal.log")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit inside job 1's done record (line 2), past its checksum.
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines[1][15] ^= 0x40
	if err := os.WriteFile(jpath, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	_, rep := reopen(t, dir, nil)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Line != 2 {
		t.Fatalf("want exactly one quarantine verdict on line 2, got %+v", rep.Quarantined)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(rep.Jobs))
	}
	// Job 1 lost its done record, so it replays as non-terminal (recovery
	// will re-run it — correct, since results are deterministic). Job 2,
	// after the corrupt line, is untouched.
	if rep.Jobs[0].ID != "j000001" || rep.Jobs[0].Phase == PhaseDone {
		t.Errorf("job j000001 phase = %s; its done record was corrupted", rep.Jobs[0].Phase)
	}
	if rep.Jobs[1].ID != "j000002" || rep.Jobs[1].Phase != PhaseDone {
		t.Errorf("job j000002 = %s, want done (records after a corrupt line must survive)", rep.Jobs[1].Phase)
	}
}

func TestReplayOrphanTransitionIsQuarantined(t *testing.T) {
	s, _, dir := openTemp(t, nil)
	// A done record whose accept was lost: the job must surface as
	// quarantined (the ID was acknowledged once), not vanish into a 404.
	if err := s.Append(
		Record{Op: OpDone, ID: "j000009", Key: "k9"},
		Record{Op: OpAccept, ID: "j000010", Key: "k10", Body: "b10"},
	); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := reopen(t, dir, nil)
	if len(rep.Jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(rep.Jobs))
	}
	// Accepted jobs order first; orphans trail.
	if rep.Jobs[0].ID != "j000010" || rep.Jobs[0].Phase != PhaseQueued {
		t.Errorf("job[0] = %s/%s, want j000010 accepted", rep.Jobs[0].ID, rep.Jobs[0].Phase)
	}
	if rep.Jobs[1].ID != "j000009" || rep.Jobs[1].Phase != PhaseQuarantined {
		t.Errorf("job[1] = %s/%s, want j000009 quarantined", rep.Jobs[1].ID, rep.Jobs[1].Phase)
	}
	if len(rep.Quarantined) == 0 {
		t.Error("orphan transition produced no quarantine verdict")
	}
}

func TestBodyRoundTripAndCorruption(t *testing.T) {
	s, _, _ := openTemp(t, nil)
	body := []byte("Age,Disease\n30,flu\n")
	digest, err := s.PutBody(body)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent re-put.
	if d2, err := s.PutBody(body); err != nil || d2 != digest {
		t.Fatalf("re-put: %q, %v", d2, err)
	}
	got, err := s.GetBody(digest)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("GetBody = %q, %v", got, err)
	}
	if _, err := s.GetBody("0000000000000000000000000000000000000000000000000000000000000000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing body: %v, want ErrNotFound", err)
	}
	// Flip a bit on disk: the digest check must catch it.
	path := s.bodyPath(digest)
	raw, _ := os.ReadFile(path)
	raw[0] ^= 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetBody(digest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped body: %v, want ErrCorrupt", err)
	}
}

// TestConcurrentPutsOfOneFile has 8 goroutines write the same bodies and the
// same result key at once, as two submissions of one CSV or two jobs
// finishing under one key do. Every write must succeed: a temp name shared
// between writers lets one rename the other's file away.
func TestConcurrentPutsOfOneFile(t *testing.T) {
	s, _, dir := openTemp(t, nil)
	bodies := make([][]byte, 16)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("Age,Disease\n%d,flu\n", i))
	}
	csv, st := []byte("a,b\n1,2\n"), []byte("g,d\n0,flu\n")
	const writers = 8
	start := make(chan struct{})
	errs := make(chan error, writers*(len(bodies)+1))
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, body := range bodies {
				if _, err := s.PutBody(body); err != nil {
					errs <- err
				}
			}
			if err := s.PutResult("k1", csv, st, json.RawMessage(`{"stars":3}`)); err != nil {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, body := range bodies {
		sum := sha256.Sum256(body)
		if got, err := s.GetBody(hex.EncodeToString(sum[:])); err != nil || !bytes.Equal(got, body) {
			t.Errorf("GetBody after concurrent puts = %q, %v", got, err)
		}
	}
	if gotCSV, gotST, _, err := s.GetResult("k1"); err != nil || !bytes.Equal(gotCSV, csv) || !bytes.Equal(gotST, st) {
		t.Errorf("GetResult after concurrent puts = %q, %q, %v", gotCSV, gotST, err)
	}
	for _, sub := range []string{"bodies", "results"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".tmp") {
				t.Errorf("temp file left behind: %s/%s", sub, e.Name())
			}
		}
	}
}

func TestResultRoundTripMissingAndCorrupt(t *testing.T) {
	s, _, _ := openTemp(t, nil)
	csv, st := []byte("a,b\n1,2\n"), []byte("g,d\n0,flu\n")
	metrics := json.RawMessage(`{"rows":1}`)
	if s.HasResult("k1") {
		t.Fatal("HasResult true before put")
	}
	if _, _, _, err := s.GetResult("k1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted result: %v, want ErrNotFound", err)
	}
	if err := s.PutResult("k1", csv, st, metrics); err != nil {
		t.Fatal(err)
	}
	gotCSV, gotST, gotMeta, err := s.GetResult("k1")
	if err != nil || !bytes.Equal(gotCSV, csv) || !bytes.Equal(gotST, st) || string(gotMeta) != `{"rows":1}` {
		t.Fatalf("GetResult = %q %q %s, %v", gotCSV, gotST, gotMeta, err)
	}
	if !s.HasResult("k1") {
		t.Fatal("HasResult false after put")
	}

	// Missing result file under a committed meta is corruption, not absence.
	_, csvPath, _ := s.resultPaths("k1")
	if err := os.Remove(csvPath); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.GetResult("k1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing csv under committed meta: %v, want ErrCorrupt", err)
	}

	// Bit-flipped result bytes fail the digest check.
	if err := s.PutResult("k1", csv, nil, nil); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(csvPath)
	raw[0] ^= 1
	if err := os.WriteFile(csvPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.GetResult("k1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped csv: %v, want ErrCorrupt", err)
	}
}

func TestAppendSurfacesInjectedFaults(t *testing.T) {
	ffs := newFaultFS(OSFS{})
	s, _, _ := openTemp(t, ffs)
	boom := errors.New("disk full")

	ffs.fail("write", "journal.log", boom)
	if err := s.Append(Record{Op: OpAccept, ID: "j1"}); !errors.Is(err, boom) {
		t.Fatalf("Append with failing write: %v, want wrapped disk error", err)
	}
	ffs.clear()

	ffs.fail("sync", "journal.log", boom)
	if err := s.Append(Record{Op: OpAccept, ID: "j1"}); !errors.Is(err, boom) {
		t.Fatalf("Append with failing sync: %v, want wrapped disk error", err)
	}
	ffs.clear()
	if err := s.Append(Record{Op: OpAccept, ID: "j1", Key: "k", Body: "b"}); err != nil {
		t.Fatalf("Append after faults cleared: %v", err)
	}
}

func TestPutResultIsAtomicUnderFaults(t *testing.T) {
	ffs := newFaultFS(OSFS{})
	s, _, dir := openTemp(t, ffs)
	boom := errors.New("io error")
	csv := []byte("a\n1\n")

	// Fail the csv write: nothing is committed.
	ffs.fail("sync", "k1.csv", boom)
	if err := s.PutResult("k1", csv, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("PutResult with failing csv sync: %v", err)
	}
	ffs.clear()
	if _, _, _, err := s.GetResult("k1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after failed csv write: %v, want ErrNotFound (no commit)", err)
	}

	// Fail the meta rename: the csv may exist but the result is uncommitted.
	ffs.fail("rename", "k1.json", boom)
	if err := s.PutResult("k1", csv, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("PutResult with failing meta rename: %v", err)
	}
	ffs.clear()
	if _, _, _, err := s.GetResult("k1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after failed meta rename: %v, want ErrNotFound (no commit)", err)
	}

	// No fault: commits, and the temp files did not leak into results/.
	if err := s.PutResult("k1", csv, nil, nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[:4] == ".tmp" {
			t.Errorf("temp file leaked: %s", e.Name())
		}
	}
}

func TestOpenWithUnreadableJournalStartsEmpty(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Record{Op: OpAccept, ID: "j1", Key: "k", Body: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ffs := newFaultFS(OSFS{})
	ffs.fail("readfile", "journal.log", errors.New("bad sector"))
	s2, rep, err := Open(dir, ffs)
	if err != nil {
		t.Fatalf("Open must not fatal on an unreadable journal: %v", err)
	}
	defer s2.Close()
	if len(rep.Jobs) != 0 {
		t.Fatalf("unreadable journal replayed %d jobs", len(rep.Jobs))
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("want one quarantine verdict for the unreadable journal, got %+v", rep.Quarantined)
	}
}
