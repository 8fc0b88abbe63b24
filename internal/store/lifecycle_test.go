package store

import (
	"strings"
	"testing"
)

// TestTransitionTable pins the job lifecycle: every phase a job can be in
// (including no record yet, shed, and an orphan whose accept was lost) times
// every journal op, with the state JobState.Apply reaches and the anomaly it
// reports, checked both on Apply directly and through journal replay.
func TestTransitionTable(t *testing.T) {
	const id = "j000001"
	const corrupt = "journal corrupt: the job's accept record did not survive replay"
	// from builds each starting phase from records.
	from := map[string][]Record{
		"none":        nil,
		"queued":      {{Op: OpAccept, ID: id, Key: "k1", Body: "b1", Tenant: "acme", Unix: 10}},
		"running":     {{Op: OpAccept, ID: id, Key: "k1", Body: "b1", Tenant: "acme", Unix: 10}, {Op: OpRun, ID: id, Attempt: 1, Unix: 11}},
		"retrying":    {{Op: OpAccept, ID: id, Key: "k1", Body: "b1", Tenant: "acme", Unix: 10}, {Op: OpRun, ID: id, Attempt: 1, Unix: 11}, {Op: OpRetry, ID: id, Attempt: 1, Error: "flaky", Unix: 12}},
		"done":        {{Op: OpAccept, ID: id, Key: "k1", Body: "b1", Tenant: "acme", Unix: 10}, {Op: OpRun, ID: id, Attempt: 1, Unix: 11}, {Op: OpDone, ID: id, Key: "k1", Unix: 12}},
		"failed":      {{Op: OpAccept, ID: id, Key: "k1", Body: "b1", Tenant: "acme", Unix: 10}, {Op: OpRun, ID: id, Attempt: 1, Unix: 11}, {Op: OpFailed, ID: id, Error: "boom", Unix: 12}},
		"quarantined": {{Op: OpAccept, ID: id, Key: "k1", Body: "b1", Tenant: "acme", Unix: 10}, {Op: OpRun, ID: id, Attempt: 1, Unix: 11}, {Op: OpQuarantine, ID: id, Attempt: 1, Error: "poison", Unix: 12}},
		"shed":        {{Op: OpAccept, ID: id, Key: "k1", Body: "b1", Tenant: "acme", Unix: 10}, {Op: OpShed, ID: id, Unix: 11}},
		"orphan":      {{Op: OpDone, ID: id, Key: "k1", Unix: 10}},
	}
	ops := map[Op]Record{
		OpAccept:     {Op: OpAccept, ID: id, Key: "k2", Body: "b2", Unix: 20},
		OpRun:        {Op: OpRun, ID: id, Attempt: 2, Unix: 20},
		OpRetry:      {Op: OpRetry, ID: id, Attempt: 2, Error: "again", Unix: 20},
		OpDone:       {Op: OpDone, ID: id, Key: "k3", Unix: 20},
		OpFailed:     {Op: OpFailed, ID: id, Error: "bad", Unix: 20},
		OpQuarantine: {Op: OpQuarantine, ID: id, Attempt: 2, Error: "poison2", Unix: 20},
		OpShed:       {Op: OpShed, ID: id, Unix: 20},
	}
	type want struct {
		phase    Phase
		attempts int
		err      string
		key      string
		unix     int64
		// verdict is a substring of the quarantine verdict the op itself
		// draws; empty means none.
		verdict string
	}
	const dup = "duplicate accept record ignored"
	cases := []struct {
		from string
		op   Op
		want want
	}{
		{"none", OpAccept, want{PhaseQueued, 0, "", "k2", 20, ""}},
		{"none", OpRun, want{PhaseQuarantined, 0, corrupt, "", 20, "run record for job with no surviving accept record"}},
		{"none", OpRetry, want{PhaseQuarantined, 0, corrupt, "", 20, "retry record for job with no surviving accept record"}},
		{"none", OpDone, want{PhaseQuarantined, 0, corrupt, "k3", 20, "done record for job with no surviving accept record"}},
		{"none", OpFailed, want{PhaseQuarantined, 0, corrupt, "", 20, "failed record for job with no surviving accept record"}},
		{"none", OpQuarantine, want{PhaseQuarantined, 0, corrupt, "", 20, "quarantine record for job with no surviving accept record"}},
		{"none", OpShed, want{PhaseShed, 0, "", "", 0, ""}},

		{"queued", OpAccept, want{PhaseQueued, 0, "", "k1", 10, dup}},
		{"queued", OpRun, want{PhaseRunning, 2, "", "k1", 10, ""}},
		{"queued", OpRetry, want{PhaseQueued, 0, "", "k1", 10, ""}},
		{"queued", OpDone, want{PhaseDone, 0, "", "k3", 10, ""}},
		{"queued", OpFailed, want{PhaseFailed, 0, "bad", "k1", 10, ""}},
		{"queued", OpQuarantine, want{PhaseQuarantined, 0, "poison2", "k1", 10, ""}},
		{"queued", OpShed, want{PhaseShed, 0, "", "", 0, ""}},

		{"running", OpAccept, want{PhaseRunning, 1, "", "k1", 10, dup}},
		{"running", OpRun, want{PhaseRunning, 2, "", "k1", 10, ""}},
		{"running", OpRetry, want{PhaseQueued, 1, "again", "k1", 10, ""}},
		{"running", OpDone, want{PhaseDone, 1, "", "k3", 10, ""}},
		{"running", OpFailed, want{PhaseFailed, 1, "bad", "k1", 10, ""}},
		{"running", OpQuarantine, want{PhaseQuarantined, 1, "poison2", "k1", 10, ""}},
		{"running", OpShed, want{PhaseShed, 0, "", "", 0, ""}},

		{"retrying", OpAccept, want{PhaseQueued, 1, "flaky", "k1", 10, dup}},
		{"retrying", OpRun, want{PhaseRunning, 2, "flaky", "k1", 10, ""}},
		{"retrying", OpRetry, want{PhaseQueued, 1, "flaky", "k1", 10, ""}},
		{"retrying", OpDone, want{PhaseDone, 1, "", "k3", 10, ""}},
		{"retrying", OpFailed, want{PhaseFailed, 1, "bad", "k1", 10, ""}},
		{"retrying", OpQuarantine, want{PhaseQuarantined, 1, "poison2", "k1", 10, ""}},
		{"retrying", OpShed, want{PhaseShed, 0, "", "", 0, ""}},

		{"done", OpAccept, want{PhaseDone, 1, "", "k1", 10, dup}},
		{"done", OpRun, want{PhaseDone, 1, "", "k1", 10, ""}},
		{"done", OpRetry, want{PhaseDone, 1, "", "k1", 10, ""}},
		{"done", OpDone, want{PhaseDone, 1, "", "k3", 10, ""}},
		{"done", OpFailed, want{PhaseFailed, 1, "bad", "k1", 10, ""}},
		{"done", OpQuarantine, want{PhaseQuarantined, 1, "poison2", "k1", 10, ""}},
		{"done", OpShed, want{PhaseShed, 0, "", "", 0, ""}},

		{"failed", OpAccept, want{PhaseFailed, 1, "boom", "k1", 10, dup}},
		{"failed", OpRun, want{PhaseFailed, 1, "boom", "k1", 10, ""}},
		{"failed", OpRetry, want{PhaseFailed, 1, "boom", "k1", 10, ""}},
		{"failed", OpDone, want{PhaseDone, 1, "", "k3", 10, ""}},
		{"failed", OpFailed, want{PhaseFailed, 1, "bad", "k1", 10, ""}},
		{"failed", OpQuarantine, want{PhaseQuarantined, 1, "poison2", "k1", 10, ""}},
		{"failed", OpShed, want{PhaseShed, 0, "", "", 0, ""}},

		{"quarantined", OpAccept, want{PhaseQuarantined, 1, "poison", "k1", 10, dup}},
		{"quarantined", OpRun, want{PhaseQuarantined, 1, "poison", "k1", 10, ""}},
		{"quarantined", OpRetry, want{PhaseQuarantined, 1, "poison", "k1", 10, ""}},
		{"quarantined", OpDone, want{PhaseDone, 1, "", "k3", 10, ""}},
		{"quarantined", OpFailed, want{PhaseFailed, 1, "bad", "k1", 10, ""}},
		{"quarantined", OpQuarantine, want{PhaseQuarantined, 1, "poison2", "k1", 10, ""}},
		{"quarantined", OpShed, want{PhaseShed, 0, "", "", 0, ""}},

		// A shed ID stays dead, whatever arrives after the shed.
		{"shed", OpAccept, want{PhaseShed, 0, "", "", 0, ""}},
		{"shed", OpRun, want{PhaseShed, 0, "", "", 0, ""}},
		{"shed", OpRetry, want{PhaseShed, 0, "", "", 0, ""}},
		{"shed", OpDone, want{PhaseShed, 0, "", "", 0, ""}},
		{"shed", OpFailed, want{PhaseShed, 0, "", "", 0, ""}},
		{"shed", OpQuarantine, want{PhaseShed, 0, "", "", 0, ""}},
		{"shed", OpShed, want{PhaseShed, 0, "", "", 0, ""}},

		// An orphan is an ordinary quarantined job from then on.
		{"orphan", OpAccept, want{PhaseQuarantined, 0, corrupt, "k1", 10, dup}},
		{"orphan", OpRun, want{PhaseQuarantined, 0, corrupt, "k1", 10, ""}},
		{"orphan", OpRetry, want{PhaseQuarantined, 0, corrupt, "k1", 10, ""}},
		{"orphan", OpDone, want{PhaseDone, 0, "", "k3", 10, ""}},
		{"orphan", OpFailed, want{PhaseFailed, 0, "bad", "k1", 10, ""}},
		{"orphan", OpQuarantine, want{PhaseQuarantined, 0, "poison2", "k1", 10, ""}},
		{"orphan", OpShed, want{PhaseShed, 0, "", "", 0, ""}},
	}
	if len(cases) != len(from)*len(ops) {
		t.Fatalf("table has %d cases, want every one of %d phases x %d ops", len(cases), len(from), len(ops))
	}
	seen := make(map[string]bool)
	for _, tc := range cases {
		name := tc.from + "/" + string(tc.op)
		if seen[name] {
			t.Fatalf("duplicate case %s", name)
		}
		seen[name] = true
		recs := append(append([]Record{}, from[tc.from]...), ops[tc.op])

		var st JobState
		var anomaly error
		for _, r := range recs {
			anomaly = st.Apply(r)
		}
		if tc.want.verdict == "" && anomaly != nil || tc.want.verdict != "" && (anomaly == nil || !strings.Contains(anomaly.Error(), tc.want.verdict)) {
			t.Errorf("%s: Apply returned %v, want %q", name, anomaly, tc.want.verdict)
		}
		if st.Phase != tc.want.phase || st.Attempts != tc.want.attempts || st.Error != tc.want.err ||
			tc.want.phase != PhaseShed && (st.ID != id || st.Key != tc.want.key || st.Unix != tc.want.unix) {
			t.Errorf("%s: Apply = {%s attempts=%d err=%q key=%q unix=%d}, want %+v",
				name, st.Phase, st.Attempts, st.Error, st.Key, st.Unix, tc.want)
		}

		// Replay: the same records as journal lines.
		var journal []byte
		for _, r := range recs {
			line, err := encodeRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			journal = append(journal, line...)
		}
		rep := replayJournal(journal)
		var verdict string
		for _, q := range rep.Quarantined {
			if q.Line == len(recs) {
				verdict = q.Reason
			}
		}
		if tc.want.verdict == "" && verdict != "" || !strings.Contains(verdict, tc.want.verdict) {
			t.Errorf("%s: replay verdict %q, want %q", name, verdict, tc.want.verdict)
		}
		if tc.want.phase == PhaseShed {
			if len(rep.Jobs) != 0 {
				t.Errorf("%s: replay lists %+v, want the shed job gone", name, rep.Jobs[0])
			}
			continue
		}
		if len(rep.Jobs) != 1 {
			t.Errorf("%s: replay lists %d jobs, want 1", name, len(rep.Jobs))
			continue
		}
		got := rep.Jobs[0]
		if got.ID != id || got.Phase != tc.want.phase || got.Attempts != tc.want.attempts ||
			got.Error != tc.want.err || got.Key != tc.want.key || got.Unix != tc.want.unix {
			t.Errorf("%s: replay = {%s attempts=%d err=%q key=%q unix=%d}, want %+v",
				name, got.Phase, got.Attempts, got.Error, got.Key, got.Unix, tc.want)
		}
	}
}
