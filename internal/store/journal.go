package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

// Op is a job state transition recorded in the journal.
type Op string

// The journal operations. A job's life is one accept followed by
// run/retry records and at most one terminal record (done, failed,
// quarantine or shed).
const (
	// OpAccept admits a job: it carries the submission key, body digest,
	// parameters and tenant. Fsync'd before the client sees HTTP 202.
	OpAccept Op = "accept"
	// OpRun marks the start of one execution attempt.
	OpRun Op = "run"
	// OpRetry records a failed attempt that will be retried.
	OpRetry Op = "retry"
	// OpDone marks success; the result lives under the record's Key.
	OpDone Op = "done"
	// OpFailed marks a permanent failure.
	OpFailed Op = "failed"
	// OpQuarantine marks a poison job: retries exhausted, or its journal,
	// body or result bytes found corrupt during recovery.
	OpQuarantine Op = "quarantine"
	// OpShed voids an accept whose queue submission was rejected; the
	// client saw 429, so replay ignores the job entirely.
	OpShed Op = "shed"
)

// Record is one journal entry. Fields beyond Op and ID are set only where
// meaningful for the operation.
type Record struct {
	Op Op     `json:"op"`
	ID string `json:"id"`
	// Key is the submission key (sha256 over body bytes and parameters);
	// results are stored under it.
	Key string `json:"key,omitempty"`
	// Body is the sha256 hex digest of the submitted CSV body, the name of
	// the content-addressed body file.
	Body string `json:"body,omitempty"`
	// Params is the service-defined parameter encoding, opaque to the store.
	Params json.RawMessage `json:"params,omitempty"`
	Tenant string          `json:"tenant,omitempty"`
	// Attempt numbers execution attempts from 1.
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
	// Unix is a caller-supplied timestamp in milliseconds (the store never
	// reads the clock itself).
	Unix int64 `json:"t,omitempty"`
}

// Phase is a job's place in its lifecycle. The values are the status API's
// strings; phases are never written to disk, because the journal stores ops.
type Phase string

// The job phases. A job moves queued -> running -> done|failed, looping back
// to queued while transient failures are retried; cache hits go from queued
// straight to done. Quarantined is the poison-job terminal phase: retries
// exhausted, the job kept killing the process, or its stored bytes failed a
// digest check. A replayed job that is still queued or running was
// interrupted by a crash, so recovery re-enqueues it.
const (
	PhaseQueued      Phase = "queued"
	PhaseRunning     Phase = "running"
	PhaseDone        Phase = "done"
	PhaseFailed      Phase = "failed"
	PhaseQuarantined Phase = "quarantined"
	// PhaseShed voids a job whose queue submission was rejected: the client
	// saw 429, so the job is never listed or shown.
	PhaseShed Phase = "shed"
)

// JobState is a job's folded journal state. The zero value is a job with no
// records yet.
type JobState struct {
	ID     string
	Key    string
	Body   string
	Params json.RawMessage
	Tenant string
	// Attempts counts execution attempts already started (OpRun records);
	// recovery uses it to quarantine poison jobs that keep killing the
	// process instead of re-running them forever.
	Attempts int
	Phase    Phase
	Error    string
	// Unix is the accept record's timestamp, the job's submission time (an
	// orphan's is its first surviving record's).
	Unix int64

	seq int // line number of the accept record, for deterministic ordering
}

// Apply folds one record into the job's state. It is the job lifecycle's
// only transition function: replay calls it for every journal record, and
// the live server for every transition it journals, so a job reads the same
// before and after a restart. docs/ARCHITECTURE.md tabulates it.
//
// Apply returns an error for a record that cannot happen in a healthy
// journal — a second accept, or a transition whose accept was lost — after
// updating the state as far as the record allows; replay reports the error
// as a quarantine verdict.
func (st *JobState) Apply(rec Record) error {
	switch {
	case st.Phase == PhaseShed:
		// A shed ID stays dead: a 429'd job is never resurrected, even if a
		// later (malformed) accept reuses its ID.
		return nil
	case rec.Op == OpShed:
		// Honored even when the accept was lost to corruption, so a 429'd
		// job is not resurrected.
		*st = JobState{ID: rec.ID, Phase: PhaseShed}
		return nil
	case st.Phase == "" && rec.Op == OpAccept:
		*st = JobState{
			ID: rec.ID, Key: rec.Key, Body: rec.Body, Params: rec.Params,
			Tenant: rec.Tenant, Phase: PhaseQueued, Unix: rec.Unix,
		}
		return nil
	case st.Phase == "":
		// A transition without an accept: the accept record was lost. The
		// job cannot be re-run (no body digest, no params), but the record
		// still names its ID — surface it quarantined so a client polling
		// the ID learns the truth instead of a 404.
		*st = JobState{
			ID: rec.ID, Key: rec.Key, Phase: PhaseQuarantined,
			Error: "journal corrupt: the job's accept record did not survive replay",
			Unix:  rec.Unix,
		}
		return fmt.Errorf("%s record for job with no surviving accept record", rec.Op)
	}
	switch rec.Op {
	case OpAccept:
		return errors.New("duplicate accept record ignored")
	case OpRun:
		if st.Phase == PhaseQueued || st.Phase == PhaseRunning {
			st.Phase = PhaseRunning
			if rec.Attempt > st.Attempts {
				st.Attempts = rec.Attempt
			} else {
				st.Attempts++
			}
		}
	case OpRetry:
		if st.Phase == PhaseRunning {
			st.Phase = PhaseQueued
			st.Error = rec.Error
		}
	case OpDone:
		st.Phase = PhaseDone
		if rec.Key != "" {
			st.Key = rec.Key
		}
		st.Error = ""
	case OpFailed:
		st.Phase = PhaseFailed
		st.Error = rec.Error
	case OpQuarantine:
		st.Phase = PhaseQuarantined
		st.Error = rec.Error
	}
	return nil
}

// Quarantine is one corrupt or unusable piece of journal found during
// replay. Replay never fails on bad bytes; it reports them here and keeps
// going, so one flipped bit cannot take every other job down with it.
type Quarantine struct {
	// Line is the 1-based journal line the verdict is about (0 when the
	// verdict concerns a job rather than a specific line).
	Line int `json:"line,omitempty"`
	// JobID names the affected job when one can be identified.
	JobID  string `json:"job_id,omitempty"`
	Reason string `json:"reason"`
}

// Replay is the outcome of folding a journal.
type Replay struct {
	// Jobs holds every identifiable job in accept order (journal order);
	// jobs whose accept record was lost to corruption appear with
	// PhaseQuarantined after all accepted jobs, ordered by ID.
	Jobs []*JobState
	// Quarantined lists every corrupt record, truncated tail, and
	// orphaned transition found while replaying.
	Quarantined []Quarantine
	// GoodBytes is the length of the longest well-formed record prefix of
	// the journal. Open truncates the file to it so later appends start on
	// a record boundary instead of extending a torn line.
	GoodBytes int64
}

// crcTable is the Castagnoli polynomial table used for record checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord renders a record as one journal line: an 8-hex-digit CRC32C
// of the JSON payload, a space, the JSON, and a newline. The CRC catches
// bit flips; the trailing newline delimits a complete record, so a torn
// final write is detectable as a line without one.
func encodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x ", crc32.Checksum(payload, crcTable))
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeRecord parses one journal line (without its newline).
func decodeRecord(line []byte) (Record, error) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, fmt.Errorf("store: malformed journal line (%d bytes)", len(line))
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return Record{}, fmt.Errorf("store: malformed journal checksum %q", line[:8])
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return Record{}, fmt.Errorf("store: journal checksum mismatch (want %08x, got %08x)", sum, got)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, fmt.Errorf("store: journal record is not valid JSON: %v", err)
	}
	if rec.ID == "" {
		return Record{}, fmt.Errorf("store: journal record has no job id")
	}
	switch rec.Op {
	case OpAccept, OpRun, OpRetry, OpDone, OpFailed, OpQuarantine, OpShed:
	default:
		return Record{}, fmt.Errorf("store: unknown journal op %q", rec.Op)
	}
	return rec, nil
}

// replayJournal folds raw journal bytes into per-job states. It never
// panics and never fails: undecodable lines and impossible transitions
// become Quarantine verdicts, and a torn tail (final line without a
// newline, or cut mid-record) is dropped and reported.
func replayJournal(data []byte) *Replay {
	rep := &Replay{}
	jobs := make(map[string]*JobState)
	var offset int64
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Torn tail: the process died mid-append. The record never
			// acknowledged anything (Append fsyncs before returning), so
			// dropping it is correct, not lossy.
			rep.Quarantined = append(rep.Quarantined, Quarantine{
				Line:   lineNo,
				Reason: fmt.Sprintf("truncated journal tail (%d bytes without newline) dropped", len(data)),
			})
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		rec, err := decodeRecord(line)
		if err != nil {
			rep.Quarantined = append(rep.Quarantined, Quarantine{Line: lineNo, Reason: err.Error()})
			// A corrupt record still advances GoodBytes: the *file* remains
			// append-safe (later records sit on line boundaries), only this
			// record's content is lost.
			offset += int64(nl + 1)
			continue
		}
		offset += int64(nl + 1)
		st := jobs[rec.ID]
		if st == nil {
			st = &JobState{}
			jobs[rec.ID] = st
		}
		fresh := st.Phase == ""
		if err := st.Apply(rec); err != nil {
			rep.Quarantined = append(rep.Quarantined, Quarantine{Line: lineNo, JobID: rec.ID, Reason: err.Error()})
		}
		if fresh && st.Phase == PhaseQueued {
			st.seq = lineNo
		}
	}
	rep.GoodBytes = offset

	//lint:ignore detrange the map range only collects values that are sorted below
	for _, st := range jobs {
		if st.Phase != PhaseShed {
			rep.Jobs = append(rep.Jobs, st)
		}
	}
	sort.Slice(rep.Jobs, func(i, j int) bool {
		a, b := rep.Jobs[i], rep.Jobs[j]
		if (a.seq == 0) != (b.seq == 0) {
			return b.seq == 0 // accepted jobs first, orphans last
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.ID < b.ID
	})
	return rep
}
