package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"ldiv"
	"ldiv/internal/store"
)

// This file is the durable execution engine: journaling job state transitions
// to the store, retrying transient failures with backed-off reattempts,
// enforcing the per-attempt deadline, and replaying the journal at startup so
// every job acknowledged before a crash reaches a terminal state after it.

// transientError wraps an error whose cause is expected to go away on its
// own (an I/O hiccup, a full disk that an operator is clearing), so the
// retry loop can tell it apart from deterministic failures that would fail
// identically forever.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// markTransient labels an error as retryable.
func markTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// isTransient reports whether an error was labeled retryable. Anonymization
// itself is deterministic — the same table fails the same way every time —
// so only explicitly labeled errors (store I/O, test injections) retry.
func isTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// storedMetrics is the JSON shape of a result's information-loss metrics in
// the store's result meta file; it round-trips everything a Result carries
// beyond the CSV bytes.
type storedMetrics struct {
	Rows             int     `json:"rows"`
	Groups           int     `json:"groups"`
	Stars            int     `json:"stars"`
	SuppressedTuples int     `json:"suppressed_tuples"`
	KL               float64 `json:"kl,omitempty"`
	HasKL            bool    `json:"has_kl,omitempty"`
	TerminationPhase int     `json:"termination_phase,omitempty"`
	RuntimeMS        float64 `json:"runtime_ms"`
}

// nowUnixMilli timestamps journal records from the injected clock.
func (s *Server) nowUnixMilli() int64 {
	return s.clock().UnixMilli()
}

// transition moves a job through its lifecycle: it stamps rec with the
// job's ID and the clock, journals it when the job's accept is durable, and
// applies it with store.JobState.Apply, the function replay folds the
// journal with. A terminal phase retires the job into the retention list
// and its phase's counter; a shed job is dropped. Journal failures here are
// counted, not surfaced: these records only make recovery less precise,
// they never lose an acknowledged job. The accept record is the exception,
// which is why accept appends it itself.
func (s *Server) transition(job *Job, rec store.Record) {
	rec.ID, rec.Unix = job.ID, s.nowUnixMilli()
	if job.durable {
		if err := s.st.Append(rec); err != nil {
			s.metrics.storeErrors.Add(1)
		}
	}
	job.mu.Lock()
	_ = job.state.Apply(rec) // the server only makes legal transitions
	phase := job.state.Phase
	job.mu.Unlock()
	switch phase {
	case store.PhaseDone:
		s.finishJob(job.ID)
		s.metrics.jobsDone.Add(1)
	case store.PhaseFailed:
		s.finishJob(job.ID)
		s.metrics.jobsFailed.Add(1)
	case store.PhaseQuarantined:
		s.finishJob(job.ID)
		s.metrics.jobsQuarantined.Add(1)
	case store.PhaseShed:
		s.dropJob(job.ID)
		s.metrics.jobsRejected.Add(1)
	}
}

// persistResult writes a finished job's result to the store; after it
// returns nil the result survives a crash.
func (s *Server) persistResult(key string, res *Result) error {
	if s.st == nil {
		return nil
	}
	meta, err := json.Marshal(storedMetrics{
		Rows:             res.Rows,
		Groups:           res.Groups,
		Stars:            res.Stars,
		SuppressedTuples: res.SuppressedTuples,
		KL:               res.KL,
		HasKL:            res.HasKL,
		TerminationPhase: res.TerminationPhase,
		RuntimeMS:        float64(res.Runtime) / float64(time.Millisecond),
	})
	if err != nil {
		return err
	}
	return s.st.PutResult(key, res.CSV, res.SensitiveCSV, meta)
}

// loadResult reads a stored result back into the in-memory shape.
func (s *Server) loadResult(key string) (*Result, error) {
	csv, st, metaJSON, err := s.st.GetResult(key)
	if err != nil {
		return nil, err
	}
	var m storedMetrics
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		return nil, fmt.Errorf("%w: result metrics for %s: %v", store.ErrCorrupt, key, err)
	}
	return &Result{
		CSV:              csv,
		SensitiveCSV:     st,
		Rows:             m.Rows,
		Groups:           m.Groups,
		Stars:            m.Stars,
		SuppressedTuples: m.SuppressedTuples,
		KL:               m.KL,
		HasKL:            m.HasKL,
		TerminationPhase: m.TerminationPhase,
		Runtime:          runtimeFromMS(m.RuntimeMS),
	}, nil
}

// runtimeFromMS inverts the store's millisecond encoding of a runtime. It
// rounds rather than truncates: the float product can land a hair below the
// original nanosecond count.
func runtimeFromMS(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// runWithDeadline executes one attempt, bounded by the configured per-job
// timeout. On timeout the attempt fails permanently — the algorithms are
// deterministic, so a rerun would take just as long. The compute goroutine
// cannot be interrupted mid-algorithm; it is abandoned and its result
// discarded, while the worker goes on to the next job. So N timed-out jobs
// leave N goroutines computing, up to N cores, until each algorithm returns
// on its own. Bounding that needs the algorithms to observe cancellation
// (ROADMAP open item 2).
func (s *Server) runWithDeadline(t *ldiv.Table, p Params) (*Result, error) {
	if s.cfg.JobTimeout <= 0 {
		return s.runSafely(t, p)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.runSafely(t, p)
		done <- outcome{res, err}
	}()
	timer := time.NewTimer(s.cfg.JobTimeout)
	defer timer.Stop()
	select {
	case o := <-done:
		return o.res, o.err
	case <-timer.C:
		return nil, fmt.Errorf("service: job exceeded the %s deadline", s.cfg.JobTimeout)
	}
}

// runJobOnce is one execution attempt of a job: it runs the algorithm under
// the deadline, persists the result before declaring success, and routes
// failures to the retry/quarantine/fail logic. It is the function every
// queue submission (initial, retry, recovered) executes.
func (s *Server) runJobOnce(job *Job, t *ldiv.Table, key string) {
	s.metrics.jobsQueued.Add(-1)
	s.metrics.jobsRunning.Add(1)
	defer s.metrics.jobsRunning.Add(-1)
	st, _ := job.snapshot()
	attempt := st.Attempts + 1
	s.transition(job, store.Record{Op: store.OpRun, Attempt: attempt})

	res, err := s.runWithDeadline(t, job.Params)
	if err == nil {
		// The result must be durable before the job reports done: a poll
		// that sees "done" is a promise the bytes survive a crash.
		if perr := s.persistResult(key, res); perr != nil {
			s.metrics.storeErrors.Add(1)
			err = markTransient(fmt.Errorf("service: persisting the result: %w", perr))
		}
	}
	if err != nil {
		s.failAttempt(job, t, key, attempt, err)
		return
	}
	job.mu.Lock()
	job.result = res
	job.mu.Unlock()
	s.transition(job, store.Record{Op: store.OpDone, Key: key})
	s.cache.put(key, res)
	s.metrics.rowsAnonymized.Add(int64(res.Rows))
	s.metrics.observeLatency(job.Params.Algorithm, res.Runtime.Seconds())
	s.metrics.observeRuntime(res.Runtime.Seconds())
}

// failAttempt decides what a failed attempt becomes: a backed-off retry
// (transient, attempts left), quarantine (transient, attempts exhausted —
// the job is poison), or a plain failure (deterministic error).
func (s *Server) failAttempt(job *Job, t *ldiv.Table, key string, attempt int, err error) {
	switch {
	case !isTransient(err):
		s.transition(job, store.Record{Op: store.OpFailed, Error: err.Error()})
	case attempt >= s.cfg.MaxAttempts:
		msg := fmt.Sprintf("quarantined after %d failed attempts; last error: %v", attempt, err)
		s.transition(job, store.Record{Op: store.OpQuarantine, Attempt: attempt, Error: msg})
	default:
		s.transition(job, store.Record{Op: store.OpRetry, Attempt: attempt, Error: err.Error()})
		s.metrics.jobRetries.Add(1)
		s.scheduleRetry(job, t, key, attempt)
	}
}

// backoffDelay is the wait before retry number attempt+1: the base delay
// doubled per attempt, capped at ten seconds, with deterministic jitter in
// [d/2, d) derived from the job key so synchronized failures (a full disk
// failing every in-flight job at once) do not retry in lockstep. Hash-based
// jitter keeps the service free of math/rand's global source.
func (s *Server) backoffDelay(key string, attempt int) time.Duration {
	d := s.cfg.RetryBaseDelay
	for i := 1; i < attempt && d < 10*time.Second; i++ {
		d *= 2
	}
	if d > 10*time.Second {
		d = 10 * time.Second
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", key, attempt)
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + int64(h.Sum64()%uint64(half)))
}

// scheduleRetry re-enqueues a job after the backoff delay. The goroutine is
// tracked so Close can wait it out; a shutdown during the wait abandons the
// retry, which is safe — the journal still holds the job in a non-terminal
// state, so the next start re-enqueues it.
func (s *Server) scheduleRetry(job *Job, t *ldiv.Table, key string, attempt int) {
	delay := s.backoffDelay(key, attempt)
	s.retryWG.Add(1)
	go func() {
		defer s.retryWG.Done()
		timer := time.NewTimer(delay)
		defer timer.Stop()
		select {
		case <-s.baseCtx.Done():
			return
		case <-timer.C:
		}
		s.metrics.jobsQueued.Add(1)
		if err := s.queue.Submit(s.baseCtx, func() { s.runJobOnce(job, t, key) }); err != nil {
			s.metrics.jobsQueued.Add(-1)
		}
	}()
}

// recoverJobs turns the store's journal fold into live jobs, each starting
// from its replayed state: terminal jobs become queryable again, non-terminal
// jobs are re-enqueued (or quarantined as poison when they already burned
// through their attempts — a job that was mid-run at every crash is what
// crashed us), and corrupt store entries become quarantined jobs instead of
// startup failures.
func (s *Server) recoverJobs(rep *store.Replay) {
	if len(rep.Quarantined) > 0 {
		s.metrics.storeErrors.Add(int64(len(rep.Quarantined)))
	}
	maxID := int64(0)
	for _, js := range rep.Jobs {
		var n int64
		if _, err := fmt.Sscanf(js.ID, "j%d", &n); err == nil && n > maxID {
			maxID = n
		}
	}
	// IDs restart above every journaled job so recovered and new jobs never
	// collide.
	if maxID > s.nextID.Load() {
		s.nextID.Store(maxID)
	}

	for _, js := range rep.Jobs {
		job := &Job{ID: js.ID, Tenant: js.Tenant, durable: true, state: *js}
		if len(js.Params) > 0 {
			// A job quarantined in the journal needs no parameters to show.
			if err := json.Unmarshal(js.Params, &job.Params); err != nil && js.Phase != store.PhaseQuarantined {
				s.quarantineRecovered(job, fmt.Sprintf("stored parameters do not parse: %v", err))
				continue
			}
		}
		switch js.Phase {
		case store.PhaseQueued, store.PhaseRunning:
			// The crash interrupted it.
			s.requeueRecovered(job)
			continue
		case store.PhaseDone:
			res, err := s.loadResult(js.Key)
			if err != nil {
				s.metrics.storeErrors.Add(1)
				s.quarantineRecovered(job, fmt.Sprintf("the stored result is unreadable: %v", err))
				continue
			}
			job.result = res
			s.cache.put(js.Key, res)
		}
		s.register(job)
		s.finishJob(job.ID)
		s.metrics.jobsRecovered.Add(1)
	}
}

// requeueRecovered puts an interrupted job back on the queue, unless its
// result already made it to disk (the crash hit between the result fsync
// and the journal append) or it has exhausted its attempts.
func (s *Server) requeueRecovered(job *Job) {
	js := job.state
	if s.st.HasResult(js.Key) {
		if res, err := s.loadResult(js.Key); err == nil {
			job.result = res
			s.register(job)
			s.cache.put(js.Key, res)
			s.transition(job, store.Record{Op: store.OpDone, Key: js.Key})
			s.metrics.jobsRecovered.Add(1)
			return
		}
		s.metrics.storeErrors.Add(1)
	}
	if js.Attempts >= s.cfg.MaxAttempts {
		s.quarantineRecovered(job, fmt.Sprintf("interrupted mid-run on all %d attempts; the job is poison", js.Attempts))
		return
	}
	body, err := s.st.GetBody(js.Body)
	if err != nil {
		s.metrics.storeErrors.Add(1)
		s.quarantineRecovered(job, fmt.Sprintf("the stored body is unreadable: %v", err))
		return
	}
	s.register(job)
	t, perr := prepare(body, job.Params)
	if perr != nil {
		s.transition(job, store.Record{Op: store.OpFailed, Error: perr.Message})
		return
	}
	s.metrics.jobsRecovered.Add(1)
	s.metrics.jobsQueued.Add(1)
	key := js.Key
	s.retryWG.Add(1)
	go func() {
		defer s.retryWG.Done()
		if err := s.queue.Submit(s.baseCtx, func() { s.runJobOnce(job, t, key) }); err != nil {
			s.metrics.jobsQueued.Add(-1)
		}
	}()
}

// quarantineRecovered registers a recovered job and journals the
// quarantine verdict, so the next start does not redo the work.
func (s *Server) quarantineRecovered(job *Job, reason string) {
	rec := store.Record{Op: store.OpQuarantine, Attempt: job.state.Attempts, Error: reason}
	s.register(job)
	s.transition(job, rec)
}
