// Package service implements the ldivd anonymization job server: an HTTP API
// that accepts CSV microdata, anonymizes it asynchronously with one of the
// library's algorithms on a bounded worker queue, and serves the released
// table back as CSV.
//
// The API surface (see docs/ARCHITECTURE.md for the full walkthrough):
//
//	POST /v1/jobs?algo=tp%2B&l=4&qi=Age,Gender&sa=Disease   body: CSV
//	GET  /v1/jobs/{id}            job status and information-loss metrics
//	GET  /v1/jobs/{id}/result     released table as CSV (anatomy: ?part=st)
//	POST /v1/verify?l=4&qi=...&sa=...   multipart original+release(+st) →
//	                              canonical auditor verdict JSON
//	GET  /healthz                 liveness
//	GET  /metrics                 Prometheus text-format counters
//
// Submissions are validated synchronously (unknown columns, malformed CSV and
// l-ineligible tables fail the POST with a typed JSON error), executed
// asynchronously on a parallel.Queue, and memoized in an LRU cache keyed by
// the digest of the CSV body plus the parameters, so resubmitting the same
// dataset is O(1). Closing the server drains every accepted job.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ldiv"
	"ldiv/internal/parallel"
	"ldiv/internal/store"
)

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// Workers bounds the number of concurrently executing jobs; values below
	// 1 mean one worker per CPU (parallel.WorkerCount).
	Workers int
	// AlgoWorkers bounds the TP core's data-parallel stages within a single
	// job (the bulk multiset build and phase three's inverted-index rebuild;
	// only the tp and tp+ algorithms consume it). Values below 1 mean one
	// worker per CPU; the published release is byte-identical at every
	// setting. Deployments that raise Workers to run many jobs concurrently
	// typically set AlgoWorkers to 1 so jobs do not oversubscribe the CPUs.
	// It bounds TP only: CSV ingest and KL fan out to one worker per CPU
	// whatever it says, but only for bodies of at least 16,384 lines and
	// tables of more than 4,096 QI groups, well above serve-sized jobs.
	AlgoWorkers int
	// QueueDepth bounds the backlog of accepted-but-not-running jobs; a full
	// backlog rejects submissions with HTTP 429. Default 64.
	QueueDepth int
	// CacheEntries bounds the LRU result cache; 0 picks the default (128),
	// negative disables caching.
	CacheEntries int
	// MaxBodyBytes bounds the CSV request body; larger submissions fail with
	// HTTP 413. Default 64 MiB.
	MaxBodyBytes int64
	// JobRetention bounds how many finished (done or failed) jobs stay
	// queryable; beyond it the oldest finished job — and its result CSV — is
	// evicted, so server memory does not grow with the total number of
	// submissions ever made. Queued and running jobs are never evicted.
	// 0 picks the default (1024), negative retains every job forever.
	JobRetention int

	// StoreDir enables the crash-safe durable job store: accepted jobs are
	// journaled (fsync'd) to this directory before the 202 goes out, results
	// are persisted atomically, and a restart replays the journal — serving
	// finished results from disk and re-enqueueing interrupted jobs. Empty
	// disables durability (jobs live only in memory).
	StoreDir string
	// JobTimeout bounds a single execution attempt; an attempt that exceeds
	// it fails the job. 0 disables the deadline.
	JobTimeout time.Duration
	// MaxAttempts bounds execution attempts per job: a job whose transient
	// failures (or process crashes, counted across restarts via the journal)
	// reach this bound is quarantined as poison instead of retried forever.
	// 0 picks the default (3); values below 1 mean a single attempt.
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry of a transient
	// failure; it doubles per attempt (capped at 10s) with deterministic
	// jitter. 0 picks the default (100ms).
	RetryBaseDelay time.Duration
	// TenantQPS enables per-tenant admission quotas: each distinct X-Tenant
	// header value (empty maps to "anonymous") gets a token bucket refilled
	// at this rate, and an empty bucket rejects the submission with 429
	// before it touches the shared backlog. 0 or negative disables quotas.
	TenantQPS float64
	// TenantBurst is the token-bucket capacity; 0 picks ceil(2*TenantQPS),
	// at least 1.
	TenantBurst int

	// Clock supplies timestamps (journal records, quota refills); tests
	// inject a fake. Nil means the wall clock.
	Clock func() time.Time
	// FS is the filesystem the durable store writes through; tests inject a
	// fault-injecting double. Nil means the real filesystem.
	FS store.FS
}

// Default Config values applied by New.
const (
	DefaultQueueDepth     = 64
	DefaultCacheEntries   = 128
	DefaultMaxBodyBytes   = 64 << 20
	DefaultJobRetention   = 1024
	DefaultMaxAttempts    = 3
	DefaultRetryBaseDelay = 100 * time.Millisecond
)

// Server is the anonymization job server. Create it with New (or Open, which
// surfaces store-open failures), mount Handler on an http.Server, and Close
// it to drain.
type Server struct {
	cfg     Config
	queue   *parallel.Queue
	cache   *resultCache
	metrics *serverMetrics
	mux     *http.ServeMux

	// st is the durable job store; nil when Config.StoreDir is empty.
	st      *store.Store
	clock   func() time.Time
	tenants *tenantLimiter
	// workers is the normalized worker count, for Retry-After estimates.
	workers int

	// baseCtx is cancelled by Close to wake retry waits and blocked
	// re-submissions.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	// retryWG tracks retry and recovery goroutines that may touch the queue.
	retryWG sync.WaitGroup

	mu       sync.RWMutex
	jobs     map[string]*Job
	finished []string // finished job IDs, oldest first, for retention eviction

	nextID    atomic.Int64
	draining  atomic.Bool
	closeOnce sync.Once

	// run executes a prepared job; tests replace it to control timing.
	run func(t *ldiv.Table, p Params) (*Result, error)
}

// New returns a started server with cfg's zero fields defaulted. It panics
// when the durable store cannot be opened; callers that configure StoreDir
// should prefer Open, which returns the error instead.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("service: opening the durable store: %v", err))
	}
	return s
}

// Open returns a started server with cfg's zero fields defaulted. When
// StoreDir is set it opens (or creates) the durable store, replays its
// journal, restores every journaled job, and re-enqueues the ones a crash
// interrupted. Corrupt journal entries and unreadable stored data are
// quarantined — visible via /metrics and job status — never fatal; the only
// errors Open returns are real I/O failures creating or appending the store.
func Open(cfg Config) (*Server, error) {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.JobRetention == 0 {
		cfg.JobRetention = DefaultJobRetention
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 1
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = DefaultRetryBaseDelay
	}
	clock := cfg.Clock
	if clock == nil {
		//lint:ignore detrange journal timestamps and quota refills are operational metadata, not release content
		clock = time.Now
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		queue:      parallel.NewQueue(cfg.Workers, cfg.QueueDepth),
		cache:      newResultCache(cfg.CacheEntries),
		metrics:    newServerMetrics(),
		clock:      clock,
		tenants:    newTenantLimiter(cfg.TenantQPS, cfg.TenantBurst, clock),
		workers:    parallel.WorkerCount(cfg.Workers),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		jobs:       make(map[string]*Job),
		run: func(t *ldiv.Table, p Params) (*Result, error) {
			return runPreparedWorkers(t, p, cfg.AlgoWorkers)
		},
	}
	if cfg.StoreDir != "" {
		st, replay, err := store.Open(cfg.StoreDir, cfg.FS)
		if err != nil {
			baseCancel()
			s.queue.Close()
			return nil, err
		}
		s.st = st
		s.recoverJobs(replay)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops accepting new jobs (submissions fail with HTTP 503) and blocks
// until every already-accepted job has finished, so no accepted work is ever
// lost to a graceful shutdown. Pending retries are abandoned rather than
// waited out — with a durable store the journal still holds those jobs in a
// non-terminal state, so the next start re-enqueues them. Idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	s.closeOnce.Do(func() {
		s.baseCancel()
		s.retryWG.Wait()
		s.queue.Close()
		if s.st != nil {
			_ = s.st.Close()
		}
	})
}

// apiError is the JSON error envelope of every non-2xx response.
type apiError struct {
	// Code is a stable machine-readable error identifier.
	Code string `json:"code"`
	// Message is a human-readable description.
	Message string `json:"message"`
}

// errorBody wraps an apiError for encoding as {"error": {...}}.
type errorBody struct {
	Error apiError `json:"error"`
}

// writeError sends a typed JSON error response.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: apiError{Code: code, Message: message}})
}

// writeJSON sends a JSON success response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// parseParams extracts and validates the anonymization parameters from a
// submit request's query string.
func parseParams(q url.Values) (Params, *apiError) {
	name := q.Get("algo")
	if name == "" {
		name = q.Get("algorithm")
	}
	if name == "" {
		name = "tp+"
	}
	algo, ok := ldiv.CanonicalAlgorithm(name)
	if !ok {
		return Params{}, &apiError{Code: "invalid_algorithm",
			Message: fmt.Sprintf("unknown algorithm %q (want one of %s)", name, strings.Join(ldiv.Algorithms, ", "))}
	}
	lStr := q.Get("l")
	if lStr == "" {
		return Params{}, &apiError{Code: "invalid_l", Message: "missing required parameter l"}
	}
	l, err := strconv.Atoi(lStr)
	if err != nil {
		return Params{}, &apiError{Code: "invalid_l", Message: fmt.Sprintf("l %q is not an integer", lStr)}
	}
	if l < 2 {
		return Params{}, &apiError{Code: "invalid_l", Message: fmt.Sprintf("l must be at least 2, got %d", l)}
	}
	qi := splitList(q.Get("qi"))
	if len(qi) == 0 {
		return Params{}, &apiError{Code: "missing_qi", Message: "missing required parameter qi (comma-separated QI column names)"}
	}
	sa := strings.TrimSpace(q.Get("sa"))
	if sa == "" {
		return Params{}, &apiError{Code: "missing_sa", Message: "missing required parameter sa (sensitive column name)"}
	}
	return Params{
		Algorithm:  algo,
		L:          l,
		QI:         qi,
		SA:         sa,
		Projection: splitList(q.Get("projection")),
	}, nil
}

// splitList splits a comma-separated parameter, trimming blanks.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// prepare parses the CSV body into a table, applies the projection, and
// checks l-eligibility, so submissions fail fast with a typed error instead
// of queueing doomed work. A projection shares the ingested table's columns
// and is cloned before queueing: it would pin the ingested table's whole
// column arena (dropped columns included) for the job's queue+run lifetime,
// and the dense clone of just the projected columns is what bounds a
// backlog's resident memory.
func prepare(body []byte, p Params) (*ldiv.Table, *apiError) {
	t, err := ldiv.ReadCSV(bytes.NewReader(body), p.QI, p.SA)
	if err != nil {
		return nil, &apiError{Code: "bad_csv", Message: err.Error()}
	}
	if t.Len() == 0 {
		return nil, &apiError{Code: "bad_csv", Message: "the CSV contains a header but no rows"}
	}
	if len(p.Projection) > 0 {
		t, err = t.ProjectNames(p.Projection)
		if err != nil {
			return nil, &apiError{Code: "bad_projection", Message: err.Error()}
		}
		t = t.Clone()
	}
	if !ldiv.IsEligible(t, p.L) {
		return nil, &apiError{Code: "not_eligible",
			Message: fmt.Sprintf("the table is not %d-eligible: more than 1/%d of the tuples share a sensitive value (max feasible l is %d)",
				p.L, p.L, ldiv.MaxEligibleL(t))}
	}
	return t, nil
}

// runPreparedWorkers executes the requested algorithm on an already-validated
// table, bounding the TP core's data-parallel stages by workers
// (Config.AlgoWorkers); it is the production body of Server.run. workers
// bounds TP only: KL fans out to one worker per CPU above its size floor
// (more than 4,096 QI groups), as ingest does above its own.
func runPreparedWorkers(t *ldiv.Table, p Params, workers int) (*Result, error) {
	//lint:ignore detrange job latency is an operational metric, not release content
	start := time.Now()
	if p.Algorithm == "anatomy" {
		an, err := ldiv.Anatomize(t, p.L)
		if err != nil {
			return nil, err
		}
		res := &Result{Rows: t.Len(), Groups: len(an.Groups), Runtime: time.Since(start)}
		if res.CSV, err = anatomyQITCSV(t, an); err != nil {
			return nil, err
		}
		if res.SensitiveCSV, err = anatomySTCSV(t, an); err != nil {
			return nil, err
		}
		return res, nil
	}
	gen, phase, err := ldiv.AnonymizeWithWorkers(t, p.L, p.Algorithm, workers)
	if err != nil {
		return nil, err
	}
	runtime := time.Since(start)
	kl, err := ldiv.KLDivergence(gen)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
		return nil, err
	}
	return &Result{
		CSV:              b.Bytes(),
		Rows:             t.Len(),
		Groups:           gen.Partition.Size(),
		Stars:            gen.Stars(),
		SuppressedTuples: gen.SuppressedTuples(),
		KL:               kl,
		HasKL:            true,
		TerminationPhase: phase,
		Runtime:          runtime,
	}, nil
}

// handleSubmit accepts a CSV body plus query parameters, validates both, and
// either answers immediately from a memoized result or enqueues a job. With a
// durable store configured, the acceptance journal record is fsync'd before
// the 202 goes out: an acknowledged job survives any crash after that point.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "the server is draining and accepts no new jobs")
		return
	}
	params, perr := parseParams(r.URL.Query())
	if perr != nil {
		writeError(w, http.StatusBadRequest, perr.Code, perr.Message)
		return
	}
	tenant := r.Header.Get("X-Tenant")
	if ok, wait := s.tenants.admit(tenant); !ok {
		s.metrics.tenantRejections.Add(1)
		secs := int(math.Ceil(wait.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, "tenant_quota",
			fmt.Sprintf("tenant %q is over its admission quota; retry in %ds", tenant, secs))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad_body", err.Error())
		return
	}
	if len(body) == 0 {
		writeError(w, http.StatusBadRequest, "bad_csv", "empty request body; POST the microdata as CSV")
		return
	}

	key := params.cacheKey(body)
	if res, ok := s.cache.get(key); ok {
		s.answerMemoized(w, params, tenant, body, key, res)
		return
	}
	// The disk store outlives the LRU: results computed before a restart (or
	// evicted from the cache) still answer without recomputing.
	if s.st != nil && s.st.HasResult(key) {
		if res, err := s.loadResult(key); err == nil {
			s.cache.put(key, res)
			s.answerMemoized(w, params, tenant, body, key, res)
			return
		}
		s.metrics.storeErrors.Add(1)
	}
	s.metrics.cacheMisses.Add(1)

	t, perr := prepare(body, params)
	if perr != nil {
		status := http.StatusBadRequest
		if perr.Code == "not_eligible" {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, perr.Code, perr.Message)
		return
	}

	job := s.newJob(params, tenant)
	// Acknowledge-before-202: with a store, the body and the fsync'd accept
	// record are on disk before the job is published. A failure here must
	// not acknowledge anything — the client gets a 500 and owns the retry.
	if err := s.accept(job, key, body); err != nil {
		s.metrics.storeErrors.Add(1)
		writeError(w, http.StatusInternalServerError, "store_error",
			fmt.Sprintf("the job could not be made durable: %v", err))
		return
	}
	s.register(job)
	s.metrics.jobsQueued.Add(1)
	if !s.queue.TrySubmit(func() { s.runJobOnce(job, t, key) }) {
		s.metrics.jobsQueued.Add(-1)
		s.transition(job, store.Record{Op: store.OpShed})
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "shutting_down", "the server is draining and accepts no new jobs")
			return
		}
		s.setRetryAfter(w.Header(), s.queue.Backlog())
		writeError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("the job backlog is full (%d waiting); retry later", s.queue.Backlog()))
		return
	}
	s.metrics.jobsSubmitted.Add(1)
	writeJSON(w, http.StatusAccepted, job.view())
}

// answerMemoized responds 200 with a job that goes from accept straight to
// done on an already computed result. With a store, both records are
// journaled so the job's status survives a restart.
func (s *Server) answerMemoized(w http.ResponseWriter, params Params, tenant string, body []byte, key string, res *Result) {
	job := s.newJob(params, tenant)
	job.result = res
	if err := s.accept(job, key, body); err != nil {
		s.metrics.storeErrors.Add(1)
	} else if s.st != nil && !s.st.HasResult(key) {
		if err := s.persistResult(key, res); err != nil {
			s.metrics.storeErrors.Add(1)
		}
	}
	s.register(job)
	s.transition(job, store.Record{Op: store.OpDone, Key: key})
	s.metrics.jobsSubmitted.Add(1)
	s.metrics.cacheHits.Add(1)
	writeJSON(w, http.StatusOK, job.view())
}

// accept admits a new job by applying its accept record. With a store it
// first persists the body and appends the fsync'd record, and an error means
// the job is not durable; the record is applied either way.
func (s *Server) accept(job *Job, key string, body []byte) error {
	rec := store.Record{Op: store.OpAccept, ID: job.ID, Key: key, Tenant: job.Tenant, Unix: s.nowUnixMilli()}
	var err error
	if s.st != nil {
		if rec.Body, err = s.st.PutBody(body); err == nil {
			rec.Params, _ = json.Marshal(job.Params) // plain strings and ints always encode
			err = s.st.Append(rec)
		}
		job.durable = err == nil
	}
	_ = job.state.Apply(rec) // a fresh job accepts
	return err
}

// runSafely executes a job, converting panics into errors so one bad input
// cannot take a worker (or the process) down.
func (s *Server) runSafely(t *ldiv.Table, p Params) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("service: job panicked: %v", r)
		}
	}()
	return s.run(t, p)
}

// newJob allocates a job with no lifecycle state yet. It is not visible to
// lookups until the caller has applied its accept record and calls
// register, so concurrent status requests never see a partially-built job.
func (s *Server) newJob(params Params, tenant string) *Job {
	return &Job{ID: fmt.Sprintf("j%06d", s.nextID.Add(1)), Params: params, Tenant: tenant}
}

// register publishes a job to the status/result endpoints.
func (s *Server) register(job *Job) {
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.mu.Unlock()
}

// finishJob records that a job reached a terminal state and evicts the
// oldest finished jobs beyond the retention bound, so memory does not grow
// with the lifetime submission count.
func (s *Server) finishJob(id string) {
	if s.cfg.JobRetention < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > s.cfg.JobRetention {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// lookup returns the job with the given id, if any.
func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	job, ok := s.jobs[id]
	return job, ok
}

// dropJob removes a job that was never accepted by the queue.
func (s *Server) dropJob(id string) {
	s.mu.Lock()
	delete(s.jobs, id)
	s.mu.Unlock()
}

// handleStatus reports a job's state and, once finished, its metrics.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.view())
}

// handleResult streams a finished job's released table as CSV. Anatomy jobs
// additionally serve their sensitive table under ?part=st.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	st, res := job.snapshot()
	switch st.Phase {
	case store.PhaseFailed:
		writeError(w, http.StatusConflict, "job_failed", st.Error)
		return
	case store.PhaseQuarantined:
		writeError(w, http.StatusConflict, "job_quarantined", st.Error)
		return
	case store.PhaseQueued, store.PhaseRunning:
		// Estimate when the job will plausibly be done from the backlog ahead
		// of it and the measured average runtime, instead of a flat guess.
		s.setRetryAfter(w.Header(), s.queue.Backlog())
		writeError(w, http.StatusConflict, "job_not_done", fmt.Sprintf("job %s is %s", job.ID, st.Phase))
		return
	}
	data := res.CSV
	switch part := r.URL.Query().Get("part"); part {
	case "", "main":
	case "st":
		if res.SensitiveCSV == nil {
			writeError(w, http.StatusNotFound, "no_such_part",
				fmt.Sprintf("algorithm %q publishes a single table; ?part=st exists only for anatomy", job.Params.Algorithm))
			return
		}
		data = res.SensitiveCSV
	default:
		writeError(w, http.StatusNotFound, "no_such_part", fmt.Sprintf("unknown result part %q (want main or st)", part))
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleHealthz reports liveness (and whether a drain is in progress).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
	})
}

// handleMetrics renders the counters in the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.writeTo(w)
}
