package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ldiv"
)

// This file implements verify-as-a-service: POST /v1/verify takes the
// original microdata and a published release and answers with the canonical
// auditor verdict, so every release the server hands out can be re-checked by
// an untrusting client. The request is multipart/form-data with parts
// "original" (microdata CSV), "release" (the generalized release CSV, or
// anatomy's QIT), and optionally "st" (anatomy's sensitive table, which
// switches to anatomy verification), plus the query parameters l, qi and sa
// (and optionally entropy=1 and c for the stricter principles).
//
// Verification executes on the same bounded job queue as anonymization — a
// full backlog rejects with 429 exactly like a submit — but the handler waits
// for its task, so the verdict comes back synchronously: the response body is
// the byte-identical JSON encoding of the ldiv.VerifyRelease report.

// verifyParams are the verification parameters taken from the query string.
type verifyParams struct {
	QI   []string
	SA   string
	Opts ldiv.VerifyOptions
}

// parseVerifyParams extracts and validates the verify parameters.
func parseVerifyParams(q url.Values) (verifyParams, *apiError) {
	lStr := q.Get("l")
	if lStr == "" {
		return verifyParams{}, &apiError{Code: "invalid_l", Message: "missing required parameter l"}
	}
	l, err := strconv.Atoi(lStr)
	if err != nil {
		return verifyParams{}, &apiError{Code: "invalid_l", Message: fmt.Sprintf("l %q is not an integer", lStr)}
	}
	if l < 2 {
		return verifyParams{}, &apiError{Code: "invalid_l", Message: fmt.Sprintf("l must be at least 2, got %d", l)}
	}
	qi := splitList(q.Get("qi"))
	if len(qi) == 0 {
		return verifyParams{}, &apiError{Code: "missing_qi", Message: "missing required parameter qi (comma-separated QI column names)"}
	}
	sa := q.Get("sa")
	if sa == "" {
		return verifyParams{}, &apiError{Code: "missing_sa", Message: "missing required parameter sa (sensitive column name)"}
	}
	p := verifyParams{QI: qi, SA: sa, Opts: ldiv.VerifyOptions{L: l}}
	switch q.Get("entropy") {
	case "", "0", "false":
	case "1", "true":
		p.Opts.Entropy = true
	default:
		return verifyParams{}, &apiError{Code: "invalid_entropy",
			Message: fmt.Sprintf("entropy %q is not a boolean (want 1/true or 0/false)", q.Get("entropy"))}
	}
	if cStr := q.Get("c"); cStr != "" {
		c, err := strconv.ParseFloat(cStr, 64)
		// The guard must be an allowlist: NaN fails every comparison and
		// +Inf passes them all, so `c <= 0` alone would let both corrupt
		// the recursive (c,l)-diversity check.
		if err != nil || !(c > 0) || math.IsInf(c, 1) {
			return verifyParams{}, &apiError{Code: "invalid_c",
				Message: fmt.Sprintf("c %q is not a positive finite number", cStr)}
		}
		p.Opts.RecursiveC = c
	}
	return p, nil
}

// formPart returns the bytes of a multipart part, accepting both file parts
// (curl -F name=@file.csv) and plain value parts. A file part is read in one
// allocation of its Size, the byte count the multipart parser stored.
func formPart(form *multipart.Form, name string) ([]byte, bool, error) {
	if files := form.File[name]; len(files) > 0 {
		f, err := files[0].Open()
		if err != nil {
			return nil, true, err
		}
		defer f.Close()
		data := make([]byte, files[0].Size)
		_, err = io.ReadFull(f, data)
		return data, true, err
	}
	if vals := form.Value[name]; len(vals) > 0 {
		return []byte(vals[0]), true, nil
	}
	return nil, false, nil
}

// handleVerify verifies a release against its original microdata on the job
// queue and answers synchronously with the canonical auditor verdict.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "the server is draining and accepts no new work")
		return
	}
	params, perr := parseVerifyParams(r.URL.Query())
	if perr != nil {
		writeError(w, http.StatusBadRequest, perr.Code, perr.Message)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := r.ParseMultipartForm(s.cfg.MaxBodyBytes); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			// A 413 is permanent for this body, but clients that shrink and
			// resubmit still benefit from knowing the current backlog delay.
			s.setRetryAfter(w.Header(), s.queue.Backlog())
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "bad_multipart",
			fmt.Sprintf("the request body is not multipart/form-data with original and release parts: %v", err))
		return
	}
	defer func() { _ = r.MultipartForm.RemoveAll() }()

	original, ok, err := formPart(r.MultipartForm, "original")
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_part", fmt.Sprintf("the \"original\" part could not be read: %v", err))
		return
	}
	if !ok {
		writeError(w, http.StatusBadRequest, "missing_part", "the multipart body needs an \"original\" part with the microdata CSV")
		return
	}
	release, ok, err := formPart(r.MultipartForm, "release")
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_part", fmt.Sprintf("the \"release\" part could not be read: %v", err))
		return
	}
	if !ok {
		writeError(w, http.StatusBadRequest, "missing_part", "the multipart body needs a \"release\" part with the release CSV")
		return
	}
	st, hasST, err := formPart(r.MultipartForm, "st")
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_part", fmt.Sprintf("the \"st\" part could not be read: %v", err))
		return
	}

	t, err := ldiv.ReadCSV(bytes.NewReader(original), params.QI, params.SA)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_csv", err.Error())
		return
	}

	// Run the verification on the shared bounded queue, so verify work
	// competes with anonymization under the same backpressure, but answer
	// synchronously: the handler waits for its own task.
	type outcome struct {
		report *ldiv.ReleaseReport
		err    error
	}
	done := make(chan outcome, 1)
	ctx := r.Context()
	task := func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: fmt.Errorf("service: verification panicked: %v", p)}
			}
		}()
		// An abandoned request gets no verdict; skip the work so a burst of
		// timed-out clients cannot keep workers busy computing for nobody.
		if ctx.Err() != nil {
			done <- outcome{err: ctx.Err()}
			return
		}
		//lint:ignore detrange verification latency is an operational metric, not release content
		start := time.Now()
		var rep *ldiv.ReleaseReport
		var verr error
		if hasST {
			rep, verr = ldiv.VerifyAnatomyRelease(t, bytes.NewReader(release), bytes.NewReader(st), params.Opts)
		} else {
			rep, verr = ldiv.VerifyRelease(t, bytes.NewReader(release), params.Opts)
		}
		if verr == nil {
			s.metrics.verifies.Add(1)
			if !rep.OK {
				s.metrics.verifyFailures.Add(1)
			}
			s.metrics.observeLatency("verify", time.Since(start).Seconds())
		}
		done <- outcome{report: rep, err: verr}
	}
	if !s.queue.TrySubmit(task) {
		s.metrics.jobsRejected.Add(1)
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "shutting_down", "the server is draining and accepts no new work")
			return
		}
		s.setRetryAfter(w.Header(), s.queue.Backlog())
		writeError(w, http.StatusTooManyRequests, "queue_full",
			fmt.Sprintf("the job backlog is full (%d waiting); retry later", s.queue.Backlog()))
		return
	}
	var out outcome
	select {
	case out = <-done:
	case <-ctx.Done():
		// The client went away; the queued task sees the cancelled context
		// and returns without verifying. Nothing useful can be written.
		return
	}
	if out.err != nil {
		writeError(w, http.StatusInternalServerError, "verify_failed", out.err.Error())
		return
	}
	// The body is the canonical report encoding — byte-identical to
	// json.Marshal of the library-side ldiv.VerifyRelease report, which the
	// equivalence tests assert.
	body, err := json.Marshal(out.report)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "verify_failed", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
