package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"ldiv"
	"ldiv/internal/store"
)

// Params are the anonymization parameters of a job, taken from the submit
// request's query string.
type Params struct {
	// Algorithm is the canonical algorithm name (one of ldiv.Algorithms,
	// normalized by ldiv.CanonicalAlgorithm).
	Algorithm string `json:"algorithm"`
	// L is the diversity parameter.
	L int `json:"l"`
	// QI names the CSV columns treated as quasi-identifiers, in order.
	QI []string `json:"qi"`
	// SA names the sensitive-attribute CSV column.
	SA string `json:"sa"`
	// Projection optionally restricts the anonymized table to a subset of the
	// QI columns (applied after reading, so the release keeps only these).
	Projection []string `json:"projection,omitempty"`
}

// cacheKey derives the result-cache key of a submission: the digest of the
// raw CSV body combined with every parameter that influences the result.
// Identical bytes with identical parameters always produce identical results
// (every algorithm is deterministic), which is what makes the cache sound.
func (p Params) cacheKey(body []byte) string {
	h := sha256.New()
	h.Write(body)
	fmt.Fprintf(h, "\x00%s\x00%d\x00%s\x00%s\x00%s",
		p.Algorithm, p.L, strings.Join(p.QI, ","), p.SA, strings.Join(p.Projection, ","))
	return hex.EncodeToString(h.Sum(nil))
}

// Result is the outcome of a finished job: the released table(s) as CSV plus
// the information-loss metrics the evaluation tracks.
type Result struct {
	// CSV is the released table. For the generalization algorithms it is the
	// generalized table (stars as '*'); for anatomy it is the published
	// quasi-identifier table (QIT).
	CSV []byte
	// SensitiveCSV is anatomy's second release, the sensitive table (ST);
	// nil for every other algorithm.
	SensitiveCSV []byte
	// Rows is the number of input tuples anonymized.
	Rows int
	// Groups is the number of published QI-groups (anatomy: buckets).
	Groups int
	// Stars counts suppressed cells (0 for anatomy, which distorts no QI value).
	Stars int
	// SuppressedTuples counts rows with at least one star.
	SuppressedTuples int
	// KL is the KL-divergence of Equation 2; valid only when HasKL is true
	// (anatomy's two-table release has no induced single-table distribution).
	KL    float64
	HasKL bool
	// TerminationPhase is the TP phase that ended the run (0 for non-TP
	// algorithms).
	TerminationPhase int
	// Runtime is the anonymization wall-clock time, excluding queue wait.
	Runtime time.Duration
}

// Job is one submitted anonymization task. Its lifecycle state is the same
// store.JobState the journal replay folds, changed only through
// Server.transition; mutable fields are guarded by mu, read them through
// snapshot.
type Job struct {
	ID     string
	Params Params
	// Tenant is the X-Tenant header value of the submission ("" when the
	// client sent none).
	Tenant string
	// durable reports that the job's accept record reached the journal, so
	// its later transitions are journaled too.
	durable bool

	mu     sync.Mutex
	state  store.JobState
	result *Result
}

// snapshot returns a consistent copy of the job's mutable state.
func (j *Job) snapshot() (store.JobState, *Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result
}

// jobView is the JSON representation of a job returned by the status
// endpoint (and echoed by submit).
type jobView struct {
	ID          string       `json:"id"`
	Status      store.Phase  `json:"status"`
	Params      Params       `json:"params"`
	Tenant      string       `json:"tenant,omitempty"`
	Cached      bool         `json:"cached"`
	Attempts    int          `json:"attempts,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	Error       string       `json:"error,omitempty"`
	Metrics     *metricsView `json:"metrics,omitempty"`
	ResultURL   string       `json:"result_url,omitempty"`
}

// metricsView is the JSON shape of a finished job's metrics.
type metricsView struct {
	Rows             int      `json:"rows"`
	Groups           int      `json:"groups"`
	Stars            int      `json:"stars"`
	SuppressedTuples int      `json:"suppressed_tuples"`
	KLDivergence     *float64 `json:"kl_divergence,omitempty"`
	TerminationPhase int      `json:"termination_phase,omitempty"`
	RuntimeMS        float64  `json:"runtime_ms"`
}

// view renders the job for JSON encoding. Everything in it derives from the
// job's folded state and its result, so it reads the same after a restart.
func (j *Job) view() jobView {
	st, res := j.snapshot()
	v := jobView{
		ID:     j.ID,
		Status: st.Phase,
		Params: j.Params,
		Tenant: j.Tenant,
		// A done job that never ran was answered from a stored result.
		Cached:      st.Phase == store.PhaseDone && st.Attempts == 0,
		Attempts:    st.Attempts,
		SubmittedAt: time.UnixMilli(st.Unix).UTC(),
		Error:       st.Error,
	}
	if st.Phase == store.PhaseDone {
		m := &metricsView{
			Rows:             res.Rows,
			Groups:           res.Groups,
			Stars:            res.Stars,
			SuppressedTuples: res.SuppressedTuples,
			TerminationPhase: res.TerminationPhase,
			RuntimeMS:        float64(res.Runtime) / float64(time.Millisecond),
		}
		if res.HasKL {
			kl := res.KL
			m.KLDivergence = &kl
		}
		v.Metrics = m
		v.ResultURL = "/v1/jobs/" + j.ID + "/result"
	}
	return v
}

// anatomyQITCSV renders anatomy's quasi-identifier table in the canonical
// release layout (internal/anatomy owns the format; the auditor parses it).
func anatomyQITCSV(t *ldiv.Table, an *ldiv.Anatomy) ([]byte, error) {
	var b bytes.Buffer
	if err := ldiv.WriteAnatomyQITCSV(&b, t, an); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// anatomySTCSV renders anatomy's sensitive table in the canonical release
// layout.
func anatomySTCSV(t *ldiv.Table, an *ldiv.Anatomy) ([]byte, error) {
	var b bytes.Buffer
	if err := ldiv.WriteAnatomySTCSV(&b, t, an); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
