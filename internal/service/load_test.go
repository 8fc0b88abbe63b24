package service

// The job server under load: concurrent multi-tenant round trips against a
// durable server whose backlog and tenant quotas are small enough to shed,
// across a close and reopen of its store. The driver checks every job it is
// acknowledged and every release it fetches for the four defects a server
// must never show, and TestServiceUnderLoadCatchesDefects proves that each
// check fails when its defect is injected.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ldiv"
	"ldiv/internal/store"
)

// loadFailureKind names one of the four defects the load driver reports.
type loadFailureKind string

const (
	// lostJob: an acknowledged job (a 202, or a memoized 200) is missing,
	// not terminal, or its id names another job.
	lostJob loadFailureKind = "lost_job"
	// auditViolation: a fetched release fails ldiv.VerifyRelease or
	// ldiv.VerifyAnatomyRelease.
	auditViolation loadFailureKind = "audit_violation"
	// releaseDiffers: a fetched release that passes the audit differs from
	// the library's release of the same wire bytes, or no release is served.
	releaseDiffers loadFailureKind = "release_differs"
	// untyped429: a 429 whose code is not queue_full or tenant_quota, or
	// whose Retry-After is missing or below 1, or a run that did not see
	// both codes (so the check was never exercised).
	untyped429 loadFailureKind = "untyped_429"
)

// loadFailure is one defect the driver saw.
type loadFailure struct {
	kind   loadFailureKind
	detail string
}

// runFunc is the type of Server.run.
type runFunc = func(*ldiv.Table, Params) (*Result, error)

// loadHooks are the seams a defect is injected through. The zero value
// drives the server as it ships.
type loadHooks struct {
	fs      store.FS                        // Config.FS
	run     func(runFunc) runFunc           // wraps Server.run
	handler func(http.Handler) http.Handler // wraps Server.Handler()
}

const (
	loadRows = 300
	// loadClients must exceed Workers + QueueDepth of the driven server, so
	// the backlog overflows while the workers are held.
	loadClients = 6
	// loadTimeout bounds one round trip, retries and polls included.
	loadTimeout = 30 * time.Second
)

// loadAlgorithms is the algorithm mix of every body.
var loadAlgorithms = []string{"tp+", "mondrian", "anatomy"}

// loadBody is one submitted CSV, the table the server parses from it, and
// the library's release of it per algorithm.
type loadBody struct {
	n     int
	csv   []byte
	l     int
	qi    []string
	sa    string
	table *ldiv.Table
	want  map[string]libraryRelease
}

// libraryRelease is a release as the library writes it; st is anatomy's
// sensitive table and nil otherwise.
type libraryRelease struct{ main, st []byte }

// loadBodies generates four SAL bodies, 2- to 4-eligible, and computes each
// one's library releases from its wire bytes: ldiv.ReadCSV, then
// AnonymizeWith or Anatomize, then the CSV writers.
func loadBodies(t *testing.T) []*loadBody {
	t.Helper()
	var bodies []*loadBody
	for seed := int64(1); len(bodies) < 4; seed++ {
		if seed > 64 {
			t.Fatalf("found only %d eligible SAL bodies in 64 seeds", len(bodies))
		}
		l := 2 + len(bodies)%3
		tab, err := ldiv.GenerateDataset("sal", loadRows, seed)
		if err != nil {
			t.Fatal(err)
		}
		if tab, err = tab.ProjectNames(tab.Schema().QINames()[:3]); err != nil {
			t.Fatal(err)
		}
		if !ldiv.IsEligible(tab, l) {
			continue
		}
		var buf bytes.Buffer
		if err := ldiv.WriteCSV(&buf, tab); err != nil {
			t.Fatal(err)
		}
		b := &loadBody{n: len(bodies), csv: buf.Bytes(), l: l,
			qi: tab.Schema().QINames(), sa: tab.Schema().SA().Name(), want: map[string]libraryRelease{}}
		if b.table, err = ldiv.ReadCSV(bytes.NewReader(b.csv), b.qi, b.sa); err != nil {
			t.Fatal(err)
		}
		for _, algo := range loadAlgorithms {
			b.want[algo] = libraryReleaseOf(t, b.table, algo, l)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

func libraryReleaseOf(t *testing.T, tab *ldiv.Table, algo string, l int) libraryRelease {
	t.Helper()
	var main, st bytes.Buffer
	if algo == "anatomy" {
		an, err := ldiv.Anatomize(tab, l)
		if err == nil {
			err = ldiv.WriteAnatomyQITCSV(&main, tab, an)
		}
		if err == nil {
			err = ldiv.WriteAnatomySTCSV(&st, tab, an)
		}
		if err != nil {
			t.Fatal(err)
		}
		return libraryRelease{main: main.Bytes(), st: st.Bytes()}
	}
	gen, _, err := ldiv.AnonymizeWith(tab, l, algo)
	if err == nil {
		err = ldiv.WriteGeneralizedCSV(&main, gen)
	}
	if err != nil {
		t.Fatal(err)
	}
	return libraryRelease{main: main.Bytes()}
}

// loadTrip is one submit → poll → result round trip.
type loadTrip struct {
	body   *loadBody
	algo   string
	tenant string
}

func (tr loadTrip) String() string {
	return fmt.Sprintf("body %d %s l=%d tenant %s", tr.body.n, tr.algo, tr.body.l, tr.tenant)
}

// loadTrips is one phase's share of the round trips: three bodies, each
// under every algorithm for two tenants. The two phases share two bodies,
// so the second answers some submissions from the reopened store, and use
// their own tenant names, so a job id that the reopen hands out again
// cannot pass for the job it named before.
func loadTrips(bodies []*loadBody, phase int) []loadTrip {
	var trips []loadTrip
	for _, b := range bodies[phase : phase+3] {
		for _, algo := range loadAlgorithms {
			for _, tenant := range []string{"a", "b"} {
				trips = append(trips, loadTrip{b, algo, fmt.Sprintf("p%d-%s", phase+1, tenant)})
			}
		}
	}
	return trips
}

// loadDriver is the client side of one run.
type loadDriver struct {
	clock *stepClock
	// hold keeps the workers from running any job until a submission has
	// found the backlog full, which makes the run shed deterministically.
	hold     chan struct{}
	holdOnce sync.Once

	checked atomic.Int64 // releases fetched and checked

	mu       sync.Mutex
	failures []loadFailure
	acked    []ackedJob
	shed     map[string]int // well-formed 429s by code
}

// ackedJob is a job the server acknowledged, with the trip that submitted it.
type ackedJob struct {
	id   string
	trip loadTrip
}

func (d *loadDriver) fail(kind loadFailureKind, format string, args ...any) {
	d.mu.Lock()
	d.failures = append(d.failures, loadFailure{kind, fmt.Sprintf(format, args...)})
	d.mu.Unlock()
}

func (d *loadDriver) release() { d.holdOnce.Do(func() { close(d.hold) }) }

// driveServiceLoad runs half the round trips against a durable server,
// closes it, reopens its store and runs the rest, then re-reads every
// acknowledged job. It returns every failure it saw; a server it cannot
// open fails t.
func driveServiceLoad(t *testing.T, bodies []*loadBody, hooks loadHooks) []loadFailure {
	t.Helper()
	d := &loadDriver{clock: newStepClock(), hold: make(chan struct{}), shed: map[string]int{}}
	cfg := Config{
		Workers:      2,
		AlgoWorkers:  1,
		QueueDepth:   2,
		JobRetention: -1,
		TenantQPS:    1,
		TenantBurst:  2,
		StoreDir:     t.TempDir(),
		Clock:        d.clock.now,
		FS:           hooks.fs,
	}
	for phase := range 2 {
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		run := s.run
		s.run = func(tab *ldiv.Table, p Params) (*Result, error) {
			<-d.hold
			return run(tab, p)
		}
		if hooks.run != nil {
			s.run = hooks.run(s.run)
		}
		h := s.Handler()
		if hooks.handler != nil {
			h = hooks.handler(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)

		d.runTrips(ts, loadTrips(bodies, phase))
		d.release() // a run that never overflowed still drains at Close
		if phase == 1 {
			for _, job := range d.acked {
				d.reread(ts, job)
			}
		}
		ts.Close()
		s.Close()
	}
	t.Logf("%d jobs acknowledged, %d releases checked, %d queue_full and %d tenant_quota 429s",
		len(d.acked), d.checked.Load(), d.shed["queue_full"], d.shed["tenant_quota"])
	if d.shed["queue_full"] == 0 || d.shed["tenant_quota"] == 0 {
		d.fail(untyped429, "the run saw %d queue_full and %d tenant_quota 429s; it must see both",
			d.shed["queue_full"], d.shed["tenant_quota"])
	}
	return d.failures
}

// runTrips runs the trips on loadClients concurrent clients.
func (d *loadDriver) runTrips(ts *httptest.Server, trips []loadTrip) {
	next := make(chan loadTrip)
	var wg sync.WaitGroup
	for range loadClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trip := range next {
				d.roundTrip(ts, trip)
			}
		}()
	}
	for _, trip := range trips {
		next <- trip
	}
	close(next)
	wg.Wait()
}

// roundTrip submits one body until the server acknowledges it, then polls
// the job to its end and checks its release. A 429 is retried: a queue_full
// one after the held workers are let go, a tenant_quota one after moving the
// clock on by its Retry-After. Any other answer, a 500 included, fails the
// run.
func (d *loadDriver) roundTrip(ts *httptest.Server, trip loadTrip) {
	q := url.Values{"algo": {trip.algo}, "l": {strconv.Itoa(trip.body.l)},
		"qi": {strings.Join(trip.body.qi, ",")}, "sa": {trip.body.sa}}
	deadline := time.Now().Add(loadTimeout)
	for time.Now().Before(deadline) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs?"+q.Encode(), bytes.NewReader(trip.body.csv))
		req.Header.Set("X-Tenant", trip.tenant)
		resp, body, err := do(ts, req)
		if err != nil {
			d.fail(releaseDiffers, "%s: submit: %v", trip, err)
			return
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusAccepted:
			var view jobView
			if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
				d.fail(releaseDiffers, "%s: submit answered %d %q", trip, resp.StatusCode, body)
				return
			}
			d.mu.Lock()
			d.acked = append(d.acked, ackedJob{view.ID, trip})
			d.mu.Unlock()
			d.await(ts, ackedJob{view.ID, trip}, deadline)
			return
		case http.StatusTooManyRequests:
			code, secs := d.check429(trip, resp, body)
			if code != "tenant_quota" {
				d.release()
			}
			if code != "queue_full" {
				d.clock.ms.Add(int64(secs) * 1000)
			}
			time.Sleep(time.Millisecond)
		default:
			d.fail(releaseDiffers, "%s: submit answered %d %q", trip, resp.StatusCode, body)
			return
		}
	}
	d.fail(releaseDiffers, "%s: not admitted within %s", trip, loadTimeout)
}

// check429 records one 429 and returns its code and Retry-After (at least 1).
func (d *loadDriver) check429(trip loadTrip, resp *http.Response, body []byte) (string, int) {
	var e errorBody
	_ = json.Unmarshal(body, &e)
	code := e.Error.Code
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	switch {
	case code != "queue_full" && code != "tenant_quota":
		d.fail(untyped429, "%s: 429 with code %q: %s", trip, code, body)
	case err != nil || secs < 1:
		d.fail(untyped429, "%s: %s 429 with Retry-After %q", trip, code, resp.Header.Get("Retry-After"))
	default:
		d.mu.Lock()
		d.shed[code]++
		d.mu.Unlock()
	}
	return code, max(secs, 1)
}

// await polls an acknowledged job until it ends and checks its release.
func (d *loadDriver) await(ts *httptest.Server, job ackedJob, deadline time.Time) {
	for {
		view, ok := d.status(ts, job)
		if !ok {
			return
		}
		switch view.Status {
		case store.PhaseDone, store.PhaseFailed, store.PhaseQuarantined:
			d.check(ts, job, view)
			return
		}
		if time.Now().After(deadline) {
			d.fail(lostJob, "%s: job %s still %s after %s", job.trip, job.id, view.Status, loadTimeout)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// reread checks a job acknowledged earlier in the run: it must still exist,
// be the same job, have ended, and serve a correct release.
func (d *loadDriver) reread(ts *httptest.Server, job ackedJob) {
	view, ok := d.status(ts, job)
	switch {
	case !ok:
	case view.Tenant != job.trip.tenant || view.Params.Algorithm != job.trip.algo:
		d.fail(lostJob, "%s: job %s now names another job (tenant %s, %s)", job.trip, job.id, view.Tenant, view.Params.Algorithm)
	case view.Status == store.PhaseQueued || view.Status == store.PhaseRunning:
		d.fail(lostJob, "%s: job %s is still %s at the end", job.trip, job.id, view.Status)
	default:
		d.check(ts, job, view)
	}
}

// status reads a job's status; it reports a job the server does not know as
// lost.
func (d *loadDriver) status(ts *httptest.Server, job ackedJob) (jobView, bool) {
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+job.id, nil)
	resp, body, err := do(ts, req)
	var view jobView
	switch {
	case err != nil:
		d.fail(lostJob, "%s: status of job %s: %v", job.trip, job.id, err)
	case resp.StatusCode != http.StatusOK:
		d.fail(lostJob, "%s: job %s was acknowledged, its status now answers %d", job.trip, job.id, resp.StatusCode)
	case json.Unmarshal(body, &view) != nil:
		d.fail(lostJob, "%s: job %s status %q does not decode", job.trip, job.id, body)
	default:
		return view, true
	}
	return view, false
}

// check fetches an ended job's release and audits it; a release that passes
// the audit must equal the library's byte for byte.
func (d *loadDriver) check(ts *httptest.Server, job ackedJob, view jobView) {
	trip := job.trip
	if view.Status != store.PhaseDone {
		d.fail(releaseDiffers, "%s: job %s ended %s: %s", trip, job.id, view.Status, view.Error)
		return
	}
	main, ok := d.fetch(ts, job, "")
	var st []byte
	if ok && trip.algo == "anatomy" {
		st, ok = d.fetch(ts, job, "?part=st")
	}
	if !ok {
		return
	}
	opts := ldiv.VerifyOptions{L: trip.body.l}
	var rep *ldiv.ReleaseReport
	var err error
	if trip.algo == "anatomy" {
		rep, err = ldiv.VerifyAnatomyRelease(trip.body.table, bytes.NewReader(main), bytes.NewReader(st), opts)
	} else {
		rep, err = ldiv.VerifyRelease(trip.body.table, bytes.NewReader(main), opts)
	}
	want := trip.body.want[trip.algo]
	d.checked.Add(1)
	switch {
	case err != nil:
		d.fail(auditViolation, "%s: job %s: the auditor failed: %v", trip, job.id, err)
	case !rep.OK:
		d.fail(auditViolation, "%s: job %s: %d violations, first %s", trip, job.id, len(rep.Violations), rep.Violations[0].Kind)
	case !bytes.Equal(main, want.main) || !bytes.Equal(st, want.st):
		d.fail(releaseDiffers, "%s: job %s serves a release that differs from the library's", trip, job.id)
	}
}

// fetch downloads one part of a job's release.
func (d *loadDriver) fetch(ts *httptest.Server, job ackedJob, query string) ([]byte, bool) {
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+job.id+"/result"+query, nil)
	resp, body, err := do(ts, req)
	switch {
	case err != nil:
		d.fail(releaseDiffers, "%s: result%s of job %s: %v", job.trip, query, job.id, err)
	case resp.StatusCode != http.StatusOK:
		d.fail(releaseDiffers, "%s: result%s of done job %s answered %d", job.trip, query, job.id, resp.StatusCode)
	default:
		return body, true
	}
	return nil, false
}

// do sends req with the test server's client and reads the whole response.
func do(ts *httptest.Server, req *http.Request) (*http.Response, []byte, error) {
	resp, err := ts.Client().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

func TestServiceUnderLoad(t *testing.T) {
	for _, f := range driveServiceLoad(t, loadBodies(t), loadHooks{}) {
		t.Errorf("%s: %s", f.kind, f.detail)
	}
}

// TestServiceUnderLoadCatchesDefects injects one defect per row and asserts
// the driver reports it, and nothing else.
func TestServiceUnderLoadCatchesDefects(t *testing.T) {
	bodies := loadBodies(t)
	for _, tc := range []struct {
		name  string
		hooks loadHooks
		want  loadFailureKind
	}{
		{"journal drops writes", loadHooks{fs: droppingJournalFS{}}, lostJob},
		{"star cell revealed", loadHooks{run: revealOneStar}, auditViolation},
		{"another algorithm's release", loadHooks{run: publishTPForTPPlus}, releaseDiffers},
		{"429 without its code", loadHooks{handler: strip429Code}, untyped429},
	} {
		t.Run(tc.name, func(t *testing.T) {
			failures := driveServiceLoad(t, bodies, tc.hooks)
			if len(failures) == 0 {
				t.Fatalf("the driver reported nothing; want %s", tc.want)
			}
			for _, f := range failures {
				if f.kind != tc.want {
					t.Errorf("the driver reported %s (%s); want only %s", f.kind, f.detail, tc.want)
				}
			}
		})
	}
}

// droppingJournalFS is a store whose journal writes report success and keep
// nothing, so every acknowledged job is gone once the store reopens.
type droppingJournalFS struct{ store.OSFS }

func (droppingJournalFS) OpenAppend(path string) (store.File, error) {
	f, err := store.OSFS{}.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return droppingFile{f}, nil
}

type droppingFile struct{ store.File }

func (droppingFile) Write(p []byte) (int, error) { return len(p), nil }

// revealOneStar publishes, in every tp+ release, the original value behind
// one star cell.
func revealOneStar(next runFunc) runFunc {
	return func(tab *ldiv.Table, p Params) (*Result, error) {
		res, err := next(tab, p)
		if err == nil && p.Algorithm == "tp+" {
			res.CSV = revealStar(tab, res.CSV)
		}
		return res, err
	}
}

// revealStar replaces the first star cell whose revealed row matches no
// other row's QI cells, so the revealed tuple is a group of one. Release
// rows are in table order.
func revealStar(tab *ldiv.Table, release []byte) []byte {
	lines := strings.Split(strings.TrimSuffix(string(release), "\n"), "\n")
	d := tab.Dimensions()
	rows := make([][]string, len(lines)-1)
	seen := map[string]bool{}
	for i, line := range lines[1:] {
		rows[i] = strings.Split(line, ",")
		seen[strings.Join(rows[i][:d], ",")] = true
	}
	for i, row := range rows {
		for j, cell := range row[:d] {
			if cell != "*" {
				continue
			}
			revealed := slices.Clone(row)
			revealed[j] = tab.QILabel(i, j)
			if !seen[strings.Join(revealed[:d], ",")] {
				lines[i+1] = strings.Join(revealed, ",")
				return []byte(strings.Join(lines, "\n") + "\n")
			}
		}
	}
	return release
}

// publishTPForTPPlus serves tp's release to every tp+ job: l-diverse, but not
// the release the job asked for.
func publishTPForTPPlus(next runFunc) runFunc {
	return func(tab *ldiv.Table, p Params) (*Result, error) {
		if p.Algorithm == "tp+" {
			p.Algorithm = "tp"
		}
		return next(tab, p)
	}
}

// strip429Code blanks the error code of every 429 body.
func strip429Code(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusTooManyRequests {
			var e errorBody
			_ = json.Unmarshal(body, &e)
			e.Error.Code = ""
			body, _ = json.Marshal(e)
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
}
