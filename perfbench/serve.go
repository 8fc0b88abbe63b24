package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"mime/multipart"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ldiv/internal/service"
	"ldiv/internal/store"
)

// serveSpec is the server workload: internal/service opened in-process with
// a durable store, in its default configuration otherwise, on a loopback
// listener, driven by one closed-loop client. Each op submits a never-seen
// body, polls until done, fetches the release, verifies it through
// /v1/verify and resubmits the body, which must come back cached.
type serveSpec struct {
	name string
	rows int
	qi   []string
	l    int
	algo string
}

var serveDurable = serveSpec{name: "serve-durable", rows: 4000, qi: salFour, l: 4, algo: "tp+"}

// opsPerSecond fixes a serve run's op count at opsPerSecond × --seconds, so
// the store a run leaves behind has the same size every time.
const opsPerSecond = 12

// sampleEvery compares every n-th op's release (the first included) with
// the library's release of the same body.
const sampleEvery = 10

// pollInterval is the status poll interval; it must stay below 1/20 of a
// fresh job's latency for latency_ms to be resolved finely enough.
const pollInterval = time.Millisecond

// serveWarmups is the number of untimed ops before timing starts.
const serveWarmups = 3

// server is one in-process ldivd on a loopback listener.
type server struct {
	svc   *service.Server
	http  *http.Server
	base  string
	ended chan struct{}
}

func openServer(dir string) (*server, error) {
	svc, err := service.Open(service.Config{StoreDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), ended: make(chan struct{})}
	go func() {
		defer close(s.ended)
		_ = s.http.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, waits for in-flight requests and the serve
// goroutine, then drains the job queue and closes the store.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
	}
	<-s.ended
	s.svc.Close()
}

// jobView is the part of the server's job JSON the client reads.
type jobView struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Cached  bool   `json:"cached"`
	Error   string `json:"error"`
	Metrics *struct {
		Stars     int      `json:"stars"`
		KL        *float64 `json:"kl_divergence"`
		RuntimeMS float64  `json:"runtime_ms"`
	} `json:"metrics"`
}

// client drives one server; it is closed-loop, one request at a time.
type client struct {
	http  *http.Client
	base  string
	query string
}

func (c *client) do(ctx context.Context, method, path, contentType string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d, want %d: %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func (c *client) job(ctx context.Context, method, path string, body []byte, want int) (*jobView, error) {
	contentType := ""
	if body != nil {
		contentType = "text/csv"
	}
	data, err := c.do(ctx, method, path, contentType, body, want)
	if err != nil {
		return nil, err
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s %s: decoding job: %w", method, path, err)
	}
	return &v, nil
}

// serveSample is what one op measured.
type serveSample struct {
	latency, submit, wait, result, verify, hit time.Duration
	algoMS                                     float64
	polls                                      int
	stars                                      int
	kl                                         float64
	release                                    []byte
}

// op runs one submit → poll → result → verify → resubmit round trip.
func (c *client) op(ctx context.Context, body []byte) (*serveSample, error) {
	s := &serveSample{}
	start := time.Now()
	v, err := c.job(ctx, http.MethodPost, "/v1/jobs?"+c.query, body, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	s.submit = time.Since(start)
	if v.Cached {
		return nil, fmt.Errorf("a never-seen body came back cached")
	}
	for v.Status != "done" {
		switch v.Status {
		case "queued", "running":
		default:
			return nil, fmt.Errorf("job %s ended %s: %s", v.ID, v.Status, v.Error)
		}
		time.Sleep(pollInterval)
		if v, err = c.job(ctx, http.MethodGet, "/v1/jobs/"+v.ID, nil, http.StatusOK); err != nil {
			return nil, err
		}
		s.polls++
	}
	s.wait = time.Since(start) - s.submit
	if v.Metrics == nil || v.Metrics.KL == nil {
		return nil, fmt.Errorf("job %s is done without metrics", v.ID)
	}
	s.algoMS, s.stars, s.kl = v.Metrics.RuntimeMS, v.Metrics.Stars, *v.Metrics.KL
	if s.release, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+v.ID+"/result", "", nil, http.StatusOK); err != nil {
		return nil, err
	}
	s.latency = time.Since(start)
	s.result = s.latency - s.submit - s.wait

	form, contentType, err := verifyForm(body, s.release)
	if err != nil {
		return nil, err
	}
	vstart := time.Now()
	data, err := c.do(ctx, http.MethodPost, "/v1/verify?"+c.query, contentType, form, http.StatusOK)
	s.verify = time.Since(vstart)
	if err != nil {
		return nil, err
	}
	var verdict struct {
		OK         bool `json:"ok"`
		Violations int  `json:"violation_count"`
	}
	if err := json.Unmarshal(data, &verdict); err != nil {
		return nil, fmt.Errorf("decoding verdict: %w", err)
	}
	if !verdict.OK {
		return nil, fmt.Errorf("job %s: verdict not ok (%d violations)", v.ID, verdict.Violations)
	}

	hstart := time.Now()
	h, err := c.job(ctx, http.MethodPost, "/v1/jobs?"+c.query, body, http.StatusOK)
	s.hit = time.Since(hstart)
	if err != nil {
		return nil, err
	}
	if !h.Cached || h.Status != "done" {
		return nil, fmt.Errorf("resubmit of job %s: cached=%v status=%s, want a cached done job", v.ID, h.Cached, h.Status)
	}
	again, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+h.ID+"/result", "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(again, s.release) {
		return nil, fmt.Errorf("cached job %s serves different bytes than job %s", h.ID, v.ID)
	}
	return s, nil
}

// verifyForm builds the /v1/verify multipart body.
func verifyForm(original, release []byte) ([]byte, string, error) {
	var b bytes.Buffer
	mw := multipart.NewWriter(&b)
	for _, part := range []struct {
		name string
		data []byte
	}{{"original", original}, {"release", release}} {
		w, err := mw.CreateFormFile(part.name, part.name+".csv")
		if err != nil {
			return nil, "", err
		}
		if _, err := w.Write(part.data); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return b.Bytes(), mw.FormDataContentType(), nil
}

// scrape reads the server's /metrics counters.
func (c *client) scrape(ctx context.Context) (map[string]float64, error) {
	data, err := c.do(ctx, http.MethodGet, "/metrics", "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// storeStats reads a closed store's directory: journal records and accepted
// jobs, total bytes, and the median time to reopen (replay) it.
func storeStats(dir string) (records, accepts, size int, replay time.Duration, err error) {
	journal, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		return 0, 0, 0, 0, err
	}
	records = strings.Count(string(journal), "\n")
	accepts = strings.Count(string(journal), `"op":"accept"`)
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		size += int(info.Size())
		return nil
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var replays []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		st, rep, err := store.Open(dir, nil)
		took := time.Since(start)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if err := st.Close(); err != nil {
			return 0, 0, 0, 0, err
		}
		if len(rep.Quarantined) > 0 || len(rep.Jobs) != accepts {
			return 0, 0, 0, 0, fmt.Errorf("store replay: %d jobs for %d accepts, %d quarantined", len(rep.Jobs), accepts, len(rep.Quarantined))
		}
		replays = append(replays, float64(took))
	}
	return records, accepts, size, time.Duration(median(replays)), nil
}

// runServe sets up the bodies and the server (several times, for setup_s),
// warms up, runs the fixed number of timed ops, then checks sampled
// releases against the library and reads the store. The temporary store
// directory, the listener and the server are released on every return path.
func runServe(ctx context.Context, spec serveSpec, o options) (*outcome, provenance, error) {
	prov := newProvenance(spec.name, o.seed, spec.rows, len(spec.qi), spec.l, spec.algo)
	out := &outcome{values: map[string]float64{}}
	root, err := os.MkdirTemp(o.workdir, "perfbench-serve-")
	if err != nil {
		return nil, prov, err
	}
	defer os.RemoveAll(root)

	ops := opsPerSecond * o.seconds
	var bodies [][]byte
	var srv *server
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.close()
			srv = nil
		}
		start := time.Now()
		bodies = bodies[:0]
		for j := 0; j < serveWarmups+ops; j++ {
			if err := ctx.Err(); err != nil {
				return nil, prov, err
			}
			b, err := genSAL(spec.rows, o.seed<<20+int64(j), spec.qi)
			if err != nil {
				return nil, prov, err
			}
			bodies = append(bodies, b)
		}
		if srv, err = openServer(filepath.Join(root, fmt.Sprintf("store-%d", i))); err != nil {
			return nil, prov, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	q := url.Values{}
	q.Set("algo", spec.algo)
	q.Set("l", strconv.Itoa(spec.l))
	q.Set("qi", strings.Join(spec.qi, ","))
	q.Set("sa", salSA)
	transport := &http.Transport{MaxIdleConnsPerHost: 2}
	defer transport.CloseIdleConnections()
	c := &client{http: &http.Client{Transport: transport, Timeout: 30 * time.Second}, base: srv.base, query: q.Encode()}

	for i := 0; i < serveWarmups; i++ {
		if _, err := c.op(ctx, bodies[i]); err != nil {
			return nil, prov, fmt.Errorf("warm-up op: %w", err)
		}
	}
	before, err := c.scrape(ctx)
	if err != nil {
		return nil, prov, err
	}

	var samples []*serveSample
	// checks are the ops whose release is compared with the library's.
	type check struct {
		op      int
		release []byte
	}
	var checks []check
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < ops; i++ {
		if err := ctx.Err(); err != nil {
			return nil, prov, err
		}
		runtime.GC()
		body := bodies[serveWarmups+i]
		s, err := c.op(ctx, body)
		out.attempted++
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, prov, err
			}
			out.failed++
			out.fail("op %d: %v", i, err)
			continue
		}
		samples = append(samples, s)
		if i%sampleEvery == 0 {
			checks = append(checks, check{i, s.release})
		}
	}
	runtime.ReadMemStats(&m1)
	after, err := c.scrape(ctx)
	if err != nil {
		return nil, prov, err
	}
	if len(samples) == 0 {
		return nil, prov, fmt.Errorf("no timed op succeeded: %v", out.problems)
	}
	transport.CloseIdleConnections()
	srv.close()
	srv = nil

	// Library side: the server's release of a body must be byte-identical
	// to the library pipeline's. The traced run also splits those library
	// runs into layers.
	var ls layerStats
	for _, chk := range checks {
		i, served := chk.op, chk.release
		if err := ctx.Err(); err != nil {
			return nil, prov, err
		}
		body := bodies[serveWarmups+i]
		runtime.GC()
		start := time.Now()
		rel, err := publish(body, spec.qi, spec.l, spec.algo)
		took := time.Since(start)
		if err != nil {
			out.fail("library release of op %d's body: %v", i, err)
			continue
		}
		if !bytes.Equal(rel.csv, served) {
			out.fail("op %d: the served release differs from the library's", i)
			continue
		}
		if !o.trace {
			continue
		}
		ls.plain = append(ls.plain, ms(took))
		runtime.GC()
		start = time.Now()
		trel, tr, err := publishTraced(body, spec.qi, spec.l, spec.algo)
		if err != nil || !trel.sameAs(rel) {
			out.fail("traced library release of op %d's body differs (%v)", i, err)
			continue
		}
		tr.wall = time.Since(start)
		ls.add(tr)
		vt, err := verifyRelease(rel, spec.l)
		if err != nil {
			out.fail("library audit of op %d's release: %v", i, err)
			continue
		}
		ls.verify = append(ls.verify, ms(vt))
	}

	records, accepts, storeBytes, replay, err := storeStats(filepath.Join(root, fmt.Sprintf("store-%d", setupRepeats-1)))
	if err != nil {
		out.fail("store: %v", err)
	}

	var lat, submit, wait, result, algo, verify, hit []float64
	polls, stars, kl := 0, 0.0, 0.0
	for _, s := range samples {
		lat = append(lat, ms(s.latency))
		submit = append(submit, ms(s.submit))
		wait = append(wait, ms(s.wait))
		result = append(result, ms(s.result))
		algo = append(algo, s.algoMS)
		verify = append(verify, ms(s.verify))
		hit = append(hit, ms(s.hit))
		polls += s.polls
		stars += float64(s.stars)
		kl += s.kl
	}
	n := float64(len(samples))
	v := out.values
	v["ops"] = n
	v["setup_s"] = median(setups)
	v["latency_ms.p50"] = quantile(lat, 0.5)
	v["latency_ms.p90"] = p90(lat)
	v["rows_per_s"] = rowsPerSecond(spec.rows, v["latency_ms.p50"])
	v["alloc_mb.per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(ops)
	v["stars"] = stars / n
	v["kl"] = kl / n
	v["verify_ms.p50"] = median(verify)
	v["poll_share_of_p50"] = float64(pollInterval) / float64(time.Duration(v["latency_ms.p50"]*float64(time.Millisecond)))

	v["service.submit_ms.p50"] = median(submit)
	v["service.wait_ms.p50"] = median(wait)
	v["service.algo_ms.p50"] = median(algo)
	v["service.result_ms.p50"] = median(result)
	v["service.hit_ms.p50"] = median(hit)
	v["service.polls_per_job"] = float64(polls) / n
	hits := after["ldivd_cache_hits_total"] - before["ldivd_cache_hits_total"]
	misses := after["ldivd_cache_misses_total"] - before["ldivd_cache_misses_total"]
	if hits+misses > 0 {
		v["service.cache_hit_ratio"] = hits / (hits + misses)
	}
	if out.failed == 0 && v["service.cache_hit_ratio"] != 0.5 {
		out.fail("cache hit ratio %v over %v submissions, want exactly 0.5", v["service.cache_hit_ratio"], hits+misses)
	}
	if accepts > 0 {
		v["store.journal_records_per_job"] = float64(records) / float64(accepts)
		v["store.bytes_per_job"] = float64(storeBytes) / float64(accepts)
	}
	v["store.replay_ms"] = ms(replay)
	if o.trace {
		if ls.last == nil || len(ls.plain) == 0 {
			return nil, prov, fmt.Errorf("no successful traced library op")
		}
		// The client spans tile each op by construction, so trace.coverage
		// and trace.overhead here are those of the library layers on the
		// sampled bodies.
		ls.values(v)
	}
	return out, prov, nil
}
