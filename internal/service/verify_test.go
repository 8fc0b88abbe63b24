package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ldiv"
	"ldiv/internal/store"
)

// postVerify POSTs a multipart verify request and returns (status, body).
func postVerify(t *testing.T, ts *httptest.Server, query string, parts map[string][]byte) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	// Deterministic part order keeps failures readable.
	for _, name := range []string{"original", "release", "st"} {
		data, ok := parts[name]
		if !ok {
			continue
		}
		fw, err := mw.CreateFormFile(name, name+".csv")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/verify?"+query, mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// sampleRelease renders the named algorithm's release of sampleCSV.
func sampleRelease(t *testing.T, algo string) (tbl *ldiv.Table, release []byte, st []byte) {
	t.Helper()
	tbl, err := ldiv.ReadCSV(strings.NewReader(sampleCSV), []string{"Age", "Gender"}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	if algo == "anatomy" {
		an, err := ldiv.Anatomize(tbl, 2)
		if err != nil {
			t.Fatal(err)
		}
		var qb, sb bytes.Buffer
		if err := ldiv.WriteAnatomyQITCSV(&qb, tbl, an); err != nil {
			t.Fatal(err)
		}
		if err := ldiv.WriteAnatomySTCSV(&sb, tbl, an); err != nil {
			t.Fatal(err)
		}
		return tbl, qb.Bytes(), sb.Bytes()
	}
	gen, _, err := ldiv.AnonymizeWith(tbl, 2, algo)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
		t.Fatal(err)
	}
	return tbl, b.Bytes(), nil
}

// libraryVerdict computes the canonical library-side verdict bytes.
func libraryVerdict(t *testing.T, tbl *ldiv.Table, release, st []byte, opts ldiv.VerifyOptions) []byte {
	t.Helper()
	var rep *ldiv.ReleaseReport
	var err error
	if st != nil {
		rep, err = ldiv.VerifyAnatomyRelease(tbl, bytes.NewReader(release), bytes.NewReader(st), opts)
	} else {
		rep, err = ldiv.VerifyRelease(tbl, bytes.NewReader(release), opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestVerifyEndpointMatchesLibraryByteForByte(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, algo := range ldiv.Algorithms {
		tbl, release, st := sampleRelease(t, algo)
		parts := map[string][]byte{"original": []byte(sampleCSV), "release": release}
		if st != nil {
			parts["st"] = st
		}
		code, body := postVerify(t, ts, "l=2&qi=Age,Gender&sa=Disease", parts)
		if code != http.StatusOK {
			t.Fatalf("%s: verify returned %d: %s", algo, code, body)
		}
		want := libraryVerdict(t, tbl, release, st, ldiv.VerifyOptions{L: 2})
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: server verdict differs from library:\nserver: %s\nlibrary: %s", algo, body, want)
		}
		var rep ldiv.ReleaseReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("%s: clean release failed verification: %s", algo, body)
		}
	}
}

func TestVerifyEndpointRejectsTamperedRelease(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, release, _ := sampleRelease(t, "tp+")
	// Swap two sensitive values across rows: fidelity must break.
	tampered := strings.Replace(string(release), "flu", "angina", 1)
	code, body := postVerify(t, ts, "l=2&qi=Age,Gender&sa=Disease",
		map[string][]byte{"original": []byte(sampleCSV), "release": []byte(tampered)})
	if code != http.StatusOK {
		t.Fatalf("verify returned %d: %s", code, body)
	}
	var rep ldiv.ReleaseReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Fidelity {
		t.Fatalf("tampered release passed: %s", body)
	}
}

func TestVerifyEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, release, _ := sampleRelease(t, "tp+")
	full := map[string][]byte{"original": []byte(sampleCSV), "release": release}

	tests := []struct {
		name     string
		query    string
		parts    map[string][]byte
		wantCode int
		wantErr  string
	}{
		{"missing l", "qi=Age,Gender&sa=Disease", full, http.StatusBadRequest, "invalid_l"},
		{"bad l", "l=x&qi=Age,Gender&sa=Disease", full, http.StatusBadRequest, "invalid_l"},
		{"l too small", "l=1&qi=Age,Gender&sa=Disease", full, http.StatusBadRequest, "invalid_l"},
		{"missing qi", "l=2&sa=Disease", full, http.StatusBadRequest, "missing_qi"},
		{"missing sa", "l=2&qi=Age,Gender", full, http.StatusBadRequest, "missing_sa"},
		{"bad entropy", "l=2&qi=Age,Gender&sa=Disease&entropy=maybe", full, http.StatusBadRequest, "invalid_entropy"},
		{"bad c", "l=2&qi=Age,Gender&sa=Disease&c=-3", full, http.StatusBadRequest, "invalid_c"},
		{"missing original", "l=2&qi=Age,Gender&sa=Disease",
			map[string][]byte{"release": release}, http.StatusBadRequest, "missing_part"},
		{"missing release", "l=2&qi=Age,Gender&sa=Disease",
			map[string][]byte{"original": []byte(sampleCSV)}, http.StatusBadRequest, "missing_part"},
		{"bad original column", "l=2&qi=Nope&sa=Disease", full, http.StatusBadRequest, "bad_csv"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postVerify(t, ts, tc.query, tc.parts)
			if code != tc.wantCode {
				t.Fatalf("status = %d, want %d (%s)", code, tc.wantCode, body)
			}
			var apiErr errorBody
			if err := json.Unmarshal(body, &apiErr); err != nil {
				t.Fatalf("decoding %q: %v", body, err)
			}
			if apiErr.Error.Code != tc.wantErr {
				t.Fatalf("error code = %q, want %q", apiErr.Error.Code, tc.wantErr)
			}
		})
	}

	// A non-multipart body is a typed error, not a 500.
	resp, err := http.Post(ts.URL+"/v1/verify?l=2&qi=Age,Gender&sa=Disease", "text/csv", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-multipart body returned %d", resp.StatusCode)
	}
}

func TestVerifyEndpointCountsMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, release, _ := sampleRelease(t, "tp+")
	postVerify(t, ts, "l=2&qi=Age,Gender&sa=Disease",
		map[string][]byte{"original": []byte(sampleCSV), "release": release})
	tampered := strings.Replace(string(release), "flu", "angina", 1)
	postVerify(t, ts, "l=2&qi=Age,Gender&sa=Disease",
		map[string][]byte{"original": []byte(sampleCSV), "release": []byte(tampered)})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"ldivd_verifies_total 2",
		"ldivd_verify_failures_total 1",
		`ldivd_job_duration_seconds_count{algorithm="verify"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output misses %q:\n%s", want, text)
		}
	}
}

// TestConcurrentAnonymizeAndVerify is the race-enabled end-to-end test: one
// ldivd instance handles interleaved anonymize jobs and verify requests from
// many goroutines, and every verify verdict must match the library-side audit
// byte for byte — including the releases fetched back from the server itself.
func TestConcurrentAnonymizeAndVerify(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 256})

	algos := []string{"tp", "tp+", "hilbert", "mondrian"}
	const perAlgo = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(algos)*perAlgo*2)

	for _, algo := range algos {
		for k := 0; k < perAlgo; k++ {
			wg.Add(1)
			go func(algo string) {
				defer wg.Done()
				// Submit an anonymize job, fetch its release, then have the
				// server verify the very release it handed out.
				code, view, apiErr := submit(t, ts, "algo="+strings.ReplaceAll(algo, "+", "%2B")+"&l=2&qi=Age,Gender&sa=Disease", sampleCSV)
				if code != http.StatusAccepted && code != http.StatusOK {
					errs <- fmt.Errorf("%s: submit returned %d (%v)", algo, code, apiErr)
					return
				}
				view = awaitDone(t, ts, view.ID)
				if view.Status != store.PhaseDone {
					errs <- fmt.Errorf("%s: job ended %s: %s", algo, view.Status, view.Error)
					return
				}
				rcode, release := fetchResult(t, ts, view.ID, "")
				if rcode != http.StatusOK {
					errs <- fmt.Errorf("%s: result returned %d", algo, rcode)
					return
				}
				vcode, verdict := postVerify(t, ts, "l=2&qi=Age,Gender&sa=Disease",
					map[string][]byte{"original": []byte(sampleCSV), "release": []byte(release)})
				if vcode != http.StatusOK {
					errs <- fmt.Errorf("%s: verify returned %d: %s", algo, vcode, verdict)
					return
				}
				tbl, err := ldiv.ReadCSV(strings.NewReader(sampleCSV), []string{"Age", "Gender"}, "Disease")
				if err != nil {
					errs <- err
					return
				}
				want := libraryVerdict(t, tbl, []byte(release), nil, ldiv.VerifyOptions{L: 2})
				if !bytes.Equal(verdict, want) {
					errs <- fmt.Errorf("%s: server and library verdicts differ:\n%s\n%s", algo, verdict, want)
					return
				}
				var rep ldiv.ReleaseReport
				if err := json.Unmarshal(verdict, &rep); err != nil {
					errs <- err
					return
				}
				if !rep.OK {
					errs <- fmt.Errorf("%s: server-produced release failed its own audit: %s", algo, verdict)
				}
			}(algo)

			wg.Add(1)
			go func(algo string, k int) {
				defer wg.Done()
				// Concurrently verify a tampered release: must fail, and must
				// also match the library verdict byte for byte.
				tbl, release, _ := sampleRelease(t, algo)
				tampered := []byte(strings.Replace(string(release), "flu", "cold", 1))
				vcode, verdict := postVerify(t, ts, "l=2&qi=Age,Gender&sa=Disease",
					map[string][]byte{"original": []byte(sampleCSV), "release": tampered})
				if vcode != http.StatusOK {
					errs <- fmt.Errorf("%s/%d: verify returned %d: %s", algo, k, vcode, verdict)
					return
				}
				want := libraryVerdict(t, tbl, tampered, nil, ldiv.VerifyOptions{L: 2})
				if !bytes.Equal(verdict, want) {
					errs <- fmt.Errorf("%s/%d: tampered verdicts differ:\n%s\n%s", algo, k, verdict, want)
					return
				}
				var rep ldiv.ReleaseReport
				if err := json.Unmarshal(verdict, &rep); err != nil {
					errs <- err
					return
				}
				if rep.OK {
					errs <- fmt.Errorf("%s/%d: tampered release passed: %s", algo, k, verdict)
				}
			}(algo, k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
