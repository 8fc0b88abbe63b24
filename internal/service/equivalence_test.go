package service

// The acceptance test of the job server: anonymizing over HTTP must be
// byte-identical to calling the library directly on the same CSV input, for
// both TP and TP+. Both paths read the same bytes with ldiv.ReadCSV (so
// dictionary codes agree), run the same deterministic algorithm, and render
// with ldiv.WriteGeneralizedCSV.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"ldiv"
)

// salCSV renders a synthetic SAL census sample as the CSV a client would POST.
func salCSV(t *testing.T, rows int) (string, []string, string) {
	t.Helper()
	tbl, err := ldiv.GenerateDataset("sal", rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := ldiv.WriteCSV(&b, tbl); err != nil {
		t.Fatal(err)
	}
	return b.String(), tbl.Schema().QINames(), tbl.Schema().SA().Name()
}

// directRelease computes the release the library produces for the same CSV.
func directRelease(t *testing.T, csv string, qi []string, sa, algo string, l int) string {
	t.Helper()
	tbl, err := ldiv.ReadCSV(strings.NewReader(csv), qi, sa)
	if err != nil {
		t.Fatal(err)
	}
	var res *ldiv.Result
	switch algo {
	case "tp":
		res, err = ldiv.TP(tbl, l)
	case "tp+":
		res, err = ldiv.TPPlus(tbl, l)
	default:
		t.Fatalf("unsupported algorithm %q", algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	gen, err := res.Generalize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := ldiv.WriteGeneralizedCSV(&out, gen); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestServerMatchesLibraryByteForByte(t *testing.T) {
	csv, qi, sa := salCSV(t, 1200)
	_, ts := newTestServer(t, Config{Workers: 2})

	for _, tc := range []struct {
		algo string
		l    int
	}{
		{"tp", 4}, {"tp+", 4}, {"tp+", 2}, {"tp", 6},
	} {
		t.Run(fmt.Sprintf("%s-l%d", tc.algo, tc.l), func(t *testing.T) {
			query := url.Values{
				"algo": {tc.algo},
				"l":    {strconv.Itoa(tc.l)},
				"qi":   {strings.Join(qi, ",")},
				"sa":   {sa},
			}.Encode()
			code, view, apiErr := submit(t, ts, query, csv)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("submit returned %d: %+v", code, apiErr)
			}
			done := awaitDone(t, ts, view.ID)
			if done.Status != StatusDone {
				t.Fatalf("job ended %s: %s", done.Status, done.Error)
			}
			code, served := fetchResult(t, ts, view.ID, "")
			if code != http.StatusOK {
				t.Fatalf("result returned %d", code)
			}

			want := directRelease(t, csv, qi, sa, tc.algo, tc.l)
			if served != want {
				t.Fatalf("served release differs from the library's (%d vs %d bytes)", len(served), len(want))
			}

			// Sanity: the release is l-diverse on re-read of the microdata.
			tbl, err := ldiv.ReadCSV(strings.NewReader(csv), qi, sa)
			if err != nil {
				t.Fatal(err)
			}
			if done.Metrics == nil || done.Metrics.Rows != tbl.Len() {
				t.Errorf("metrics rows = %+v, table has %d", done.Metrics, tbl.Len())
			}
		})
	}
}

// TestProjectionMatchesLibrary exercises the projection parameter end to end:
// the server must anonymize the projected table exactly as the library does.
func TestProjectionMatchesLibrary(t *testing.T) {
	csv, qi, sa := salCSV(t, 800)
	_, ts := newTestServer(t, Config{Workers: 1})
	proj := qi[:3]

	query := url.Values{
		"algo":       {"tp+"},
		"l":          {"4"},
		"qi":         {strings.Join(qi, ",")},
		"sa":         {sa},
		"projection": {strings.Join(proj, ",")},
	}.Encode()
	code, view, apiErr := submit(t, ts, query, csv)
	if code != http.StatusAccepted {
		t.Fatalf("submit returned %d: %+v", code, apiErr)
	}
	done := awaitDone(t, ts, view.ID)
	if done.Status != StatusDone {
		t.Fatalf("job ended %s: %s", done.Status, done.Error)
	}
	_, served := fetchResult(t, ts, view.ID, "")

	tbl, err := ldiv.ReadCSV(strings.NewReader(csv), qi, sa)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err = tbl.ProjectNames(proj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ldiv.TPPlus(tbl, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := res.Generalize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := ldiv.WriteGeneralizedCSV(&want, gen); err != nil {
		t.Fatal(err)
	}
	if served != want.String() {
		t.Fatal("projected release differs from the library's")
	}
}
