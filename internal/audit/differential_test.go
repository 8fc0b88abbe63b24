package audit_test

// The differential harness: every release produced by every shipped algorithm
// over randomized tables must pass the independent auditor. The auditor is
// the external oracle here — it trusts nothing the algorithms computed
// in-process, only the release bytes — so a pass means the whole pipeline
// (algorithm → partition → generalization → CSV rendering → release parsing →
// group re-derivation → privacy + fidelity) is consistent end to end.
//
// On a failure the harness dumps a reproducer (original CSV, release CSV(s),
// and the exact cmd/ldivaudit invocation) into a directory that survives the
// test run, so the case can be replayed and debugged offline.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldiv"
	"ldiv/internal/audit"
)

// diffConfig is one randomized table shape.
type diffConfig struct {
	rows   int
	d      int
	qiCard int
	saCard int
	zipf   bool // skewed SA distribution instead of uniform
}

// randomTable builds a table of the given shape. Zipf-style skew draws
// sensitive value v with probability proportional to 1/(v+1).
func randomTable(t *testing.T, cfg diffConfig, rng *rand.Rand) *ldiv.Table {
	t.Helper()
	qi := make([]*ldiv.Attribute, cfg.d)
	for j := range qi {
		qi[j] = ldiv.NewIntegerAttribute(fmt.Sprintf("Q%d", j), cfg.qiCard)
	}
	schema, err := ldiv.NewSchema(qi, ldiv.NewIntegerAttribute("S", cfg.saCard))
	if err != nil {
		t.Fatal(err)
	}
	tab := ldiv.NewTable(schema)
	weights := make([]float64, cfg.saCard)
	totalW := 0.0
	for v := range weights {
		if cfg.zipf {
			weights[v] = 1 / float64(v+1)
		} else {
			weights[v] = 1
		}
		totalW += weights[v]
	}
	row := make([]int, cfg.d)
	for i := 0; i < cfg.rows; i++ {
		for j := range row {
			row[j] = rng.Intn(cfg.qiCard)
		}
		x := rng.Float64() * totalW
		sa := 0
		for v, w := range weights {
			if x < w {
				sa = v
				break
			}
			x -= w
		}
		if err := tab.AppendRow(row, sa); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// renderRelease produces the release bytes of one algorithm: (release, nil)
// for the generalization algorithms, (qit, st) for anatomy.
func renderRelease(tab *ldiv.Table, l int, algo string) (release, st []byte, err error) {
	if algo == "anatomy" {
		an, err := ldiv.Anatomize(tab, l)
		if err != nil {
			return nil, nil, err
		}
		var qb, sb bytes.Buffer
		if err := ldiv.WriteAnatomyQITCSV(&qb, tab, an); err != nil {
			return nil, nil, err
		}
		if err := ldiv.WriteAnatomySTCSV(&sb, tab, an); err != nil {
			return nil, nil, err
		}
		return qb.Bytes(), sb.Bytes(), nil
	}
	gen, _, err := ldiv.AnonymizeWith(tab, l, algo)
	if err != nil {
		return nil, nil, err
	}
	var b bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
		return nil, nil, err
	}
	return b.Bytes(), nil, nil
}

// dumpReproducer writes the failing case to a directory that survives the
// test and returns the replay command.
func dumpReproducer(t *testing.T, tab *ldiv.Table, release, st []byte, l int, algo string) string {
	t.Helper()
	dir, err := os.MkdirTemp("", "ldivaudit-repro-*")
	if err != nil {
		t.Fatalf("creating reproducer dir: %v", err)
	}
	var orig bytes.Buffer
	if err := ldiv.WriteCSV(&orig, tab); err != nil {
		t.Fatalf("writing reproducer original: %v", err)
	}
	must := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("writing reproducer %s: %v", name, err)
		}
		return path
	}
	origPath := must("original.csv", orig.Bytes())
	relPath := must("release.csv", release)
	cmd := fmt.Sprintf("go run ./cmd/ldivaudit -original %s -release %s -qi %s -sa %s -l %d -pretty",
		origPath, relPath, strings.Join(tab.Schema().QINames(), ","), tab.Schema().SA().Name(), l)
	if st != nil {
		stPath := must("st.csv", st)
		cmd += " -st " + stPath
	}
	must("params.txt", []byte(fmt.Sprintf("algo=%s l=%d qi=%s sa=%s\nreplay: %s\n",
		algo, l, strings.Join(tab.Schema().QINames(), ","), tab.Schema().SA().Name(), cmd)))
	return cmd
}

func TestDifferentialAllAlgorithmsPassAudit(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	cases := 24
	if testing.Short() {
		cases = 6
	}
	audited := 0
	for i := 0; i < cases; i++ {
		cfg := diffConfig{
			rows:   24 + rng.Intn(120),
			d:      1 + rng.Intn(4),
			qiCard: 2 + rng.Intn(4),
			saCard: 2 + rng.Intn(5),
			zipf:   rng.Intn(2) == 1,
		}
		tab := randomTable(t, cfg, rng)
		maxL := ldiv.MaxEligibleL(tab)
		if maxL < 2 {
			continue // too skewed for any release to exist; nothing to audit
		}
		for _, l := range []int{2, 3, 4} {
			if l > maxL {
				break
			}
			for _, algo := range ldiv.Algorithms {
				release, st, err := renderRelease(tab, l, algo)
				if err != nil {
					t.Errorf("case %d (%+v) l=%d %s: algorithm failed on an eligible table: %v", i, cfg, l, algo, err)
					continue
				}
				var rep *ldiv.ReleaseReport
				if algo == "anatomy" {
					rep, err = ldiv.VerifyAnatomyRelease(tab, bytes.NewReader(release), bytes.NewReader(st), ldiv.VerifyOptions{L: l})
				} else {
					rep, err = ldiv.VerifyRelease(tab, bytes.NewReader(release), ldiv.VerifyOptions{L: l})
				}
				if err != nil {
					t.Fatalf("case %d l=%d %s: verify error: %v", i, l, algo, err)
				}
				audited++
				if !rep.OK {
					cmd := dumpReproducer(t, tab, release, st, l, algo)
					t.Errorf("case %d (%+v) l=%d %s: release failed the audit with %d violation(s), first: %+v\nreplay: %s",
						i, cfg, l, algo, rep.ViolationCount, rep.Violations[0], cmd)
				}
			}
		}
	}
	if audited == 0 {
		t.Fatal("the randomized sweep audited no releases; loosen the generator")
	}
	t.Logf("audited %d releases across %d table shapes", audited, cases)
}

// TestDifferentialCensusSample runs the sweep once over realistic census
// microdata (a SAL sample with the paper's Table-6 domains) instead of the
// small randomized shapes.
func TestDifferentialCensusSample(t *testing.T) {
	base, err := ldiv.GenerateDataset("sal", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := base.ProjectNames([]string{"Age", "Gender", "Education"})
	if err != nil {
		t.Fatal(err)
	}
	const l = 4
	if ldiv.MaxEligibleL(tab) < l {
		t.Fatalf("SAL sample is not %d-eligible; adjust the sample size", l)
	}
	for _, algo := range ldiv.Algorithms {
		release, st, err := renderRelease(tab, l, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var rep *ldiv.ReleaseReport
		if algo == "anatomy" {
			rep, err = ldiv.VerifyAnatomyRelease(tab, bytes.NewReader(release), bytes.NewReader(st), ldiv.VerifyOptions{L: l})
		} else {
			rep, err = ldiv.VerifyRelease(tab, bytes.NewReader(release), ldiv.VerifyOptions{L: l})
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			cmd := dumpReproducer(t, tab, release, st, l, algo)
			t.Errorf("%s on SAL failed the audit, first violation: %+v\nreplay: %s", algo, rep.Violations[0], cmd)
		}
	}
}

// TestDifferentialMergedSignatures pins the subtlety the signature-based
// grouping must handle: two in-process groups that suppress to identical
// published signatures merge into one adversary-visible group, and the
// auditor must still accept the release (the union of l-eligible multisets is
// l-eligible).
func TestDifferentialMergedSignatures(t *testing.T) {
	csv := `A,S
0,x
1,y
2,x
3,y
`
	tab, err := ldiv.ReadCSV(strings.NewReader(csv), []string{"A"}, "S")
	if err != nil {
		t.Fatal(err)
	}
	// Both groups suppress A entirely: identical "*" signatures.
	gen, err := ldiv.Suppress(tab, ldiv.NewPartition([][]int{{0, 1}, {2, 3}}))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
		t.Fatal(err)
	}
	rep, err := audit.VerifyGeneralized(tab, bytes.NewReader(b.Bytes()), audit.Options{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("merged-signature release rejected: %+v", rep.Violations)
	}
	if rep.Groups != 1 {
		t.Fatalf("expected the two all-star groups to merge into one, got %d", rep.Groups)
	}
}
