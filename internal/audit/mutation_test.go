package audit_test

// Mutation tests prove the auditor has teeth: take a known-good release from
// each real algorithm, corrupt it in a specific way, and assert the exact
// violation kind the auditor reports. A verifier that cannot catch these
// corruptions would wave through a producer bug (or a malicious publisher).

import (
	"bytes"
	"strings"
	"testing"

	"ldiv"
	"ldiv/internal/audit"
)

// generalizationAlgos are the six single-table algorithms.
var generalizationAlgos = []string{"tp", "tp+", "hilbert", "tds", "mondrian", "incognito"}

// mutationSampleCSV has four distinct QI signatures per attribute so real
// algorithm releases keep several distinguishable groups to cross-corrupt.
const mutationSampleCSV = `Age,Zip,Disease
30,10,flu
30,10,cold
30,20,flu
30,20,dyspepsia
40,10,cold
40,10,angina
40,20,flu
40,20,angina
50,10,dyspepsia
50,10,cold
50,20,angina
50,20,flu
`

func mutationTable(t *testing.T) *ldiv.Table {
	t.Helper()
	tab, err := ldiv.ReadCSV(strings.NewReader(mutationSampleCSV), []string{"Age", "Zip"}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// splitRelease returns the header and data lines of a CSV release.
func splitRelease(release []byte) (header string, data []string) {
	lines := strings.Split(strings.TrimSuffix(string(release), "\n"), "\n")
	return lines[0], lines[1:]
}

// joinRelease reassembles a release.
func joinRelease(header string, data []string) []byte {
	return []byte(header + "\n" + strings.Join(data, "\n") + "\n")
}

// verifyKinds audits a generalized release, checks the report against the
// oracle's, and returns the violation kinds.
func verifyKinds(t *testing.T, tab *ldiv.Table, release []byte, l int) (map[audit.ViolationKind]bool, *ldiv.ReleaseReport) {
	t.Helper()
	rep, err := ldiv.VerifyRelease(tab, bytes.NewReader(release), ldiv.VerifyOptions{L: l})
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, tab, release, ldiv.VerifyOptions{L: l}, rep)
	ks := make(map[audit.ViolationKind]bool)
	for _, v := range rep.Violations {
		ks[v.Kind] = true
	}
	return ks, rep
}

// TestMutationsOnEveryGeneralizationAlgorithm corrupts each algorithm's real
// release three ways and asserts each corruption maps to its violation kind.
func TestMutationsOnEveryGeneralizationAlgorithm(t *testing.T) {
	tab := mutationTable(t)
	const l = 2
	for _, algo := range generalizationAlgos {
		t.Run(algo, func(t *testing.T) {
			gen, _, err := ldiv.AnonymizeWith(tab, l, algo)
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
				t.Fatal(err)
			}
			release := b.Bytes()
			if ks, rep := verifyKinds(t, tab, release, l); !rep.OK {
				t.Fatalf("clean %s release failed its audit: %v %+v", algo, ks, rep.Violations)
			}
			header, data := splitRelease(release)

			t.Run("drop a row", func(t *testing.T) {
				mutated := joinRelease(header, data[:len(data)-1])
				ks, rep := verifyKinds(t, tab, mutated, l)
				if rep.OK || !ks[audit.ViolationRowCount] {
					t.Fatalf("dropped row not caught as row_count: %+v", rep.Violations)
				}
			})

			t.Run("swap an SA value across groups", func(t *testing.T) {
				// Find two rows in different published groups (different QI
				// prefixes) with different sensitive values.
				i, j := -1, -1
				for a := 0; a < len(data) && i < 0; a++ {
					for b := a + 1; b < len(data); b++ {
						qa, sa := splitLast(data[a])
						qb, sb := splitLast(data[b])
						if qa != qb && sa != sb {
							i, j = a, b
							break
						}
					}
				}
				if i < 0 {
					t.Skipf("%s merged every group into one signature; no cross-group pair to swap", algo)
				}
				mutated := append([]string(nil), data...)
				qi, si := splitLast(data[i])
				qj, sj := splitLast(data[j])
				mutated[i] = qi + "," + sj
				mutated[j] = qj + "," + si
				ks, rep := verifyKinds(t, tab, joinRelease(header, mutated), l)
				if rep.OK || !ks[audit.ViolationSAMismatch] {
					t.Fatalf("cross-group SA swap not caught as sa_mismatch: %+v", rep.Violations)
				}
			})

			t.Run("redirect a QI cell", func(t *testing.T) {
				// Publish an exact value that does not cover row 0's
				// original: row 0 has Age=30, claim Age=50.
				_, sa := splitLast(data[0])
				fields := strings.Split(data[0], ",")
				mutated := append([]string(nil), data...)
				mutated[0] = "50," + strings.Join(fields[1:len(fields)-1], ",") + "," + sa
				ks, rep := verifyKinds(t, tab, joinRelease(header, mutated), l)
				if rep.OK || !ks[audit.ViolationQICoverage] {
					t.Fatalf("non-covering cell not caught as qi_coverage: %+v", rep.Violations)
				}
			})
		})
	}
}

// TestMutationsOnAnatomy corrupts the two-table release three ways.
func TestMutationsOnAnatomy(t *testing.T) {
	tab := mutationTable(t)
	const l = 3
	an, err := ldiv.Anatomize(tab, l)
	if err != nil {
		t.Fatal(err)
	}
	var qb, sb bytes.Buffer
	if err := ldiv.WriteAnatomyQITCSV(&qb, tab, an); err != nil {
		t.Fatal(err)
	}
	if err := ldiv.WriteAnatomySTCSV(&sb, tab, an); err != nil {
		t.Fatal(err)
	}
	qit, st := qb.Bytes(), sb.Bytes()

	verify := func(t *testing.T, qit, st []byte) (map[audit.ViolationKind]bool, *ldiv.ReleaseReport) {
		t.Helper()
		rep, err := ldiv.VerifyAnatomyRelease(tab, bytes.NewReader(qit), bytes.NewReader(st), ldiv.VerifyOptions{L: l})
		if err != nil {
			t.Fatal(err)
		}
		ks := make(map[audit.ViolationKind]bool)
		for _, v := range rep.Violations {
			ks[v.Kind] = true
		}
		return ks, rep
	}
	if _, rep := verify(t, qit, st); !rep.OK {
		t.Fatalf("clean anatomy release failed its audit: %+v", rep.Violations)
	}

	t.Run("widen a count", func(t *testing.T) {
		mutated := bytes.Replace(st, []byte(",1\n"), []byte(",2\n"), 1)
		if bytes.Equal(mutated, st) {
			t.Fatal("no count to widen; adjust the sample")
		}
		ks, rep := verify(t, qit, mutated)
		if rep.OK || !ks[audit.ViolationSTMismatch] {
			t.Fatalf("widened count not caught as st_mismatch: %+v", rep.Violations)
		}
	})

	t.Run("drop a QIT row", func(t *testing.T) {
		header, data := splitRelease(qit)
		ks, rep := verify(t, joinRelease(header, data[:len(data)-1]), st)
		if rep.OK || !ks[audit.ViolationRowCount] {
			t.Fatalf("dropped QIT row not caught as row_count: %+v", rep.Violations)
		}
	})

	t.Run("move a tuple across buckets", func(t *testing.T) {
		// Re-point QIT row 0 at the last row's group: both buckets' sensitive
		// multisets stop matching the originals they cover.
		header, data := splitRelease(qit)
		_, gidLast := splitLast(data[len(data)-1])
		q0, gid0 := splitLast(data[0])
		if gid0 == gidLast {
			t.Fatal("sample buckets degenerate; adjust the sample")
		}
		mutated := append([]string(nil), data...)
		mutated[0] = q0 + "," + gidLast
		ks, rep := verify(t, joinRelease(header, mutated), st)
		if rep.OK || (!ks[audit.ViolationSAMismatch] && !ks[audit.ViolationSTMismatch]) {
			t.Fatalf("bucket move not caught: %+v", rep.Violations)
		}
	})
}

// splitLast splits a CSV line at its last comma.
func splitLast(line string) (prefix, last string) {
	i := strings.LastIndex(line, ",")
	return line[:i], line[i+1:]
}
