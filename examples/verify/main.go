// Command verify demonstrates the release auditor: the paper's guarantee is
// a property of the published release, not of the in-process partition, so an
// untrusting consumer re-derives the equivalence groups from the release CSV
// alone and checks both privacy (l-diversity of every derived group) and
// fidelity (the release actually describes the original microdata). The
// walkthrough verifies a clean TP+ release, refutes two tampered variants,
// and audits anatomy's two-table release.
//
// The same verdicts are available from the command line
// (go run ./cmd/ldivaudit) and over HTTP (POST /v1/verify on ldivd) — all
// three produce byte-identical report JSON.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"

	"ldiv"
)

func main() {
	// A census sample, anonymized with TP+ at l = 4.
	base, err := ldiv.GenerateDataset("sal", 5000, 3)
	if err != nil {
		log.Fatal(err)
	}
	t, err := base.ProjectNames([]string{"Age", "Gender", "Education"})
	if err != nil {
		log.Fatal(err)
	}
	const l = 4
	gen, _, err := ldiv.AnonymizeWith(t, l, "tp+")
	if err != nil {
		log.Fatal(err)
	}
	var release bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&release, gen); err != nil {
		log.Fatal(err)
	}

	// 1. The clean release passes: privacy and fidelity both hold.
	report, err := ldiv.VerifyRelease(t, bytes.NewReader(release.Bytes()), ldiv.VerifyOptions{L: l})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean TP+ release:    ok=%v privacy=%v fidelity=%v groups=%d\n",
		report.OK, report.Privacy, report.Fidelity, report.Groups)

	// 2. Swap one sensitive value: the global histogram is unchanged, but
	// some group's published multiset no longer matches the rows it covers.
	tampered := strings.Replace(release.String(), t.SALabel(0), t.SALabel(1), 1)
	report, err = ldiv.VerifyRelease(t, strings.NewReader(tampered), ldiv.VerifyOptions{L: l})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("swapped SA value:     ok=%v, first violation: %s (%s)\n",
		report.OK, report.Violations[0].Kind, firstLine(report.Violations[0].Message))

	// 3. Drop a row: the release no longer covers the microdata.
	lines := strings.Split(strings.TrimSuffix(release.String(), "\n"), "\n")
	report, err = ldiv.VerifyRelease(t, strings.NewReader(strings.Join(lines[:len(lines)-1], "\n")+"\n"),
		ldiv.VerifyOptions{L: l})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dropped release row:  ok=%v, first violation: %s (%s)\n",
		report.OK, report.Violations[0].Kind, firstLine(report.Violations[0].Message))

	// 4. Anatomy's two-table release verifies through its own entry point,
	// joining the QIT and ST on the published GroupID.
	an, err := ldiv.Anatomize(t, l)
	if err != nil {
		log.Fatal(err)
	}
	var qit, st bytes.Buffer
	if err := ldiv.WriteAnatomyQITCSV(&qit, t, an); err != nil {
		log.Fatal(err)
	}
	if err := ldiv.WriteAnatomySTCSV(&st, t, an); err != nil {
		log.Fatal(err)
	}
	report, err = ldiv.VerifyAnatomyRelease(t, bytes.NewReader(qit.Bytes()), bytes.NewReader(st.Bytes()),
		ldiv.VerifyOptions{L: l})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("anatomy release:      ok=%v privacy=%v fidelity=%v buckets=%d\n",
		report.OK, report.Privacy, report.Fidelity, report.Groups)

	fmt.Println("\nsame verdict from the CLI:  go run ./cmd/ldivaudit -original orig.csv -release release.csv -qi Age,Gender,Education -sa Income -l 4")
	fmt.Println("same verdict over HTTP:     curl -F original=@orig.csv -F release=@release.csv 'http://localhost:8080/v1/verify?l=4&qi=Age,Gender,Education&sa=Income'")
}

// firstLine truncates a message for the walkthrough output.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 90 {
		s = s[:90] + "..."
	}
	return s
}
