// Command quickstart is the smallest end-to-end use of the library: generate
// a synthetic census table, anonymize it with TP+ so the published table is
// l-diverse, and report the information loss.
package main

import (
	"fmt"
	"log"
	"os"

	"ldiv"
)

func main() {
	const (
		rows = 20000
		l    = 4
	)
	// 1. Obtain microdata. Here we generate a synthetic SAL-like census
	//    table; real data can be loaded with ldiv.ReadCSV.
	base, err := ldiv.GenerateDataset("sal", rows, 1)
	if err != nil {
		log.Fatal(err)
	}
	// 2. Project onto the quasi-identifiers we intend to publish.
	t, err := base.ProjectNames([]string{"Age", "Gender", "Education", "Work Class"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("microdata: %d tuples, %d QI attributes, sensitive attribute %q\n",
		t.Len(), t.Dimensions(), t.Schema().SA().Name())
	fmt.Printf("largest feasible l: %d\n", ldiv.MaxEligibleL(t))

	// 3. Anonymize with TP+ (the paper's approximation algorithm followed by
	//    a Hilbert refinement of the residue set).
	res, err := ldiv.TPPlus(t, l)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := res.Generalize(t)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Inspect the outcome.
	fmt.Printf("l = %d: %d QI-groups kept intact, %d tuples suppressed, %d stars\n",
		l, len(res.KeptGroups), res.SuppressedTuples(), gen.Stars())
	fmt.Printf("terminated in phase %d (phase 1 = provably optimal tuple count)\n", res.TerminationPhase)
	kl, err := ldiv.KLDivergence(gen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("KL-divergence of the published table: %.4f\n", kl)
	if !ldiv.IsLDiverse(t, res.Partition(), l) {
		fmt.Fprintln(os.Stderr, "BUG: output is not l-diverse")
		os.Exit(1)
	}
	fmt.Println("published table satisfies", l, "-diversity")
}
