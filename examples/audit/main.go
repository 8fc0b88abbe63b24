// Command audit evaluates a publication from both sides of the
// privacy/utility trade-off: it anonymizes a census sample at several levels
// of protection (raw, 4-anonymous-style suppression, 4-diverse TP+, anatomy),
// measures the linking adversary's inference confidence against each
// publication, and measures analytical utility with a random count-query
// workload.
package main

import (
	"fmt"
	"log"

	"ldiv"
)

func main() {
	base, err := ldiv.GenerateDataset("sal", 20000, 5)
	if err != nil {
		log.Fatal(err)
	}
	t, err := base.ProjectNames([]string{"Age", "Gender", "Education", "Work Class"})
	if err != nil {
		log.Fatal(err)
	}
	const l = 4

	workload, err := ldiv.RandomWorkload(t, 60, 2, 0.25, 11)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-22s %14s %14s %14s %14s\n", "publication", "max conf.", "breach>1/l", "disclosed", "mean rel.err")

	report := func(name string, gen *ldiv.Generalized) {
		rep, err := ldiv.AuditLinkingAttack(gen)
		if err != nil {
			log.Fatal(err)
		}
		ev, err := ldiv.EvaluateWorkload(gen, workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %14.3f %14.4f %14d %14.3f\n",
			name, rep.MaxConfidence, rep.BreachProbability(l), rep.Disclosed, ev.MeanRelativeError)
	}

	// 1. Raw publication: identity partition, no protection.
	identity := make([][]int, t.Len())
	for i := range identity {
		identity[i] = []int{i}
	}
	rawGen, err := ldiv.Suppress(t, ldiv.NewPartition(identity))
	if err != nil {
		log.Fatal(err)
	}
	report("raw (no anonymity)", rawGen)

	// 2. l-diverse suppression with TP+.
	res, err := ldiv.TPPlus(t, l)
	if err != nil {
		log.Fatal(err)
	}
	tppGen, err := res.Generalize(t)
	if err != nil {
		log.Fatal(err)
	}
	report(fmt.Sprintf("TP+ (%d-diverse)", l), tppGen)

	// 3. Hilbert l-diverse suppression.
	hp, err := ldiv.Hilbert(t, l)
	if err != nil {
		log.Fatal(err)
	}
	hGen, err := ldiv.Suppress(t, hp)
	if err != nil {
		log.Fatal(err)
	}
	report(fmt.Sprintf("Hilbert (%d-diverse)", l), hGen)

	// 4. Anatomy: exact QI values, separate sensitive table. Its privacy
	//    matches l-diversity. For the utility column we evaluate the workload
	//    on the multi-dimensional view of its buckets, which is a
	//    conservative approximation (the real anatomy publication keeps QI
	//    values exact and is only ambiguous about which sensitive value in a
	//    bucket belongs to which tuple).
	an, err := ldiv.Anatomize(t, l)
	if err != nil {
		log.Fatal(err)
	}
	anGen, err := ldiv.MultiDimensional(t, ldiv.NewPartition(an.Groups))
	if err != nil {
		log.Fatal(err)
	}
	report(fmt.Sprintf("anatomy (%d buckets)", len(an.Groups)), anGen)

	fmt.Println()
	fmt.Println("Reading the table: the raw publication answers queries exactly but discloses")
	fmt.Printf("sensitive values outright; every %d-diverse publication caps the adversary's\n", l)
	fmt.Printf("confidence at %.2f, and TP+ retains more query utility than the Hilbert\n", 1.0/float64(l))
	fmt.Println("suppression baseline. Anatomy offers the same privacy in a two-table format")
	fmt.Println("that keeps QI values exact (the column above is a conservative estimate).")
}
