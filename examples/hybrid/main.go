// Command hybrid demonstrates the two practical improvements of Section 5.6:
//
//  1. TP+ — refining the residue set R with a heuristic (Hilbert) partition
//     instead of publishing it as a single fully-suppressed QI-group, and
//  2. preprocessing — coarsening a large-domain QI attribute (Age) before
//     running TP, which trades star count against the precision of the
//     published non-star values.
package main

import (
	"fmt"
	"log"

	"ldiv"
)

func main() {
	base, err := ldiv.GenerateDataset("sal", 20000, 3)
	if err != nil {
		log.Fatal(err)
	}
	t, err := base.ProjectNames([]string{"Age", "Gender", "Marital Status", "Education"})
	if err != nil {
		log.Fatal(err)
	}
	const l = 6

	// Plain TP: the residue is one fully suppressed QI-group.
	tp, err := ldiv.TP(t, l)
	if err != nil {
		log.Fatal(err)
	}
	// TP+: same residue, but partitioned into small l-eligible groups.
	tpp, err := ldiv.TPPlus(t, l)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TP : %7d stars, %6d suppressed tuples, %4d residue groups\n",
		tp.Stars(t), tp.SuppressedTuples(), len(tp.ResidueGroups))
	fmt.Printf("TP+: %7d stars, %6d suppressed tuples, %4d residue groups\n",
		tpp.Stars(t), tpp.SuppressedTuples(), len(tpp.ResidueGroups))
	fmt.Println()

	// Preprocessing: coarsen Age into decades before grouping, then run TP on
	// the coarsened groups. Fewer distinct QI combinations means fewer tiny
	// QI-groups and hence fewer suppressed tuples, at the cost of publishing
	// decades instead of exact ages.
	ageCol := 0
	byKey := make(map[string][]int)
	for i := 0; i < t.Len(); i++ {
		decade := t.QIAt(i, ageCol) / 10
		key := fmt.Sprintf("%d|%d|%d|%d", decade, t.QIAt(i, 1), t.QIAt(i, 2), t.QIAt(i, 3))
		byKey[key] = append(byKey[key], i)
	}
	groups := make([][]int, 0, len(byKey))
	for _, g := range byKey {
		groups = append(groups, g)
	}
	coarse, err := ldiv.TPWithGroups(t, groups, l)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TP on exact ages      : %6d suppressed tuples\n", tp.SuppressedTuples())
	fmt.Printf("TP on coarsened decades: %6d suppressed tuples\n", coarse.SuppressedTuples())
	fmt.Println()
	fmt.Println("Coarsening the largest QI domain before running TP reduces the number of")
	fmt.Println("suppressed tuples; the publisher tunes this trade-off as described in Section 5.6.")

	for name, res := range map[string]*ldiv.Result{"TP": tp, "TP+": tpp, "coarsened TP": coarse} {
		if !ldiv.IsLDiverse(t, res.Partition(), l) {
			log.Fatalf("%s output is not %d-diverse", name, l)
		}
	}
}
