// Command medical walks through the paper's motivating example (Section 1):
// the hospital microdata of Table 1, the linking attack, the homogeneity
// problem of k-anonymity (Table 2), and the 2-diverse suppression that TP
// computes (which matches Table 3 exactly on this input).
package main

import (
	"fmt"
	"log"

	"ldiv"
)

func buildTable1() (*ldiv.Table, error) {
	schema, err := ldiv.NewSchema(
		[]*ldiv.Attribute{ldiv.NewAttribute("Age"), ldiv.NewAttribute("Gender"), ldiv.NewAttribute("Education")},
		ldiv.NewAttribute("Disease"))
	if err != nil {
		return nil, err
	}
	tb := ldiv.NewTableBuilder(schema)
	rows := []struct {
		name string
		qi   [3]string
		sa   string
	}{
		{"Adam", [3]string{"<30", "M", "Master"}, "HIV"},
		{"Bob", [3]string{"<30", "M", "Master"}, "HIV"},
		{"Calvin", [3]string{"<30", "M", "Bachelor"}, "pneumonia"},
		{"Danny", [3]string{"[30,50)", "M", "Bachelor"}, "bronchitis"},
		{"Eva", [3]string{"[30,50)", "F", "Bachelor"}, "pneumonia"},
		{"Fiona", [3]string{"[30,50)", "F", "Bachelor"}, "bronchitis"},
		{"Ginny", [3]string{"[30,50)", "F", "Bachelor"}, "bronchitis"},
		{"Helen", [3]string{"[30,50)", "F", "Bachelor"}, "pneumonia"},
		{"Ivy", [3]string{">=50", "F", "HighSch"}, "dyspepsia"},
		{"Jane", [3]string{">=50", "F", "HighSch"}, "pneumonia"},
	}
	for _, r := range rows {
		if err := tb.AppendLabels(r.qi[:], r.sa); err != nil {
			return nil, err
		}
	}
	return tb.Build(), nil
}

func main() {
	t, err := buildTable1()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Table 1: the microdata ===")
	fmt.Println(t)

	// The linking attack: an adversary knowing Calvin's QI values finds his
	// tuple uniquely in the raw table.
	fmt.Println("Adversary knows Calvin is (<30, M, Bachelor):")
	for i := 0; i < t.Len(); i++ {
		if t.QILabel(i, 0) == "<30" && t.QILabel(i, 1) == "M" && t.QILabel(i, 2) == "Bachelor" {
			fmt.Printf("  -> unique match, Calvin has %s\n\n", t.SALabel(i))
		}
	}

	// Table 2: a 2-anonymous partition. It resists the linking attack but
	// suffers from homogeneity: Adam and Bob's group is all-HIV.
	twoAnon, err := ldiv.Suppress(t, ldiv.NewPartition([][]int{{0, 1}, {2, 3}, {4, 5, 6, 7}, {8, 9}}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Table 2: 2-anonymous publication (homogeneity problem) ===")
	fmt.Print(twoAnon)
	fmt.Println("Group {Adam, Bob} is homogeneous: the adversary learns both have HIV.")
	fmt.Println()

	// TP with l = 2 computes a 2-diverse suppression; on this input it lands
	// exactly on Table 3 of the paper (8 stars, 4 suppressed tuples).
	res, err := ldiv.TP(t, 2)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := res.Generalize(t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Table 3: 2-diverse publication computed by TP ===")
	fmt.Print(gen)
	fmt.Printf("stars: %d, suppressed tuples: %d, terminated in phase %d\n",
		gen.Stars(), gen.SuppressedTuples(), res.TerminationPhase)
	fmt.Println("In every QI-group at most half of the tuples share a disease,")
	fmt.Println("so no adversary can infer any patient's disease with confidence above 50%.")
}
