// Command census compares the three suppression algorithms of the paper's
// evaluation (Hilbert, TP, TP+) on synthetic SAL and OCC census data — a
// miniature of Figure 2. It reports stars, suppressed tuples and running time
// for a sweep of the diversity parameter l.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ldiv"
)

func main() {
	rows := flag.Int("rows", 30000, "number of tuples to generate")
	seed := flag.Int64("seed", 1, "generator seed")
	flag.Parse()

	for _, ds := range []string{"SAL", "OCC"} {
		var base *ldiv.Table
		var err error
		if ds == "SAL" {
			base, err = ldiv.GenerateDataset("sal", *rows, *seed)
		} else {
			base, err = ldiv.GenerateDataset("occ", *rows, *seed)
		}
		if err != nil {
			log.Fatal(err)
		}
		t, err := base.ProjectNames([]string{"Age", "Race", "Education", "Work Class"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s-4: %d tuples, sensitive attribute %q ==\n", ds, t.Len(), t.Schema().SA().Name())
		fmt.Printf("%4s %12s %12s %12s %12s\n", "l", "algorithm", "stars", "suppressed", "time")
		for _, l := range []int{2, 4, 6, 8, 10} {
			for _, algo := range []string{"Hilbert", "TP", "TP+"} {
				start := time.Now()
				var p *ldiv.Partition
				switch algo {
				case "Hilbert":
					p, err = ldiv.Hilbert(t, l)
				case "TP":
					var res *ldiv.Result
					res, err = ldiv.TP(t, l)
					if err == nil {
						p = res.Partition()
					}
				case "TP+":
					var res *ldiv.Result
					res, err = ldiv.TPPlus(t, l)
					if err == nil {
						p = res.Partition()
					}
				}
				if err != nil {
					log.Fatal(err)
				}
				elapsed := time.Since(start)
				gen, err := ldiv.Suppress(t, p)
				if err != nil {
					log.Fatal(err)
				}
				if !ldiv.IsLDiverse(t, p, l) {
					log.Fatalf("%s output is not %d-diverse", algo, l)
				}
				fmt.Printf("%4d %12s %12d %12d %12s\n", l, algo, gen.Stars(), gen.SuppressedTuples(), elapsed.Round(time.Millisecond))
			}
		}
		fmt.Println()
	}
	fmt.Println("Expected shape (as in the paper): TP+ <= TP and TP+ <= Hilbert for every l;")
	fmt.Println("all algorithms lose more information as l grows.")
}
