// Command ldivlint runs the repository's custom analyzer suite — detrange,
// viewsafety, narrowconv, poolcheck, and directive — over the given package
// patterns (default ./...). It is the multichecker for internal/lint: each
// analyzer machine-enforces one architectural invariant (deterministic
// output, read-only table storage, saturating count narrowing, queue
// hygiene, and justified suppressions; see `ldivlint -doc` or
// docs/ARCHITECTURE.md).
//
// Exit status: 0 when the tree is clean, 3 when diagnostics were reported
// (the go/analysis multichecker convention), 1 when loading or analysis
// itself failed, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ldiv/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ldivlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	doc := fs.Bool("doc", false, "print each analyzer's documentation and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ldivlint [-doc] [packages]\n\nRuns the ldiv analyzer suite over the given package patterns (default ./...).\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *doc {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%s\n\n", a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := lint.RunSuite(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "ldivlint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		return 3
	}
	return 0
}
