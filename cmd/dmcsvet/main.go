// Command dmcsvet runs the dmcs static-analysis suite (internal/analysis)
// over the module, like staticcheck:
//
//	dmcsvet ./...
//
// It loads the matched packages (plus in-module deps) once — the suite's
// analyzers are whole-program: hotpath reachability and epoch-key
// obligations cross package boundaries — and prints every finding.
//
// Exit status: 0 clean, 1 operational error, 2 findings.
package main

import (
	"fmt"
	"os"

	"dmcs/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run loads patterns (default ./...) rooted at the working directory and
// prints all findings.
func run(patterns []string) int {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmcsvet: %v\n", err)
		return 1
	}
	prog, err := analysis.LoadPackages(wd, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmcsvet: %v\n", err)
		return 1
	}
	diags, err := prog.Run(analysis.All()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dmcsvet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
