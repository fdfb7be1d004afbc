// Command experiments runs the figure reproductions (F1–F3) and
// constructed experiments (E1–E21) from DESIGN.md and prints their
// tables.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E3    # run one experiment
//	experiments -list      # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only = fs.String("run", "", "run a single experiment by ID (e.g. E3)")
		list = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(out, "%-4s %s\n", r.ID, r.Title)
		}
		return nil
	}

	runners := experiments.All()
	if *only != "" {
		r, err := experiments.ByID(*only)
		if err != nil {
			return err
		}
		runners = []experiments.Runner{r}
	}
	for _, r := range runners {
		result, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintln(out, result.Table())
	}
	return nil
}
