// Command fastttsbench regenerates the paper's evaluation figures from
// the simulated serving stack and prints (or writes) each as TSV.
//
// Usage:
//
//	fastttsbench -fig all                 # every figure, to stdout
//	fastttsbench -fig 12 -problems 12     # one figure, bigger sample
//	fastttsbench -fig 13 -out results/    # write results/fig13.tsv
//	fastttsbench -list                    # list figure IDs and scenarios
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fasttts"
	"fasttts/internal/bench"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure ID (e.g. 12, 17r) or 'all'")
		problems = flag.Int("problems", 0, "problems per dataset (0 = figure default)")
		seed     = flag.Uint64("seed", 42, "root random seed")
		maxN     = flag.Int("maxn", 512, "cap for beam-count sweeps")
		out      = flag.String("out", "", "directory to write fig<ID>.<format> files (default stdout)")
		format   = flag.String("format", "tsv", "output format: tsv or jsonl")
		list     = flag.Bool("list", false, "list available figures and scenarios, then exit")
	)
	flag.Parse()

	if *list {
		for _, f := range bench.All() {
			fmt.Printf("%-4s %s\n", f.ID, f.Title)
		}
		for _, f := range bench.Extensions() {
			fmt.Printf("%-4s %s (extension)\n", f.ID, f.Title)
		}
		for _, s := range fasttts.Scenarios() {
			fmt.Printf("%-12s %s (scenario)\n", s.Name, s.Description)
		}
		return
	}

	opts := bench.RunOpts{Problems: *problems, Seed: *seed, MaxN: *maxN}
	var figures []bench.Figure
	switch *fig {
	case "all":
		figures = bench.All()
	case "extensions":
		figures = bench.Extensions()
	default:
		for _, id := range strings.Split(*fig, ",") {
			f, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			figures = append(figures, f)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	render := func(rep *bench.Report) string {
		if *format == "jsonl" {
			return rep.JSONL()
		}
		return rep.TSV()
	}
	if *format != "tsv" && *format != "jsonl" {
		fatal(fmt.Errorf("unknown format %q", *format))
	}
	for _, f := range figures {
		start := time.Now()
		rep, err := f.Run(opts)
		if err != nil {
			fatal(fmt.Errorf("figure %s: %w", f.ID, err))
		}
		elapsed := time.Since(start).Round(time.Millisecond)
		if *out != "" {
			path := filepath.Join(*out, "fig"+f.ID+"."+*format)
			if err := os.WriteFile(path, []byte(render(rep)), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (%s)\n", path, elapsed)
		} else {
			fmt.Print(render(rep))
			fmt.Printf("# (generated in %s)\n\n", elapsed)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastttsbench:", err)
	os.Exit(1)
}
