// Command benchfig regenerates the paper's evaluation tables and figures
// (Figures 2-11, Table 6) over the simulated substrates, plus the repo's
// own ablations and the raw-speed "scale" experiment the CI regression
// gate watches.
//
// Usage:
//
//	benchfig -all                 # every experiment at quick scale
//	benchfig -exp fig4            # one experiment
//	benchfig -exp scale,stream    # several, comma-separated
//	benchfig -exp fig5 -scale paper
//	benchfig -list                # available experiment ids
//
//	benchfig -exp scale,stream -json report.json
//	benchfig -exp scale,stream -baseline BENCH_baseline.json -tolerance 0.2
//
// The quick scale (default) shrinks cardinalities so the suite finishes in
// seconds while preserving the experimental shapes; the paper scale
// matches §7's dataset sizes (the scale experiment's build sweep reaches
// 1,000,000 objects there) and takes much longer.
//
// -json writes the run's machine-readable metrics as a bench.Report.
// -baseline compares the run against a committed report with a relative
// tolerance band and the absolute floors recorded in the baseline; any
// regression, any metric below its floor, and any experiment error exits
// non-zero — that is the CI gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bayescrowd/internal/bench"
)

func main() {
	var (
		expFlag   = flag.String("exp", "", "experiment id(s) to run, comma-separated (see -list)")
		scaleFlag = flag.String("scale", "quick", `experiment scale: "quick" or "paper"`)
		allFlag   = flag.Bool("all", false, "run every experiment")
		listFlag  = flag.Bool("list", false, "list experiment ids and exit")
		jsonFlag  = flag.String("json", "", "write the run's metrics as a JSON report to this file")
		baseFlag  = flag.String("baseline", "", "compare the run's metrics against this committed report; regressions exit non-zero")
		tolFlag   = flag.Float64("tolerance", 0.20, "relative tolerance band for -baseline (0.20 = fail below 80% of baseline)")
		maxNFlag  = flag.Int("maxn", 0, "cap the scale experiment's build-sweep cardinalities (0 = no cap)")
	)
	flag.Parse()

	if *listFlag {
		for _, name := range bench.Names() {
			fmt.Printf("%-14s %s\n", name, bench.Descriptions[name])
		}
		return
	}

	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.Quick()
	case "paper":
		scale = bench.Paper()
	default:
		fmt.Fprintf(os.Stderr, "benchfig: unknown scale %q (want quick or paper)\n", *scaleFlag)
		os.Exit(2)
	}
	if *maxNFlag > 0 {
		var ns []int
		for _, n := range scale.ScaleNs {
			if n <= *maxNFlag {
				ns = append(ns, n)
			}
		}
		scale.ScaleNs = ns
	}

	var names []string
	switch {
	case *allFlag:
		names = bench.Names()
	case *expFlag != "":
		for _, n := range strings.Split(*expFlag, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "benchfig: pass -all, -exp <id>[,<id>...], or -list")
		os.Exit(2)
	}

	report := bench.NewReport(scale.Name)
	for _, name := range names {
		tables, err := bench.RunTables(name, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("# %s (scale=%s)\n\n", name, scale.Name)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		report.Add(name, tables)
	}

	if *jsonFlag != "" {
		data, err := report.MarshalIndent()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*jsonFlag, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(2)
		}
	}

	if *baseFlag != "" {
		data, err := os.ReadFile(*baseFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(2)
		}
		base, err := bench.ParseReport(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
			os.Exit(2)
		}
		problems := bench.Compare(report, base, *tolFlag)
		if len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "benchfig: %d regression(s) vs %s:\n", len(problems), *baseFlag)
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "  %s\n", p)
			}
			os.Exit(1)
		}
		fmt.Printf("regression gate: %d baseline metric(s) checked against %s, all within tolerance\n",
			len(base.Metrics), *baseFlag)
	}
}
