// Command zlb-bench regenerates the paper's tables and figures on the
// simulated substrate and prints them in the paper's layout. Without
// flags it runs a reduced sweep of every experiment; use -experiment and
// -full to control scope.
//
//	zlb-bench -experiment fig3 -full     # Figure 3 at paper scale (10..90)
//	zlb-bench -experiment fig4top       # binary consensus attack sweep
//	zlb-bench -experiment fig4bottom    # reliable broadcast attack sweep
//	zlb-bench -experiment catastrophic  # §5.3 5s/10s delays
//	zlb-bench -experiment table1        # block merge times
//	zlb-bench -experiment fig5          # detect/exclude/include times
//	zlb-bench -experiment catchup       # Fig. 5 right: catch-up times
//	zlb-bench -experiment fig6          # minimum finalization blockdepth
//	zlb-bench -experiment appendixB     # §B worked analysis
//	zlb-bench -experiment scenarios     # staged multi-phase fault campaigns
//	zlb-bench -experiment conformance   # message-level Byzantine campaigns, n=9
//	zlb-bench -experiment load          # open-loop latency-percentile campaigns
//
// Both campaign experiments check the paper's four invariants on every
// run and exit non-zero on any violation.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/bench"
	"github.com/zeroloss/zlb/internal/conformance"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run (fig3, fig4top, fig4bottom, catastrophic, table1, fig5, catchup, fig6, appendixB, scenarios, conformance, load, all)")
	full := flag.Bool("full", false, "paper-scale sweeps (slower)")
	seed := flag.Int64("seed", 42, "simulation seed")
	jsonDir := flag.String("json", "", "also emit machine-readable BENCH_<experiment>.json files into this directory")
	nsFlag := flag.String("ns", "", "fig3 only: comma-separated committee sizes overriding the default sweep")
	traceOut := flag.String("trace-out", "", "fig3 only: write the deterministic consensus trace (JSONL, one run header per point) to this file; analyze with tools/tracelat")
	flag.Parse()

	start := time.Now()
	if err := run(*experiment, *full, *seed, *jsonDir, *nsFlag, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "zlb-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "\n[%v elapsed]\n", time.Since(start).Round(time.Millisecond))
}

func run(experiment string, full bool, seed int64, jsonDir string, nsFlag, traceOut string) error {
	// emit mirrors an experiment's points into BENCH_<name>.json when
	// -json is set, so the perf trajectory is tracked across PRs.
	emit := func(name string, data any) error {
		if jsonDir == "" {
			return nil
		}
		return bench.WriteJSON(jsonDir, name, seed, full, data)
	}
	ns := []int{10, 20, 30}
	nsAttack := []int{9, 18, 27}
	delays := smallDelays()
	if full {
		ns = []int{10, 20, 30, 40, 50, 60, 70, 80, 90}
		nsAttack = []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
		delays = bench.StandardDelays()
	}

	all := experiment == "all"
	ran := false
	// violations counts the campaigns' failed invariants; any fails the run
	// once every requested experiment has printed.
	violations := 0

	if all || experiment == "fig3" {
		ran = true
		if nsFlag != "" {
			ns = nil
			for _, part := range strings.Split(nsFlag, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return fmt.Errorf("bad -ns entry %q: %w", part, err)
				}
				ns = append(ns, v)
			}
		}
		cfg := bench.Fig3Config{Ns: ns, Instances: 3, Seed: seed}
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return fmt.Errorf("trace-out: %w", err)
			}
			defer f.Close()
			w := bufio.NewWriter(f)
			defer w.Flush()
			cfg.TraceSink = w
		}
		points, err := bench.RunFig3(cfg)
		if err != nil {
			return err
		}
		bench.PrintFig3(os.Stdout, points)
		if err := emit("fig3", points); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "fig4top" {
		ran = true
		points, err := bench.RunFig4(bench.Fig4Config{
			Ns: nsAttack, Delays: delays, Attack: adversary.AttackBinary, Seed: seed, Instances: 4,
		})
		if err != nil {
			return err
		}
		bench.PrintFig4(os.Stdout, points)
		if err := emit("fig4top", points); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "fig4bottom" {
		ran = true
		points, err := bench.RunFig4(bench.Fig4Config{
			Ns: nsAttack, Delays: delays, Attack: adversary.AttackRBCast, Seed: seed, Instances: 4,
		})
		if err != nil {
			return err
		}
		bench.PrintFig4(os.Stdout, points)
		if err := emit("fig4bottom", points); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "catastrophic" {
		ran = true
		n := 27
		if full {
			n = 100
		}
		points, err := bench.Catastrophic(n, seed)
		if err != nil {
			return err
		}
		fmt.Printf("# §5.3: catastrophic partition delays, n=%d\n", n)
		bench.PrintFig4(os.Stdout, points)
		if err := emit("catastrophic", points); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "table1" {
		ran = true
		rows, err := bench.RunTable1([]int{100, 1000, 10000})
		if err != nil {
			return err
		}
		bench.PrintTable1(os.Stdout, rows)
		if err := emit("table1", rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "fig5" {
		ran = true
		ns5 := []int{9, 18}
		if full {
			ns5 = []int{20, 60, 100}
		}
		points, err := bench.RunFig5(ns5, delays, seed)
		if err != nil {
			return err
		}
		bench.PrintFig5(os.Stdout, points)
		if err := emit("fig5", points); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "catchup" {
		ran = true
		nsCatch := []int{9, 18}
		blocks := []int{5, 10}
		if full {
			nsCatch = []int{20, 40, 60, 80, 100}
			blocks = []int{10, 20, 30}
		}
		points, err := bench.RunCatchup(nsCatch, blocks, seed)
		if err != nil {
			return err
		}
		bench.PrintCatchup(os.Stdout, points)
		if err := emit("catchup", points); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "fig6" {
		ran = true
		d500, _ := bench.DelayByName("500ms")
		d1000, _ := bench.DelayByName("1000ms")
		nsFig6 := nsAttack
		points, err := bench.RunFig6(nsFig6, []bench.DelaySpec{d500, d1000},
			[]adversary.Attack{adversary.AttackBinary, adversary.AttackRBCast}, seed)
		if err != nil {
			return err
		}
		bench.PrintFig6(os.Stdout, points)
		if err := emit("fig6", points); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "appendixB" {
		ran = true
		rows := bench.RunAppendixB()
		bench.PrintAppendixB(os.Stdout, rows)
		if err := emit("appendixB", rows); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "scenarios" {
		ran = true
		nsScen := []int{9, 18}
		if full {
			nsScen = []int{9, 18, 27}
		}
		results, err := bench.RunScenarios(nsScen, seed)
		if err != nil {
			return err
		}
		bench.PrintScenarios(os.Stdout, results)
		if err := emit("scenarios", results); err != nil {
			return err
		}
		for _, r := range results {
			violations += len(r.Violations)
		}
		fmt.Println()
	}
	if all || experiment == "conformance" {
		ran = true
		fmt.Println("# Conformance: message-level Byzantine campaigns against the paper's four invariants, n=9")
		var results []conformance.Result
		for _, name := range conformance.Names() {
			res, err := conformance.Run(name, 9, seed)
			if err != nil {
				return err
			}
			fmt.Print(res.Format())
			results = append(results, res)
			violations += len(res.Violations)
		}
		if err := emit("conformance", results); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || experiment == "load" {
		ran = true
		nsLoad := []int{9}
		if full {
			nsLoad = []int{9, 18}
		}
		results, err := bench.RunLoadCampaigns(nsLoad, seed)
		if err != nil {
			return err
		}
		bench.PrintLoad(os.Stdout, results)
		if err := emit("load", results); err != nil {
			return err
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations", violations)
	}
	return nil
}

func smallDelays() []bench.DelaySpec {
	var out []bench.DelaySpec
	for _, name := range []string{"500ms", "1000ms", "gamma"} {
		d, err := bench.DelayByName(name)
		if err == nil {
			out = append(out, d)
		}
	}
	return out
}
