package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// traceOverhead is how much worse the traced run's commit_p50_ms is than
// the untraced run's, same workload and seed. It takes both runs, so only
// the all-workloads report has it; the -trace 1 result line does not.
var traceOverhead = metricDef{Name: "trace.commit_p50_overhead_pct", Unit: "%", Better: "lower"}

// workloadReport is one workload's part of the all-workloads report.
type workloadReport struct {
	Why         string             `json:"why"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	FailedShare float64            `json:"failed_share"`
	// Traced holds the end-to-end metrics of the traced run, to set beside
	// EndToEnd.
	Traced   map[string]float64 `json:"traced"`
	PerLayer map[string]float64 `json:"per_layer"`
}

// pick returns the values of the named metrics that were measured.
func pick(defs []metricDef, values map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		if v, ok := values[d.Name]; ok {
			out[d.Name] = v
		}
	}
	return out
}

// runAll runs every workload untraced and then traced, prints a table
// per workload and, as the last line, everything as one JSON object.
func (b *bench) runAll(ctx context.Context) error {
	units := make(map[string]string)
	layerDefs := append(slices.Clone(perLayer), traceOverhead)
	for _, d := range append(slices.Clone(endToEnd), layerDefs...) {
		units[d.Name] = d.Unit
	}
	report := struct {
		Units     map[string]string         `json:"units"`
		Workloads map[string]workloadReport `json:"workloads"`
	}{units, make(map[string]workloadReport)}
	for _, wl := range workloads {
		e2e, err := b.runUntraced(ctx, wl)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		layers, err := b.runTraced(ctx, wl)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", wl.Name, err)
		}
		const p50 = "commit_p50_ms"
		layers.Metrics[traceOverhead.Name] = 100 * (layers.Metrics[p50] - e2e.Metrics[p50]) / e2e.Metrics[p50]
		failedShare := float64(e2e.Failed) / float64(e2e.Attempted)
		fmt.Printf("== %s ==\n%s\n", wl.Name, wl.Why)
		fmt.Printf("end-to-end%26s %14s %14s\n", "", "untraced run", "traced run")
		for _, d := range endToEnd {
			traced := "-" // a traced run sets up once and does not report it
			if v, ok := layers.Metrics[d.Name]; ok {
				traced = fmt.Sprintf("%.6g", v)
			}
			fmt.Printf("  %-34s %14.6g %14s %s\n", d.Name, e2e.Metrics[d.Name], traced, d.Unit)
		}
		fmt.Printf("  %-34s %14.6g %14.6g  (%d of %d, %d of %d operations)\n", "failed_share", failedShare,
			float64(layers.Failed)/float64(layers.Attempted), e2e.Failed, e2e.Attempted, layers.Failed, layers.Attempted)
		for _, n := range e2e.Notes {
			fmt.Printf("  note: %s\n", n)
		}
		fmt.Println("per-layer (traced run and in-process probes)")
		for _, d := range layerDefs {
			fmt.Printf("  %-34s %14.6g %s\n", d.Name, layers.Metrics[d.Name], d.Unit)
		}
		for _, n := range layers.Notes {
			fmt.Printf("  note: %s\n", n)
		}
		fmt.Println()
		report.Workloads[wl.Name] = workloadReport{wl.Why, e2e.Metrics, failedShare, pick(endToEnd, layers.Metrics), pick(layerDefs, layers.Metrics)}
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runCheck runs the four workloads twice back to back, the second time
// in reverse order, and compares the two values of every end-to-end
// metric against the metric's bound.
func (b *bench) runCheck(ctx context.Context) error {
	var sets [2]map[string]*outcome
	for i := range sets {
		sets[i] = make(map[string]*outcome)
		order := slices.Clone(workloads)
		if i == 1 {
			slices.Reverse(order)
		}
		for _, wl := range order {
			out, err := b.runUntraced(ctx, wl)
			if err != nil {
				return fmt.Errorf("%s (set %d): %w", wl.Name, i+1, err)
			}
			sets[i][wl.Name] = out
			fmt.Fprintf(os.Stderr, "set %d: %s done\n", i+1, wl.Name)
		}
	}
	exceeded := 0
	fmt.Printf("%-20s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			first, second := sets[0][wl.Name].Metrics[d.Name], sets[1][wl.Name].Metrics[d.Name]
			gap := math.Abs(second-first) / first
			verdict := ""
			if gap > d.Bound {
				verdict = "  EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %7.1f%% %6.0f%%%s\n", wl.Name, d.Name, first, second, 100*gap, 100*d.Bound, verdict)
		}
		for i := range sets {
			if f := sets[i][wl.Name].Failed; f > 0 {
				fmt.Printf("%-20s set %d: %d operations failed\n", wl.Name, i+1, f)
				exceeded++
			}
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("-check: %d comparisons outside their bounds", exceeded)
	}
	return nil
}
