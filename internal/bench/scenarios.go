package bench

import (
	"fmt"
	"io"

	"github.com/zeroloss/zlb/internal/scenario"
)

// RunScenarios runs every registered scenario campaign
// (internal/scenario) at each committee size. Results are ordered by
// committee size, then registration order — the deterministic layout the
// goldens in determinism_test.go and `zlb-bench -experiment scenarios`
// rely on.
func RunScenarios(ns []int, seed int64) ([]*scenario.Result, error) {
	var out []*scenario.Result
	for _, n := range ns {
		for _, name := range scenario.Names() {
			s, err := scenario.Build(name, n, seed)
			if err != nil {
				return nil, err
			}
			res, err := scenario.Run(s)
			if err != nil {
				return nil, fmt.Errorf("scenario %s n=%d: %w", name, n, err)
			}
			res.Cluster = nil // the report keeps the metrics, not every replica behind them
			out = append(out, res)
		}
	}
	return out, nil
}

// PrintScenarios writes each campaign's per-phase metrics table.
func PrintScenarios(w io.Writer, results []*scenario.Result) {
	fmt.Fprintln(w, "# Staged scenarios: per-phase metrics of the fault campaigns")
	for _, r := range results {
		fmt.Fprintln(w)
		if r.Description != "" {
			fmt.Fprintf(w, "## %s — %s\n", r.Scenario, r.Description)
		}
		fmt.Fprint(w, r.Format())
	}
}
