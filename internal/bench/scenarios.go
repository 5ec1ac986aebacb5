package bench

import (
	"fmt"
	"io"

	"github.com/zeroloss/zlb/internal/scenario"
)

// RunScenarios runs the named registered campaigns (internal/scenario)
// at each committee size. Results are ordered by committee size, then by
// the order of names — the deterministic layout the goldens in
// determinism_test.go and `zlb-bench -experiment scenarios|load` rely on.
func RunScenarios(names []string, ns []int, seed int64) ([]*scenario.Result, error) {
	var out []*scenario.Result
	for _, n := range ns {
		for _, name := range names {
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

// PrintScenarios writes the heading, then each campaign's table under
// its name and description. Consecutive runs of one campaign (a workload
// campaign and its baseline) share the campaign's header.
func PrintScenarios(w io.Writer, heading string, results []*scenario.Result) {
	fmt.Fprintln(w, heading)
	for i, r := range results {
		fmt.Fprintln(w)
		if r.Description != "" && (i == 0 || results[i-1].Scenario != r.Scenario) {
			fmt.Fprintf(w, "## %s — %s\n", r.Scenario, r.Description)
		}
		fmt.Fprint(w, r.Format())
	}
}
