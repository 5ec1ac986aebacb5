package chaos_test

import (
	"testing"

	"github.com/zeroloss/zlb/internal/scenario"
)

// meshCampaigns are the fault sequences the mesh exists to run: scenario
// registrations that a real-TCP cluster behind a Net must accept.
var meshCampaigns = []string{
	"partition-then-heal",
	"flapping-peer",
	"slow-reader-starvation",
	"restart-storm",
}

// TestCampaignRegistry checks that every campaign the mesh runs is a
// scenario registration that builds at the mesh's committee sizes (5 and
// 9) with a description and at least two phases, and that none of them
// asks for a fault, coalition or workload only the simulator can apply.
func TestCampaignRegistry(t *testing.T) {
	registered := make(map[string]bool)
	for _, name := range scenario.Names() {
		registered[name] = true
	}
	for _, name := range meshCampaigns {
		if !registered[name] {
			t.Errorf("campaign %s is not registered", name)
			continue
		}
		for _, n := range []int{5, 9} {
			s, err := scenario.Build(name, n, 29)
			if err != nil {
				t.Fatal(err)
			}
			if s.Description == "" || len(s.Phases) < 2 {
				t.Errorf("campaign %s at n=%d: description %q, %d phases", name, n, s.Description, len(s.Phases))
			}
			if err := scenario.Refusal(s); err != nil {
				t.Errorf("campaign %s at n=%d is refused off the simulator: %v", name, n, err)
			}
		}
	}
	if _, err := scenario.Build("no-such-campaign", 5, 29); err == nil {
		t.Error("Build accepted an unknown campaign")
	}
}
