package conformance

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/zeroloss/zlb/internal/scenario"
	"github.com/zeroloss/zlb/internal/types"
)

var updateGoldens = flag.Bool("update", false, "rewrite the conformance golden files under testdata/")

// goldenDir is the repo-level conformance fixture directory, next to the
// scenario goldens the corpora are seeded from.
func goldenDir() string {
	return filepath.Join("..", "..", "testdata", "conformance")
}

// TestCampaignGoldens is the deterministic driver the acceptance criteria
// pin: every registered campaign runs twice at n=9, seed 42 — the two
// runs must be bit-identical, all four invariants must hold, and the
// formatted result must match the golden under testdata/conformance/.
// Regenerate after an intended change with
// `go test ./internal/conformance -run TestCampaignGoldens -update`.
func TestCampaignGoldens(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() string {
				res, err := Run(name, 9, 42)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) > 0 {
					t.Fatalf("invariant violations:\n%s", res.Format())
				}
				return res.Format()
			}
			first, second := run(), run()
			if first != second {
				t.Fatalf("two fixed-seed runs differ:\n--- run 1\n%s--- run 2\n%s", first, second)
			}
			goldenPath := filepath.Join(goldenDir(), name+".golden")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(first), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if first != string(want) {
				t.Errorf("result diverged from golden:\n--- got\n%s--- want\n%s", first, want)
			}
		})
	}
}

// TestAttributableCampaignsProveCulprits pins the acceptance criterion
// directly: the equivocation and twins campaigns must prove at least
// ⌈n/3⌉ culprits, accuse nobody honest, and permanently exclude every
// culprit they prove.
func TestAttributableCampaignsProveCulprits(t *testing.T) {
	const n, seed = 9, 42
	fd := types.FaultThreshold(n)
	for _, name := range []string{"equivocation", "twins"} {
		res, err := Run(name, n, seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%s: invariant violations:\n%s", name, res.Format())
		}
		if len(res.Culprits) < fd {
			t.Errorf("%s: proved %d culprits, want ≥ %d", name, len(res.Culprits), fd)
		}
		corrupt := make(map[types.ReplicaID]bool)
		for _, id := range firstIDs(fd) {
			corrupt[id] = true
		}
		for _, id := range res.Culprits {
			if !corrupt[id] {
				t.Errorf("%s: honest replica %v accused", name, id)
			}
		}
		if len(res.Excluded) < fd {
			t.Errorf("%s: excluded %d replicas, want ≥ %d", name, len(res.Excluded), fd)
		}
	}
}

// TestUnattributableCampaignsAccuseNobody pins the flip side: campaigns
// whose interference is not attributable evidence — temporal displacement,
// forged signatures, mutated certificates, replay/reorder — must end with
// an empty proven set at every honest replica.
func TestUnattributableCampaignsAccuseNobody(t *testing.T) {
	for _, name := range []string{"stale-epoch", "cert-mutation", "replay-reorder"} {
		res, err := Run(name, 9, 42)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("%s: invariant violations:\n%s", name, res.Format())
		}
		if len(res.Culprits) != 0 {
			t.Errorf("%s: proved culprits %v from unattributable interference", name, res.Culprits)
		}
		if res.Disagreements != 0 {
			t.Errorf("%s: %d disagreements from unattributable interference", name, res.Disagreements)
		}
	}
}

// TestMergeCampaignExercisesAccountability pins that the merge campaign
// actually forces the disagreement path (invariant (b) is vacuous without
// one) and recovers: disagreements observed, ≥ ⌈n/3⌉ culprits proven,
// coalition excluded, honest committee converged.
func TestMergeCampaignExercisesAccountability(t *testing.T) {
	res, err := Run("merge-during-catchup", 9, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("invariant violations:\n%s", res.Format())
	}
	if res.Disagreements == 0 {
		t.Fatal("merge campaign produced no disagreement — invariant (b) never exercised")
	}
	if fd := types.FaultThreshold(9); len(res.Culprits) < fd {
		t.Errorf("proved %d culprits, want ≥ %d", len(res.Culprits), fd)
	}
	if !res.Converged {
		t.Error("honest committee did not converge after the merge")
	}
}

// TestMessageFaultsAreSimOnly pins that the message-level faults declare
// themselves simulator-only: a scenario holding the Injector or an
// atPhaseEnd replay, and nothing else, is refused on any other substrate.
func TestMessageFaultsAreSimOnly(t *testing.T) {
	for _, f := range []scenario.Fault{&Injector{}, atPhaseEnd(nil)} {
		if scenario.Refusal(scenario.Scenario{Phases: []scenario.Phase{{Faults: []scenario.Fault{f}}}}) == nil {
			t.Errorf("%T runs on a substrate other than the simulator", f)
		}
	}
}
