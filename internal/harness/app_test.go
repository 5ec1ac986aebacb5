package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/adversary"
	"github.com/zeroloss/zlb/internal/asmr"
	"github.com/zeroloss/zlb/internal/latency"
	"github.com/zeroloss/zlb/internal/sbc"
	"github.com/zeroloss/zlb/internal/simnet"
	"github.com/zeroloss/zlb/internal/types"
)

// recordingApp is an application that proposes its own batches and counts
// what its replica tells it. Only its replica's events touch it.
type recordingApp struct {
	c  **Cluster // the cluster it runs in, set once New has returned
	id types.ReplicaID
	r  *asmr.Replica

	proposed     map[uint64][]byte
	prevalidated int
	commits      int
	// unrecorded counts commits the harness had not yet entered in Commits
	// when the application was told.
	unrecorded        int
	merges            int
	started, closings int
}

func (a *recordingApp) Bind(cfg *asmr.Config) {
	cfg.BatchSource = func(k uint64) asmr.Batch {
		payload := []byte(fmt.Sprintf("recorded-batch-%v-%d", a.id, k))
		a.proposed[k] = payload
		return asmr.Batch{Payload: payload}
	}
	cfg.OnProposal = func([]byte) { a.prevalidated++ }
	cfg.OnCommit = func(k uint64, _ uint32, d *sbc.Decision) {
		a.commits++
		if rec := (*a.c).Commits[a.id][k]; rec == nil || rec.Decision != d {
			a.unrecorded++
		}
	}
	cfg.OnDisagreement = func(uint64, *sbc.Decision, *sbc.Decision) { a.merges++ }
}

func (a *recordingApp) Attach(r *asmr.Replica) { a.r = r }

func (a *recordingApp) Start() {
	a.started++
	a.r.Start()
}

func (a *recordingApp) Close() error {
	a.closings++
	return nil
}

// recordingCluster builds a cluster of recording applications and returns
// every application built, per replica in build order.
func recordingCluster(t *testing.T, opts Options) (*Cluster, map[types.ReplicaID][]*recordingApp) {
	t.Helper()
	var c *Cluster
	apps := make(map[types.ReplicaID][]*recordingApp)
	opts.App = func(id types.ReplicaID, _ simnet.Env) (Application, error) {
		app := &recordingApp{c: &c, id: id, proposed: make(map[uint64][]byte)}
		apps[id] = append(apps[id], app)
		return app, nil
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, apps
}

// TestApplicationBoundAtConstruction runs a reliable-broadcast attack over
// replicas built around a recording application: the application is the
// batch source and sees proposals, commits and fork merges; the harness's
// own commit record is made before the application hears of the commit;
// and what the coalition forks is the batch the application proposed.
func TestApplicationBoundAtConstruction(t *testing.T) {
	c, apps := recordingCluster(t, Options{
		N:              9,
		Deceitful:      4,
		Attack:         adversary.AttackRBCast,
		Accountable:    true,
		Recover:        true,
		MaxInstances:   6,
		BaseLatency:    latency.Uniform(2*time.Millisecond, 10*time.Millisecond),
		PartitionDelay: latency.UniformMean(3 * time.Second),
		CoordTimeout:   fastCoordTimeout,
		Seed:           4,
	})
	c.Start()
	c.RunUntilQuiet(30 * time.Minute)
	if c.Disagreements() == 0 {
		t.Fatal("rbcast attack produced no disagreement")
	}

	merges := 0
	for _, id := range c.HonestMembers() {
		a := apps[id][0]
		if len(a.proposed) == 0 || a.prevalidated == 0 || a.commits == 0 {
			t.Errorf("replica %v: application proposed %d batches, saw %d proposals and %d commits", id, len(a.proposed), a.prevalidated, a.commits)
		}
		if a.commits != len(c.Commits[id]) || a.unrecorded != 0 {
			t.Errorf("replica %v: application saw %d commits, %d of them before the harness recorded them; the harness recorded %d",
				id, a.commits, a.unrecorded, len(c.Commits[id]))
		}
		merges += a.merges
	}
	if merges == 0 {
		t.Error("no honest application was handed a fork to merge")
	}

	// Every deceitful proposal an honest replica committed is the batch the
	// proposer's application returned with a partition tag appended, and
	// some slot committed under two tags: the coalition forked that batch.
	type slotOf struct {
		k    uint64
		slot types.ReplicaID
	}
	tags := make(map[slotOf]map[byte]bool)
	for _, id := range c.HonestMembers() {
		for k, commit := range c.Commits[id] {
			for slot, p := range commit.Decision.Proposals {
				if !c.Coalition.IsDeceitful(slot) {
					continue
				}
				base := apps[slot][0].proposed[k]
				if len(p.Payload) != len(base)+1 || !bytes.HasPrefix(p.Payload, base) {
					t.Fatalf("replica %v committed %q in slot %v of instance %d, want a variant of the proposed %q", id, p.Payload, slot, k, base)
				}
				at := slotOf{k, slot}
				if tags[at] == nil {
					tags[at] = make(map[byte]bool)
				}
				tags[at][p.Payload[len(base)]] = true
			}
		}
	}
	forked := 0
	for _, seen := range tags {
		if len(seen) > 1 {
			forked++
		}
	}
	if forked == 0 {
		t.Errorf("no deceitful slot committed as two variants of its application's batch (%d slots committed)", len(tags))
	}
}

// TestRestartBuildsApplicationAgain crashes and restarts a replica built
// around an application: the crash closes the application, the restart
// builds a new one through the same factory and starts it.
func TestRestartBuildsApplicationAgain(t *testing.T) {
	c, apps := recordingCluster(t, Options{
		N:            4,
		Accountable:  true,
		Recover:      true,
		MaxInstances: 6,
		BaseLatency:  latency.Uniform(2*time.Millisecond, 10*time.Millisecond),
		CoordTimeout: fastCoordTimeout,
		Seed:         9,
	})
	victim := c.Members[3]
	c.ExcludeFromMetrics(victim)
	c.Start()
	c.Run(200 * time.Millisecond)
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	c.RunUntilQuiet(10 * time.Minute)

	built := apps[victim]
	if len(built) != 2 {
		t.Fatalf("%d applications built for the victim, want one per incarnation", len(built))
	}
	if old, fresh := built[0], built[1]; old.closings != 1 || old.started != 1 || fresh.started != 1 || fresh.r != c.Replicas[victim] || fresh.commits == 0 {
		t.Errorf("old application: started %d closed %d; new one: started %d, attached to the live replica %v, %d commits",
			old.started, old.closings, fresh.started, fresh.r == c.Replicas[victim], fresh.commits)
	}
	for _, id := range c.Members[:3] {
		if len(apps[id]) != 1 {
			t.Errorf("replica %v was built %d times", id, len(apps[id]))
		}
	}
}
