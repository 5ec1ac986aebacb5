package load

import (
	"fmt"
	"strings"
	"time"

	"github.com/zeroloss/zlb"
	"github.com/zeroloss/zlb/internal/mempool"
)

// Variant is one configuration of a campaign — typically the
// admission-controlled run and its no-admission baseline.
type Variant struct {
	Label  string
	Config Config
}

// Campaign is a named set of open-loop runs compared side by side.
type Campaign struct {
	Name        string
	Description string
	Variants    []Variant
}

// CampaignResult bundles the variant reports of one campaign.
type CampaignResult struct {
	Name        string    `json:"name"`
	Description string    `json:"description"`
	Reports     []*Report `json:"reports"`
}

// Format concatenates the variant reports — the byte layout the goldens
// in testdata/scenario_goldens pin.
func (cr *CampaignResult) Format() string {
	var b strings.Builder
	for i, r := range cr.Reports {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(r.Format())
	}
	return b.String()
}

// RunCampaign executes every variant in order.
func RunCampaign(c Campaign) (*CampaignResult, error) {
	res := &CampaignResult{Name: c.Name, Description: c.Description}
	for _, v := range c.Variants {
		rep, err := Run(v.Config)
		if err != nil {
			return nil, fmt.Errorf("load campaign %s[%s]: %w", c.Name, v.Label, err)
		}
		rep.Variant = v.Label
		res.Reports = append(res.Reports, rep)
	}
	return res, nil
}

// builder registers one campaign constructor.
type builder struct {
	name        string
	description string
	build       func(n int, seed int64) Campaign
}

// builders is the registration-ordered campaign list (like the scenario
// registry, order is part of the golden layout).
var builders = []builder{
	{
		name:        "sybil-spam-flood",
		description: "Sybil accounts flood the ingress at minimum fee while honest users keep paying; admission control must bound the honest tail",
		build:       sybilSpamFlood,
	},
	{
		name:        "fee-squeeze",
		description: "retail traffic over-subscribes a small pool while priority payers bid above it; fee-rate ordering must keep the priority tail flat",
		build:       feeSqueeze,
	},
	{
		name:        "partition-exhaustion",
		description: "a stalled partition fills the bounded pool; eviction sheds the low-fee backlog and the cluster recovers after healing",
		build:       partitionExhaustion,
	},
}

// Names returns the registered campaign names in registration order.
func Names() []string {
	out := make([]string, len(builders))
	for i, b := range builders {
		out[i] = b.name
	}
	return out
}

// BuildCampaign constructs a registered campaign for a committee size
// and seed.
func BuildCampaign(name string, n int, seed int64) (Campaign, error) {
	for _, b := range builders {
		if b.name == name {
			c := b.build(n, seed)
			c.Name = name
			c.Description = b.description
			return c, nil
		}
	}
	return Campaign{}, fmt.Errorf("load: unknown campaign %q (have %v)", name, Names())
}

// sybilAdmission is the policy the spam-flood campaign defends with:
// fee-rate ordering plus per-account caps and rate limits. Sybil
// accounts pay the floor fee, so honest transactions always outrank
// them, and no single Sybil account can hold more than a sliver of the
// pool.
func sybilAdmission() mempool.Policy {
	return mempool.Policy{
		MaxTxs:         1200,
		MaxPerAccount:  10,
		RatePerAccount: 15,
		RateWindow:     time.Second,
		MinFee:         1,
		ReplaceBumpPct: 10,
		PriorityOrder:  true,
	}
}

// sybilSpamFlood: honest users at a steady 30 tx/s while 30 Sybil
// accounts flood 600 tx/s at the minimum fee for six seconds. The
// admission variant and the no-admission baseline run the identical
// schedule; the acceptance criterion is the honest class's bounded p99
// under admission while the baseline tail degrades.
func sybilSpamFlood(n int, seed int64) Campaign {
	base := Config{
		Name: "sybil-spam-flood",
		N:    n,
		Seed: seed,
		Classes: []Class{
			{Name: "honest", Accounts: 6, Fee: 20},
			{Name: "sybil", Accounts: 30, Fee: 1},
		},
		Phases: []PhaseSpec{
			{Name: "warmup", Duration: 2 * time.Second, Rates: []float64{30, 0}},
			{Name: "flood", Duration: 6 * time.Second, Rates: []float64{30, 600}},
			{Name: "cooldown", Duration: 2 * time.Second, Rates: []float64{30, 0}},
		},
		// Small proposals (~340 tx/s of commit capacity at this committee
		// size: 8.6 blocks a second since an instance is one binary round)
		// put the 630 tx/s flood firmly past saturation: the baseline's
		// arrival-order backlog is what degrades the honest tail.
		BatchTxs: 40,
		Drain:    20 * time.Second,
	}
	admission := base
	admission.Policy = sybilAdmission()
	return Campaign{Variants: []Variant{
		{Label: "admission", Config: admission},
		{Label: "baseline", Config: base},
	}}
}

// feeSqueeze: a small bounded pool, retail traffic over-subscribing it
// at fee 2 while a few priority payers bid fee 40. Fee-rate ordering
// plus eviction keeps the priority class's tail flat at the retail
// class's expense.
func feeSqueeze(n int, seed int64) Campaign {
	cfg := Config{
		Name: "fee-squeeze",
		N:    n,
		Seed: seed,
		Classes: []Class{
			{Name: "retail", Accounts: 10, Fee: 2},
			{Name: "priority", Accounts: 4, Fee: 40},
		},
		Phases: []PhaseSpec{
			{Name: "calm", Duration: 2 * time.Second, Rates: []float64{40, 8}},
			{Name: "squeeze", Duration: 6 * time.Second, Rates: []float64{300, 40}},
			{Name: "settle", Duration: 2 * time.Second, Rates: []float64{40, 8}},
		},
		Policy: mempool.Policy{
			MaxTxs:         600,
			MinFee:         1,
			ReplaceBumpPct: 10,
			PriorityOrder:  true,
		},
		// ~220 tx/s of commit capacity (8.6 blocks a second) against 340
		// tx/s offered during the squeeze: the bounded pool must arbitrate
		// by fee rate.
		BatchTxs: 25,
		Drain:    20 * time.Second,
	}
	return Campaign{Variants: []Variant{{Label: "admission", Config: cfg}}}
}

// partitionExhaustion: steady mixed-fee traffic, then a partition stalls
// commits for four seconds while arrivals keep coming — the bounded pool
// fills, evicts the bulk class's low-fee backlog in favor of the vip
// class, and drains after the partition heals.
func partitionExhaustion(n int, seed int64) Campaign {
	half := n/2 + 1
	groups := [][]zlb.ReplicaID{{}, {}}
	for id := 1; id <= n; id++ {
		g := 0
		if id > half {
			g = 1
		}
		groups[g] = append(groups[g], zlb.ReplicaID(id))
	}
	stall := &Stall{Groups: groups, Extra: 2 * time.Second}
	cfg := Config{
		Name: "partition-exhaustion",
		N:    n,
		Seed: seed,
		Classes: []Class{
			{Name: "bulk", Accounts: 8, Fee: 2},
			{Name: "vip", Accounts: 3, Fee: 30},
		},
		Phases: []PhaseSpec{
			{Name: "steady", Duration: 2 * time.Second, Rates: []float64{80, 10}},
			{Name: "partitioned", Duration: 4 * time.Second, Rates: []float64{80, 10}, Stall: stall},
			{Name: "healed", Duration: 4 * time.Second, Rates: []float64{80, 10}},
		},
		Policy: mempool.Policy{
			MaxTxs:         300,
			MinFee:         1,
			ReplaceBumpPct: 10,
			PriorityOrder:  true,
		},
		BatchTxs: 150,
		Drain:    20 * time.Second,
	}
	return Campaign{Variants: []Variant{{Label: "admission", Config: cfg}}}
}
