package latency

import (
	"math/rand"
	"time"

	"github.com/zeroloss/zlb/internal/types"
)

// Region identifies one of the five AWS availability zones of the paper's
// geo-distributed deployment (§5.1): California, Oregon, Ohio, Frankfurt
// and Ireland.
type Region int

// The five regions of the paper's Figure 3 deployment.
const (
	California Region = iota + 1
	Oregon
	Ohio
	Frankfurt
	Ireland
)

// Regions lists the five deployment regions in a fixed order.
var Regions = []Region{California, Oregon, Ohio, Frankfurt, Ireland}

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case California:
		return "us-west-1"
	case Oregon:
		return "us-west-2"
	case Ohio:
		return "us-east-2"
	case Frankfurt:
		return "eu-central-1"
	case Ireland:
		return "eu-west-1"
	default:
		return "region(?)"
	}
}

// awsOneWayMillis holds measured one-way delays (RTT/2) in milliseconds
// between the five regions, in the order of Regions. Values follow the
// published inter-region measurements the paper samples from
// ("a distribution that draws from observed AWS latencies").
var awsOneWayMillis = [5][5]int{
	//             CA   OR   OH  FRA  IRE
	/* CA  */ {2, 11, 26, 74, 69},
	/* OR  */ {11, 2, 25, 79, 62},
	/* OH  */ {26, 25, 2, 46, 40},
	/* FRA */ {74, 79, 46, 2, 13},
	/* IRE */ {69, 62, 40, 13, 2},
}

// AWSMatrix models inter-replica delays by assigning each replica to one
// of the five regions (round-robin by ID, as the paper spreads machines
// evenly) and sampling the measured region-to-region delay with ±20%
// jitter.
type AWSMatrix struct {
	assign func(types.ReplicaID) Region
}

var _ Model = (*AWSMatrix)(nil)

// NewAWSMatrix builds the model with round-robin region assignment.
func NewAWSMatrix() *AWSMatrix {
	return &AWSMatrix{assign: func(id types.ReplicaID) Region {
		return Regions[int(uint32(id))%len(Regions)]
	}}
}

// RegionOf exposes the region assignment.
func (m *AWSMatrix) RegionOf(id types.ReplicaID) Region { return m.assign(id) }

// Delay implements Model.
func (m *AWSMatrix) Delay(from, to types.ReplicaID, rng *rand.Rand) time.Duration {
	a, b := m.assign(from), m.assign(to)
	base := awsOneWayMillis[int(a)-1][int(b)-1]
	ms := float64(base) * (0.8 + 0.4*rng.Float64())
	return time.Duration(ms * float64(time.Millisecond))
}

// MinDelay implements Bounded: the smallest matrix entry at the maximum
// downward jitter (0.8×), a bound that holds for every region assignment.
func (m *AWSMatrix) MinDelay() time.Duration {
	min := awsOneWayMillis[0][0]
	for _, row := range awsOneWayMillis {
		for _, v := range row {
			if v < min {
				min = v
			}
		}
	}
	return time.Duration(float64(min) * 0.8 * float64(time.Millisecond))
}

// Partitioner assigns replicas to attack partitions. Partition -1 means
// "not partitioned" (the deceitful replicas themselves, which the paper
// lets communicate normally with every partition).
type Partitioner func(types.ReplicaID) int

// PartitionOverlay injects an extra delay on top of a base model for
// messages crossing between two distinct partitions of honest replicas,
// reproducing the coalition-attack network conditions of §5.2: deceitful
// replicas talk to everyone at base speed, while honest partitions only
// hear each other after the injected delay.
type PartitionOverlay struct {
	Base        Model
	Extra       Model
	PartitionOf Partitioner
}

var _ Model = (*PartitionOverlay)(nil)

// Delay implements Model.
func (p *PartitionOverlay) Delay(from, to types.ReplicaID, rng *rand.Rand) time.Duration {
	d := p.Base.Delay(from, to, rng)
	pa, pb := p.PartitionOf(from), p.PartitionOf(to)
	if pa >= 0 && pb >= 0 && pa != pb {
		d += p.Extra.Delay(from, to, rng)
	}
	return d
}

// MinDelay implements Bounded: the overlay only ever adds delay on top of
// the base model, so the base's bound holds for every link.
func (p *PartitionOverlay) MinDelay() time.Duration { return MinDelayOf(p.Base) }
