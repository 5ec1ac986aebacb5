package latency

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/zeroloss/zlb/internal/types"
)

func sampleMean(m Model, n int, seed int64) time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var total time.Duration
	for i := 0; i < n; i++ {
		total += m.Delay(1, 2, rng)
	}
	return total / time.Duration(n)
}

func TestFixed(t *testing.T) {
	m := Fixed(25 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if got := m.Delay(1, 2, rng); got != 25*time.Millisecond {
			t.Fatalf("fixed delay = %v", got)
		}
	}
}

func TestUniformBoundsAndMean(t *testing.T) {
	m := Uniform(10*time.Millisecond, 30*time.Millisecond)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		d := m.Delay(1, 2, rng)
		if d < 10*time.Millisecond || d > 30*time.Millisecond {
			t.Fatalf("uniform out of bounds: %v", d)
		}
	}
	mean := sampleMean(m, 20000, 3)
	if mean < 18*time.Millisecond || mean > 22*time.Millisecond {
		t.Fatalf("uniform mean %v, want ≈20ms", mean)
	}
	// Swapped bounds normalize.
	swapped := Uniform(30*time.Millisecond, 10*time.Millisecond)
	if d := swapped.Delay(1, 2, rng); d < 10*time.Millisecond || d > 30*time.Millisecond {
		t.Fatalf("swapped-bounds uniform out of range: %v", d)
	}
}

func TestUniformMean(t *testing.T) {
	for _, mean := range []time.Duration{200 * time.Millisecond, time.Second} {
		got := sampleMean(UniformMean(mean), 20000, 4)
		lo := time.Duration(float64(mean) * 0.95)
		hi := time.Duration(float64(mean) * 1.05)
		if got < lo || got > hi {
			t.Fatalf("UniformMean(%v) sample mean %v", mean, got)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(k, θ): mean kθ, variance kθ².
	shape := 2.5
	scale := 20 * time.Millisecond
	m := Gamma(shape, scale)
	rng := rand.New(rand.NewSource(5))
	n := 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := float64(m.Delay(1, 2, rng)) / float64(time.Millisecond)
		sum += x
		sumSq += x * x
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	wantMean := shape * 20
	wantVar := shape * 20 * 20
	if math.Abs(mean-wantMean) > 0.05*wantMean {
		t.Fatalf("gamma mean %.2f, want ≈%.2f", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 0.15*wantVar {
		t.Fatalf("gamma variance %.2f, want ≈%.2f", variance, wantVar)
	}
}

func TestGammaSmallShape(t *testing.T) {
	m := Gamma(0.5, 10*time.Millisecond)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		if d := m.Delay(1, 2, rng); d < 0 {
			t.Fatalf("negative gamma sample: %v", d)
		}
	}
	mean := sampleMean(m, 30000, 7)
	if mean < 4*time.Millisecond || mean > 6*time.Millisecond {
		t.Fatalf("gamma(0.5, 10ms) mean %v, want ≈5ms", mean)
	}
}

func TestAWSMatrixProperties(t *testing.T) {
	m := NewAWSMatrix()
	rng := rand.New(rand.NewSource(8))
	// Same region (ids 1 and 6 are both region index 1): short delay.
	intra := sampleMean(ModelFunc(func(_, _ types.ReplicaID, r *rand.Rand) time.Duration {
		return m.Delay(1, 6, r)
	}), 1000, 9)
	// Cross-continental (California idx vs Frankfurt): id 5 is region
	// (5 % 5 = 0) California, id 4 is (4 % 5) Ireland... pick via RegionOf.
	var ca, fra types.ReplicaID
	for id := types.ReplicaID(1); id <= 10; id++ {
		switch m.RegionOf(id) {
		case California:
			ca = id
		case Frankfurt:
			fra = id
		}
	}
	cross := sampleMean(ModelFunc(func(_, _ types.ReplicaID, r *rand.Rand) time.Duration {
		return m.Delay(ca, fra, r)
	}), 1000, 10)
	if intra >= cross {
		t.Fatalf("intra-region %v not faster than cross-continental %v", intra, cross)
	}
	if cross < 50*time.Millisecond || cross > 110*time.Millisecond {
		t.Fatalf("CA↔FRA delay %v outside plausible range", cross)
	}
	_ = rng
}

func TestAWSMatrixSymmetry(t *testing.T) {
	m := NewAWSMatrix()
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if awsOneWayMillis[a][b] != awsOneWayMillis[b][a] {
				t.Fatalf("asymmetric base latency %d↔%d", a, b)
			}
		}
	}
	_ = m
}

func TestPartitionOverlay(t *testing.T) {
	partitions := map[types.ReplicaID]int{1: 0, 2: 0, 3: 1, 4: -1}
	overlay := &PartitionOverlay{
		Base:        Fixed(10 * time.Millisecond),
		Extra:       Fixed(1 * time.Second),
		PartitionOf: func(id types.ReplicaID) int { return partitions[id] },
	}
	rng := rand.New(rand.NewSource(11))
	// Same partition: base only.
	if d := overlay.Delay(1, 2, rng); d != 10*time.Millisecond {
		t.Fatalf("intra-partition delay %v", d)
	}
	// Cross partition: base + extra.
	if d := overlay.Delay(1, 3, rng); d != 1010*time.Millisecond {
		t.Fatalf("cross-partition delay %v", d)
	}
	// Deceitful (partition −1) reaches everyone at base speed — the
	// paper's attack network (§5.2).
	if d := overlay.Delay(4, 1, rng); d != 10*time.Millisecond {
		t.Fatalf("deceitful→honest delay %v", d)
	}
	if d := overlay.Delay(3, 4, rng); d != 10*time.Millisecond {
		t.Fatalf("honest→deceitful delay %v", d)
	}
}

func TestJittered(t *testing.T) {
	m := Jittered(Fixed(100*time.Millisecond), 0.2)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		d := m.Delay(1, 2, rng)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±20%%", d)
		}
	}
}

func TestRegionString(t *testing.T) {
	for _, r := range Regions {
		if r.String() == "region(?)" {
			t.Fatalf("region %d unnamed", r)
		}
	}
}
