// Package latency provides the message-delay models used by the
// discrete-event simulator: the uniform and Gamma distributions and the
// AWS inter-region latency matrix the paper injects between partitions of
// honest replicas (§5.2), plus a partition overlay that reproduces the
// coalition-attack network conditions.
package latency

import (
	"math"
	"math/rand"
	"time"

	"github.com/zeroloss/zlb/internal/types"
)

// Model produces the one-way network delay for a message from one replica
// to another. Implementations must be safe for sequential use from the
// simulator loop; they receive the simulator's seeded RNG for
// reproducibility.
type Model interface {
	Delay(from, to types.ReplicaID, rng *rand.Rand) time.Duration
}

// ModelFunc adapts a function to the Model interface.
type ModelFunc func(from, to types.ReplicaID, rng *rand.Rand) time.Duration

// Delay implements Model.
func (f ModelFunc) Delay(from, to types.ReplicaID, rng *rand.Rand) time.Duration {
	return f(from, to, rng)
}

// fixedModel is the constant-delay model.
type fixedModel struct{ d time.Duration }

func (m fixedModel) Delay(_, _ types.ReplicaID, _ *rand.Rand) time.Duration { return m.d }

// Fixed returns a constant-delay model.
func Fixed(d time.Duration) Model { return fixedModel{d: d} }

// uniformModel draws uniformly from [min, max].
type uniformModel struct{ min, span time.Duration }

func (m uniformModel) Delay(_, _ types.ReplicaID, rng *rand.Rand) time.Duration {
	if m.span == 0 {
		return m.min
	}
	return m.min + time.Duration(rng.Int63n(int64(m.span)+1))
}

// Uniform returns delays drawn uniformly from [min, max]. The paper's
// partition-delay experiments use uniform delays with means of 200, 500
// and 1000 ms; UniformMean builds those directly.
func Uniform(min, max time.Duration) Model {
	if max < min {
		min, max = max, min
	}
	return uniformModel{min: min, span: max - min}
}

// UniformMean returns a uniform model on [mean/2, 3·mean/2], i.e. with the
// requested mean.
func UniformMean(mean time.Duration) Model { return Uniform(mean/2, mean+mean/2) }

// Gamma returns delays drawn from a Gamma distribution with the given
// shape (k) and scale (θ), matching the Internet-delay measurements the
// paper cites (Mukherjee '92; Crovella & Carter '95). Mean = k·θ.
func Gamma(shape float64, scale time.Duration) Model {
	return ModelFunc(func(_, _ types.ReplicaID, rng *rand.Rand) time.Duration {
		x := gammaSample(rng, shape)
		return time.Duration(x * float64(scale))
	})
}

// GammaInternet returns the Gamma model with the parameters used for the
// paper's "gamma" series: shape 2.5, mean ≈ 50 ms one-way, i.e. a
// long-tailed wide-area Internet path.
func GammaInternet() Model { return Gamma(2.5, 20*time.Millisecond) }

// gammaSample draws Gamma(shape, 1) via Marsaglia–Tsang, with the boost
// for shape < 1.
func gammaSample(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		x := rng.NormFloat64()
		v := 1.0 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1.0-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1.0-v+math.Log(v)) {
			return d * v
		}
	}
}

// jitteredModel wraps a base model with multiplicative jitter.
type jitteredModel struct {
	base     Model
	fraction float64
}

func (m jitteredModel) Delay(from, to types.ReplicaID, rng *rand.Rand) time.Duration {
	d := m.base.Delay(from, to, rng)
	j := 1 + m.fraction*(2*rng.Float64()-1)
	return time.Duration(float64(d) * j)
}

// Jittered wraps a model adding ±fraction multiplicative jitter, so fixed
// matrices still produce distinct arrival orders run to run.
func Jittered(base Model, fraction float64) Model {
	return jitteredModel{base: base, fraction: fraction}
}
