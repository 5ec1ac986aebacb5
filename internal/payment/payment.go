// Package payment implements the zero-loss payment analysis of the
// paper's Appendix B: deposit sizing, expected gain and punishment of a
// coalition attack, the deposit-flux condition g(a,b,ρ,m) ≥ 0 of
// Theorem .5, and the derived minimum finalization blockdepth. These are
// the formulas behind Figure 6 and the §B worked examples (m = 28 for
// ρ = 0.9, δ = 0.5, D = G/10, and so on).
package payment

import (
	"errors"
	"math"

	"github.com/zeroloss/zlb/internal/types"
)

// Params captures one attack economy (paper §B):
//
//   - Branches (a): how many branches the coalition can fork.
//   - DepositFactor (b): the coalition deposit as a factor of the
//     per-block gain bound, D = b·G.
//   - Rho (ρ): per-block probability that a disagreement attempt
//     succeeds.
//   - Depth (m): the finalization blockdepth before deposits return.
type Params struct {
	Branches      int
	DepositFactor float64
	Rho           float64
	Depth         int
}

// Errors returned by parameter validation.
var (
	ErrBadBranches = errors.New("payment: branches must be at least 1")
	ErrBadDeposit  = errors.New("payment: deposit factor must be positive")
	ErrBadRho      = errors.New("payment: rho must be in [0, 1]")
	ErrBadDepth    = errors.New("payment: depth must be non-negative")
	ErrNoZeroLoss  = errors.New("payment: no finite blockdepth achieves zero loss")
)

// Validate checks the parameter ranges.
func (p Params) Validate() error {
	if p.Branches < 1 {
		return ErrBadBranches
	}
	if p.DepositFactor <= 0 {
		return ErrBadDeposit
	}
	if p.Rho < 0 || p.Rho > 1 {
		return ErrBadRho
	}
	if p.Depth < 0 {
		return ErrBadDepth
	}
	return nil
}

// MaxBranches bounds the number of branches a coalition of the given
// deceitful ratio δ can sustain: a ≤ (1−δ) / (2/3−δ), the
// conflicting-histories bound the paper instantiates in §B ("one can
// derive the maximum number of branches from a ≤ (n−(f−q)) /
// (⌈2n/3⌉−(f−q))"). The paper's worked examples round up (δ = 0.64 →
// a = 14), so the ceiling is returned. δ ≥ 2/3 has no finite bound and
// returns 0.
func MaxBranches(delta float64) int {
	if delta < 0 {
		return 1
	}
	if delta >= 2.0/3.0 {
		return 0
	}
	a := (1 - delta) / (2.0/3.0 - delta)
	return int(math.Ceil(a - 1e-9))
}

// MaxBranchesCount is the integer form over committee counts:
// a ≤ (n−(f−q)) / (⌈2n/3⌉−(f−q)), with deceitful = f−q.
func MaxBranchesCount(n, deceitful int) int {
	den := types.Quorum(n) - deceitful
	if den <= 0 {
		return 0
	}
	return (n - deceitful) / den
}

// ExpectedGain is 𝒢(ρ̂) = (a−1)·ρ^{m+1}·G: the attackers win (a−1)·G only
// if the attack stays undetected for m+1 consecutive blocks (the deposit
// is withheld until finalization blockdepth m).
func ExpectedGain(p Params, gain float64) float64 {
	return float64(p.Branches-1) * math.Pow(p.Rho, float64(p.Depth+1)) * gain
}

// ExpectedPunishment is 𝒫(ρ̂) = (1−ρ^{m+1})·b·G: the deposit D = b·G is
// forfeited whenever the attack fails within the finalization window.
func ExpectedPunishment(p Params, gain float64) float64 {
	return (1 - math.Pow(p.Rho, float64(p.Depth+1))) * p.DepositFactor * gain
}

// DepositFlux is ∆ = 𝒫 − 𝒢 = g(a,b,ρ,m)·G, the expected deposit flux per
// attack attempt (Theorem .5).
func DepositFlux(p Params, gain float64) float64 {
	return ExpectedPunishment(p, gain) - ExpectedGain(p, gain)
}

// G computes g(a,b,ρ,m) = (1−ρ^{m+1})·b − (a−1)·ρ^{m+1}.
func G(p Params) float64 {
	rhoPow := math.Pow(p.Rho, float64(p.Depth+1))
	return (1-rhoPow)*p.DepositFactor - float64(p.Branches-1)*rhoPow
}

// ZeroLoss reports Theorem .5's condition: the system loses nothing in
// expectation iff g(a,b,ρ,m) ≥ 0.
func ZeroLoss(p Params) bool { return G(p) >= 0 }

// MinDepth returns the smallest finalization blockdepth m that yields
// zero loss for the given a, b and ρ: m ≥ log(c)/log(ρ) − 1 with
// c = b/(a−1+b). For ρ = 0 any depth works (returns 0); for ρ = 1 no
// finite depth works unless a = 1.
func MinDepth(branches int, depositFactor, rho float64) (int, error) {
	if branches < 1 {
		return 0, ErrBadBranches
	}
	if depositFactor <= 0 {
		return 0, ErrBadDeposit
	}
	if rho < 0 || rho > 1 {
		return 0, ErrBadRho
	}
	if branches == 1 || rho == 0 {
		return 0, nil
	}
	if rho == 1 {
		return 0, ErrNoZeroLoss
	}
	c := depositFactor / (float64(branches-1) + depositFactor)
	m := math.Log(c)/math.Log(rho) - 1
	depth := int(math.Ceil(m - 1e-9))
	if depth < 0 {
		depth = 0
	}
	// Guard against floating point at the boundary: bump only when g is
	// genuinely negative, not a rounding hair below zero.
	for G(Params{Branches: branches, DepositFactor: depositFactor, Rho: rho, Depth: depth}) < -1e-9 {
		depth++
	}
	return depth, nil
}

// TolerableRho returns the largest per-block attack success probability ρ
// that still yields zero loss at finalization blockdepth m:
// ρ ≤ c^{1/(m+1)} with c = b/(a−1+b).
func TolerableRho(branches int, depositFactor float64, depth int) float64 {
	if branches <= 1 {
		return 1
	}
	c := depositFactor / (float64(branches-1) + depositFactor)
	return math.Pow(c, 1/float64(depth+1))
}

// PerReplicaDeposit sizes each replica's stake so that every possible
// coalition (size ≥ ⌈n/3⌉) covers the full deposit D = b·G: each replica
// deposits 3·b·G/n (paper §B assumption 2).
func PerReplicaDeposit(n int, depositFactor float64, gainBound types.Amount) types.Amount {
	if n == 0 {
		return 0
	}
	per := 3 * depositFactor * float64(gainBound) / float64(n)
	return types.Amount(math.Ceil(per))
}

// MeasuredRho estimates ρ from experiment outcomes: successful
// disagreement attempts over total attempts (used to produce Fig. 6 from
// the Fig. 4 simulations).
func MeasuredRho(successes, attempts int) float64 {
	if attempts == 0 {
		return 0
	}
	return float64(successes) / float64(attempts)
}
