package workload

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples integers in [1, n] with probability proportional to
// 1/rank^exponent. It precomputes the cumulative mass so sampling is a
// binary search; construction is O(n), sampling O(log n).
//
// The Simrank++ paper reports power-law distributions for ads-per-query,
// queries-per-ad and clicks per (query, ad) pair; Zipf is the discrete
// sampler used to reproduce those shapes.
type Zipf struct {
	n   int
	cdf []float64 // cdf[i] = P(value <= i+1)
}

// NewZipf returns a Zipf sampler over [1, n] with the given exponent.
// It returns an error if n < 1 or exponent < 0.
func NewZipf(n int, exponent float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: Zipf needs n >= 1, got %d", n)
	}
	if exponent < 0 || math.IsNaN(exponent) {
		return nil, fmt.Errorf("workload: Zipf needs exponent >= 0, got %v", exponent)
	}
	z := &Zipf{n: n, cdf: make([]float64, n)}
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += math.Pow(float64(i), -exponent)
		z.cdf[i-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z, nil
}

// Sample draws one value in [1, n].
func (z *Zipf) Sample(r *RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u) + 1
}

// Prob returns the probability mass of value k, or 0 if k is out of range.
func (z *Zipf) Prob(k int) float64 {
	if k < 1 || k > z.n {
		return 0
	}
	if k == 1 {
		return z.cdf[0]
	}
	return z.cdf[k-1] - z.cdf[k-2]
}

// Pareto samples continuous values from a bounded Pareto distribution on
// [lo, hi] with shape alpha. Used for bid prices and click-rate spreads.
type Pareto struct {
	lo, hi, alpha float64
}

// NewPareto returns a bounded Pareto sampler. It returns an error unless
// 0 < lo < hi and alpha > 0.
func NewPareto(lo, hi, alpha float64) (*Pareto, error) {
	if !(lo > 0) || !(hi > lo) {
		return nil, fmt.Errorf("workload: Pareto needs 0 < lo < hi, got lo=%v hi=%v", lo, hi)
	}
	if !(alpha > 0) {
		return nil, fmt.Errorf("workload: Pareto needs alpha > 0, got %v", alpha)
	}
	return &Pareto{lo: lo, hi: hi, alpha: alpha}, nil
}

// Sample draws one value in [lo, hi] by inverse-CDF of the truncated Pareto.
func (p *Pareto) Sample(r *RNG) float64 {
	u := r.Float64()
	la := math.Pow(p.lo, p.alpha)
	ha := math.Pow(p.hi, p.alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.alpha)
	if x < p.lo {
		x = p.lo
	}
	if x > p.hi {
		x = p.hi
	}
	return x
}

// FitExponent estimates a power-law exponent from a degree histogram using
// the discrete maximum-likelihood estimator of Clauset-Shalizi-Newman with
// xmin = 1: alpha ≈ 1 + n / Σ ln(x_i / (xmin - 1/2)). It is used by tests
// and by `cmd/clickgen -stats` to verify the generator reproduces the
// power laws the paper reports. Returns NaN for fewer than 2 samples.
func FitExponent(degrees []int) float64 {
	n := 0
	sum := 0.0
	for _, d := range degrees {
		if d < 1 {
			continue
		}
		n++
		sum += math.Log(float64(d) / 0.5)
	}
	if n < 2 || sum == 0 {
		return math.NaN()
	}
	return 1 + float64(n)/sum
}
