// Package core implements the Simrank++ similarity measures of Antonellis,
// Garcia-Molina and Chang (VLDB 2008): bipartite SimRank (Jeh & Widom,
// §4), evidence-based SimRank (§7) and weighted SimRank (§8), over the
// click graphs of package clickgraph.
//
// Three engines are provided:
//
//   - Run: the sparse row-major kernel over sorted pair frontiers, with
//     optional threshold pruning and change-tracked row skipping.
//   - RunSharded: Run per shard of a partition.Plan on a bounded pool,
//     stitched into one result; the workhorse for large graphs.
//   - LocalSimilarities: neighborhood-restricted engine that scores a
//     single query online, the front-end path of Figure 2.
//
// The dense reference the engines are differential-tested against,
// RunDense (exact, dense score matrices), lives in dense_test.go.
// Closed forms for complete bipartite graphs (Appendix A/B of the paper)
// live in closedform_test.go and anchor the property tests for Theorems
// 6.1, 6.2 and 7.1.
package core

import (
	"fmt"
	"math"
)

// Variant selects which similarity measure an engine computes.
type Variant int

const (
	// Simple is plain bipartite SimRank (Equations 4.1-4.2).
	Simple Variant = iota
	// Evidence multiplies SimRank scores by the evidence of similarity
	// (Equations 7.5-7.6).
	Evidence
	// Weighted runs the consistency-preserving weighted random walk with
	// evidence (§8.2).
	Weighted
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Simple:
		return "simrank"
	case Evidence:
		return "evidence-based simrank"
	case Weighted:
		return "weighted simrank"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// EvidenceForm selects between the paper's two evidence definitions.
type EvidenceForm int

const (
	// EvidenceGeometric is Equation 7.3: Σ_{i=1..n} 2^{-i} = 1 - 2^{-n}.
	// It is the form used in the paper's experiments.
	EvidenceGeometric EvidenceForm = iota
	// EvidenceExponential is Equation 7.4: 1 - e^{-n}.
	EvidenceExponential
)

// String implements fmt.Stringer.
func (f EvidenceForm) String() string {
	switch f {
	case EvidenceGeometric:
		return "geometric"
	case EvidenceExponential:
		return "exponential"
	default:
		return fmt.Sprintf("EvidenceForm(%d)", int(f))
	}
}

// WeightChannel selects which edge weight the weighted variant walks on.
type WeightChannel int

const (
	// ChannelRate uses the position-adjusted expected click rate; §9.2:
	// "In all our experiments that required the use of an edge weight we
	// used the expected click rate."
	ChannelRate WeightChannel = iota
	// ChannelClicks uses raw click counts (used by the Figure 5/6
	// consistency examples). It resists click spam: a click farm's volume
	// explodes the weight variance at the ad it promotes, and the spread
	// factor damps exactly those transitions. Measured once (CHANGES.md,
	// PR 25): under injected fraud, hijacked queries kept 100 % of their
	// top-5 rewrites on this channel, 26 % on ChannelRate and 82 % under
	// simple SimRank.
	ChannelClicks
	// ChannelImpressions uses raw impression counts.
	ChannelImpressions
)

// String implements fmt.Stringer.
func (c WeightChannel) String() string {
	switch c {
	case ChannelRate:
		return "expected-click-rate"
	case ChannelClicks:
		return "clicks"
	case ChannelImpressions:
		return "impressions"
	default:
		return fmt.Sprintf("WeightChannel(%d)", int(c))
	}
}

// Config parameterizes a SimRank computation.
type Config struct {
	// C1 is the decay factor of the query-side equations, C2 of the
	// ad-side equations. The paper uses C1 = C2 = 0.8 throughout.
	C1, C2 float64
	// Iterations is the paper's iteration depth k: the query scores are
	// the k-th iterate of the recursion. The engines compute the two
	// sides as one chain of passes, each reading the other side's newest
	// scores, so their ad scores end one depth deeper (k+1), in k+1
	// passes.
	Iterations int
	// Tolerance, if positive, stops iteration early once the largest
	// score change falls below it on both sides. The engines compare
	// each side with its previous value on the chain, two depths back,
	// after each ad pass.
	Tolerance float64
	// Variant selects the similarity measure. Default Simple.
	Variant Variant
	// EvidenceForm selects the evidence definition for the Evidence and
	// Weighted variants. Default EvidenceGeometric.
	EvidenceForm EvidenceForm
	// Channel selects the edge weight for the Weighted variant.
	Channel WeightChannel
	// StrictEvidence applies Equation 7.3 literally: a pair with no
	// common neighbors has evidence 0, so its evidence-based and
	// weighted scores are 0 regardless of indirect structure.
	//
	// The default (false) treats the evidence multiplier as 1 for such
	// pairs — the score passes through unchanged. The paper's equations
	// read strictly, but its experimental results are only reproducible
	// with pass-through: the desirability experiment (§9.3) removes
	// every common ad between the probe pairs yet reports nonzero
	// prediction rates with identical simple/evidence accuracy, and
	// evidence-based coverage (Figure 8) exceeds simple SimRank's, both
	// impossible if no-common-ad pairs were zeroed.
	StrictEvidence bool
	// PruneEpsilon, if positive, makes the engines drop pair scores
	// below it between iterations. This bounds memory on large graphs at
	// the cost of exactness.
	PruneEpsilon float64
	// DeltaSkipTolerance tunes the engines' change-tracked row
	// skipping. An output row depends only on the score rows of its
	// neighbors on the opposite side; when none of those moved since the
	// previous iteration the engine copies the row's previous output
	// instead of recomputing it. With the default 0, a node counts as
	// moved if any of its pairs differs at all, so skipping is exact and
	// results are bit-identical to full recomputation. A positive value
	// also treats nodes whose largest pair change is within the tolerance
	// as unmoved, trading a bounded score error for earlier skipping
	// (differential-tested against full recompute).
	DeltaSkipTolerance float64
	// noDeltaSkip makes the engines recompute every row of every
	// pass: the full-recompute reference this package's delta-skip tests
	// compare against. Nothing outside them sets it.
	noDeltaSkip bool
	// noBlocks keeps every component's scores in sparse rows, so every
	// pass takes the row path: the reference the block path's tests
	// compare against. Nothing outside them sets it.
	noBlocks bool
}

// DefaultConfig returns the paper's experimental settings: C1 = C2 = 0.8
// and depth 7 (the horizon of Tables 3-4; the engines' ad side
// ends at depth 8), simple SimRank, geometric evidence,
// expected-click-rate weights.
func DefaultConfig() Config {
	return Config{C1: 0.8, C2: 0.8, Iterations: 7}
}

// WithVariant returns a copy of c computing the given variant.
func (c Config) WithVariant(v Variant) Config {
	c.Variant = v
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !(c.C1 > 0 && c.C1 <= 1) {
		return fmt.Errorf("core: C1 must be in (0,1], got %v", c.C1)
	}
	if !(c.C2 > 0 && c.C2 <= 1) {
		return fmt.Errorf("core: C2 must be in (0,1], got %v", c.C2)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("core: Iterations must be >= 1, got %d", c.Iterations)
	}
	// Written so NaN fails it too: an infinite PruneEpsilon prunes every
	// pair and an infinite Tolerance converges after one iteration, and
	// the values arrive from flags and snapshot headers.
	for _, th := range []struct {
		name string
		v    float64
	}{
		{"Tolerance", c.Tolerance},
		{"PruneEpsilon", c.PruneEpsilon},
		{"DeltaSkipTolerance", c.DeltaSkipTolerance},
	} {
		if !(th.v >= 0 && th.v <= math.MaxFloat64) {
			return fmt.Errorf("core: %s must be finite and >= 0, got %v", th.name, th.v)
		}
	}
	switch c.Variant {
	case Simple, Evidence, Weighted:
	default:
		return fmt.Errorf("core: unknown variant %d", int(c.Variant))
	}
	switch c.EvidenceForm {
	case EvidenceGeometric, EvidenceExponential:
	default:
		return fmt.Errorf("core: unknown evidence form %d", int(c.EvidenceForm))
	}
	switch c.Channel {
	case ChannelRate, ChannelClicks, ChannelImpressions:
	default:
		return fmt.Errorf("core: unknown weight channel %d", int(c.Channel))
	}
	return nil
}
