// Package judge implements the editorial oracle that substitutes for
// Yahoo!'s Editorial Evaluation Team (§9.3 of the Simrank++ paper): it
// grades a (query, rewrite) pair on the paper's 1-4 scale — precise,
// approximate, possible, mismatch — from the workload universe's latent
// intent hierarchy. Like the human editors, the oracle judges semantic
// relatedness only; it never consults the click graph.
package judge

import "simrankpp/internal/workload"

// Grades on the paper's editorial scale (Table 6).
const (
	// GradePrecise: the rewrite matches the user's intent (score 1).
	GradePrecise = 1
	// GradeApproximate: close topical relationship, narrowed/broadened
	// scope (score 2).
	GradeApproximate = 2
	// GradePossible: categorical relationship or complementary product
	// (score 3).
	GradePossible = 3
	// GradeMismatch: no clear relationship (score 4).
	GradeMismatch = 4
)

// Oracle grades rewrites against a universe's ground truth.
type Oracle struct {
	universe *workload.Universe
}

// New returns an oracle over u.
func New(u *workload.Universe) *Oracle {
	return &Oracle{universe: u}
}

// Grade judges the rewrite of query (both as query strings) on the 1-4
// scale. Unknown strings grade as mismatch — an editor shown gibberish
// marks it unrelated.
func (o *Oracle) Grade(query, rewrite string) int {
	return o.universe.RelationByText(query, rewrite).Grade()
}
