// Package eval implements the four evaluation metrics of §9.4 of the
// Simrank++ paper: precision/recall (11-point interpolated curves and
// P@X), query coverage, rewriting depth, and desirability prediction.
package eval

import "fmt"

// Judged is one rewrite with its editorial grade, in rank order.
type Judged struct {
	Text  string
	Grade int // 1 (precise) .. 4 (mismatch)
}

// QueryJudgments is a method's graded rewrite list for one query.
type QueryJudgments struct {
	Query    string
	Rewrites []Judged
}

// relevantIn counts grades <= threshold in the first k rewrites.
func relevantIn(rs []Judged, k, threshold int) int {
	if k > len(rs) {
		k = len(rs)
	}
	n := 0
	for _, r := range rs[:k] {
		if r.Grade <= threshold {
			n++
		}
	}
	return n
}

// PrecisionAtX returns the mean precision after X = 1..maxX rewrites
// across queries, the paper's P@X (Figures 9-10 bottom). For a query with
// fewer than X rewrites, its full list is used (precision of what the
// method delivered); queries with no rewrites are skipped.
func PrecisionAtX(byQuery []QueryJudgments, maxX, threshold int) []float64 {
	out := make([]float64, maxX)
	for x := 1; x <= maxX; x++ {
		sum, n := 0.0, 0
		for _, qj := range byQuery {
			if len(qj.Rewrites) == 0 {
				continue
			}
			k := x
			if k > len(qj.Rewrites) {
				k = len(qj.Rewrites)
			}
			sum += float64(relevantIn(qj.Rewrites, k, threshold)) / float64(k)
			n++
		}
		if n > 0 {
			out[x-1] = sum / float64(n)
		}
	}
	return out
}

// PRPoint is one point of a precision/recall curve.
type PRPoint struct {
	Recall, Precision float64
}

// PrecisionRecall returns the 11-point interpolated precision/recall curve
// (recall levels 0.0, 0.1, ..., 1.0) averaged over queries, the standard
// IR methodology the paper plots (Figures 9-10 top).
//
// pooledRelevant[query] is the denominator of recall: the number of
// relevant rewrites for the query among all methods (§9.4's definition).
// Queries with zero pooled relevant rewrites are skipped.
func PrecisionRecall(byQuery []QueryJudgments, pooledRelevant map[string]int, threshold int) []PRPoint {
	const levels = 11
	sums := make([]float64, levels)
	n := 0
	for _, qj := range byQuery {
		total := pooledRelevant[qj.Query]
		if total == 0 {
			continue
		}
		n++
		// Exact precision at each relevant hit, then standard
		// interpolation: P_interp(r) = max precision at recall >= r.
		precAt := make([]float64, 0, len(qj.Rewrites))
		recAt := make([]float64, 0, len(qj.Rewrites))
		hits := 0
		for i, r := range qj.Rewrites {
			if r.Grade <= threshold {
				hits++
				precAt = append(precAt, float64(hits)/float64(i+1))
				recAt = append(recAt, float64(hits)/float64(total))
			}
		}
		for level := 0; level < levels; level++ {
			r := float64(level) / 10
			best := 0.0
			for i := range precAt {
				if recAt[i] >= r && precAt[i] > best {
					best = precAt[i]
				}
			}
			sums[level] += best
		}
	}
	out := make([]PRPoint, levels)
	for level := 0; level < levels; level++ {
		p := 0.0
		if n > 0 {
			p = sums[level] / float64(n)
		}
		out[level] = PRPoint{Recall: float64(level) / 10, Precision: p}
	}
	return out
}

// PoolRelevant builds the recall denominators: for each query, the number
// of distinct rewrite strings graded relevant by any method.
func PoolRelevant(methods [][]QueryJudgments, threshold int) map[string]int {
	pool := make(map[string]map[string]bool)
	for _, byQuery := range methods {
		for _, qj := range byQuery {
			set := pool[qj.Query]
			if set == nil {
				set = make(map[string]bool)
				pool[qj.Query] = set
			}
			for _, r := range qj.Rewrites {
				if r.Grade <= threshold {
					set[r.Text] = true
				}
			}
		}
	}
	out := make(map[string]int, len(pool))
	for q, set := range pool {
		out[q] = len(set)
	}
	return out
}

// Coverage returns the fraction of sample queries for which the method
// produced at least one rewrite (Figure 8).
func Coverage(byQuery []QueryJudgments) float64 {
	if len(byQuery) == 0 {
		return 0
	}
	n := 0
	for _, qj := range byQuery {
		if len(qj.Rewrites) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(byQuery))
}

// DepthHistogram returns, for k = 1..max, the fraction of sample queries
// with at least k rewrites — the cumulative buckets of Figure 11 read
// right to left ("1-5", "2-5", ..., "5").
func DepthHistogram(byQuery []QueryJudgments, max int) []float64 {
	out := make([]float64, max)
	if len(byQuery) == 0 {
		return out
	}
	for _, qj := range byQuery {
		d := len(qj.Rewrites)
		if d > max {
			d = max
		}
		for k := 1; k <= d; k++ {
			out[k-1]++
		}
	}
	for i := range out {
		out[i] /= float64(len(byQuery))
	}
	return out
}

// FormatPercent renders a fraction as a percentage string for reports.
func FormatPercent(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
