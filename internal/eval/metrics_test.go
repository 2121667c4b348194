package eval

import (
	"math"
	"testing"
)

func qj(query string, grades ...int) QueryJudgments {
	out := QueryJudgments{Query: query}
	for i, g := range grades {
		out.Rewrites = append(out.Rewrites, Judged{Text: query + "-rw" + string(rune('a'+i)), Grade: g})
	}
	return out
}

func TestCoverage(t *testing.T) {
	byQuery := []QueryJudgments{
		qj("q1", 1, 2),
		qj("q2"),
		qj("q3", 4),
		qj("q4", 3, 3, 3),
	}
	if got := Coverage(byQuery); got != 0.75 {
		t.Errorf("Coverage = %v want 0.75", got)
	}
	if Coverage(nil) != 0 {
		t.Error("empty coverage should be 0")
	}
}

func TestPrecisionAtX(t *testing.T) {
	byQuery := []QueryJudgments{
		qj("q1", 1, 4, 2, 4, 4), // P@1=1, P@2=0.5, P@3=2/3 ...
		qj("q2", 4, 4),          // P@1=0, P@2=0
	}
	p := PrecisionAtX(byQuery, 5, 2)
	if p[0] != 0.5 {
		t.Errorf("P@1 = %v want 0.5", p[0])
	}
	if p[1] != 0.25 {
		t.Errorf("P@2 = %v want 0.25", p[1])
	}
	// q1 has 2 relevant in its 5; q2 at X=5 only has 2 rewrites, so its
	// precision is that of the delivered list.
	want5 := (2.0/5.0 + 0.0/2.0) / 2
	if math.Abs(p[4]-want5) > 1e-12 {
		t.Errorf("P@5 = %v want %v", p[4], want5)
	}
	// Threshold 1: only grade-1 counts.
	p1 := PrecisionAtX(byQuery, 1, 1)
	if p1[0] != 0.5 {
		t.Errorf("threshold-1 P@1 = %v want 0.5", p1[0])
	}
}

func TestPrecisionRecallCurve(t *testing.T) {
	byQuery := []QueryJudgments{
		qj("q1", 1, 4, 2), // hits at ranks 1 and 3
	}
	pooled := map[string]int{"q1": 2}
	curve := PrecisionRecall(byQuery, pooled, 2)
	if len(curve) != 11 {
		t.Fatalf("curve length = %d want 11", len(curve))
	}
	// At recall 0.5 (first hit covers 1/2), interpolated precision = 1.
	if curve[5].Precision != 1 {
		t.Errorf("precision at recall 0.5 = %v want 1", curve[5].Precision)
	}
	// At recall 1.0, precision = 2/3 (both hits by rank 3).
	if math.Abs(curve[10].Precision-2.0/3.0) > 1e-12 {
		t.Errorf("precision at recall 1.0 = %v want 2/3", curve[10].Precision)
	}
	// Curves are non-increasing in recall.
	for i := 1; i < 11; i++ {
		if curve[i].Precision > curve[i-1].Precision+1e-12 {
			t.Errorf("curve increased at level %d", i)
		}
	}
	// Queries with zero pooled relevant rewrites are skipped entirely.
	empty := PrecisionRecall(byQuery, map[string]int{}, 2)
	for _, p := range empty {
		if p.Precision != 0 {
			t.Error("no-pool curve should be all zeros")
		}
	}
}

func TestPoolRelevant(t *testing.T) {
	m1 := []QueryJudgments{qj("q1", 1, 3), qj("q2", 4)}
	m2 := []QueryJudgments{qj("q1", 2), qj("q2", 1)}
	// m2's q1 rewrite has a different text than m1's ("q1-rwa" both!).
	// Rename to make them distinct.
	m2[0].Rewrites[0].Text = "other rewrite"
	pool := PoolRelevant([][]QueryJudgments{m1, m2}, 2)
	if pool["q1"] != 2 {
		t.Errorf("pooled q1 = %d want 2 (one from each method)", pool["q1"])
	}
	if pool["q2"] != 1 {
		t.Errorf("pooled q2 = %d want 1", pool["q2"])
	}
	// Same text counted once.
	dup := PoolRelevant([][]QueryJudgments{m1, m1}, 2)
	if dup["q1"] != 1 {
		t.Errorf("duplicate pooling = %d want 1", dup["q1"])
	}
}

func TestDepthHistogram(t *testing.T) {
	byQuery := []QueryJudgments{
		qj("q1", 1, 1, 1, 1, 1), // depth 5
		qj("q2", 1, 1),          // depth 2
		qj("q3"),                // depth 0
		qj("q4", 1),             // depth 1
	}
	h := DepthHistogram(byQuery, 5)
	want := []float64{0.75, 0.5, 0.25, 0.25, 0.25}
	for k := 1; k <= 5; k++ {
		if math.Abs(h[k-1]-want[k-1]) > 1e-12 {
			t.Errorf("depth >= %d fraction = %v want %v", k, h[k-1], want[k-1])
		}
	}
}
