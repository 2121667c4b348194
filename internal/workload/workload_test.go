package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Errorf("bucket %d count %d deviates >10%% from uniform", i, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	check := func(seed uint64) bool {
		r := NewRNG(seed)
		n := int(seed%20) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestZipfValidationAndMass(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf accepted n=0")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("NewZipf accepted negative exponent")
	}
	z, err := NewZipf(100, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for k := 1; k <= 100; k++ {
		p := z.Prob(k)
		if p < 0 {
			t.Fatalf("Prob(%d) = %v < 0", k, p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probability mass = %v, want 1", total)
	}
	if z.Prob(0) != 0 || z.Prob(101) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
	// Rank 1 must dominate rank 100.
	if z.Prob(1) <= z.Prob(100) {
		t.Error("Zipf not decreasing")
	}
}

func TestZipfSampleDistribution(t *testing.T) {
	z, err := NewZipf(50, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(3)
	counts := make([]int, 51)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Sample(r)
		if v < 1 || v > 50 {
			t.Fatalf("sample %d out of range", v)
		}
		counts[v]++
	}
	// Empirical frequency of rank 1 should be near its mass.
	want := z.Prob(1)
	got := float64(counts[1]) / n
	if math.Abs(got-want) > 0.01 {
		t.Errorf("rank-1 frequency %v, want ~%v", got, want)
	}
}

func TestParetoBounds(t *testing.T) {
	if _, err := NewPareto(0, 1, 1); err == nil {
		t.Error("accepted lo=0")
	}
	if _, err := NewPareto(2, 1, 1); err == nil {
		t.Error("accepted hi<lo")
	}
	if _, err := NewPareto(1, 2, 0); err == nil {
		t.Error("accepted alpha=0")
	}
	p, err := NewPareto(0.1, 5, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := p.Sample(r)
		if v < 0.1 || v > 5 {
			t.Fatalf("Pareto sample %v outside [0.1, 5]", v)
		}
	}
}

func TestFitExponent(t *testing.T) {
	// A degenerate sample has no estimate.
	if !math.IsNaN(FitExponent([]int{1})) {
		t.Error("FitExponent of single sample should be NaN")
	}
	// Degrees drawn from Zipf(exponent=2) should fit near 2.
	z, err := NewZipf(10000, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(17)
	degrees := make([]int, 50000)
	for i := range degrees {
		degrees[i] = z.Sample(r)
	}
	if got := FitExponent(degrees); math.Abs(got-2.0) > 0.25 {
		t.Errorf("fitted exponent %v, want ~2.0", got)
	}
}

func TestBuildUniverseBasics(t *testing.T) {
	cfg := DefaultUniverseConfig()
	u, err := BuildUniverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantIntents := cfg.Categories * cfg.SubtopicsPerCategory * cfg.IntentsPerSubtopic
	if len(u.Intents) != wantIntents {
		t.Fatalf("intents = %d want %d", len(u.Intents), wantIntents)
	}
	if len(u.Queries) < wantIntents || len(u.Ads) < wantIntents {
		t.Fatalf("every intent needs at least one query and ad: %d queries %d ads",
			len(u.Queries), len(u.Ads))
	}
	// Text lookup round-trips.
	for _, q := range u.Queries[:50] {
		got, ok := u.QueryByText(q.Text)
		if !ok || got.ID != q.ID {
			t.Fatalf("QueryByText(%q) = %+v, %v", q.Text, got, ok)
		}
	}
	// Determinism: same seed, same universe.
	u2, err := BuildUniverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(u2.Queries) != len(u.Queries) || u2.Queries[10].Text != u.Queries[10].Text {
		t.Error("universe not deterministic for fixed seed")
	}
}

func TestUniverseValidation(t *testing.T) {
	bad := DefaultUniverseConfig()
	bad.Categories = 0
	if _, err := BuildUniverse(bad); err == nil {
		t.Error("accepted zero categories")
	}
	bad = DefaultUniverseConfig()
	bad.MaxQueriesPerIntent = 0
	if _, err := BuildUniverse(bad); err == nil {
		t.Error("accepted zero queries per intent")
	}
	bad = DefaultUniverseConfig()
	bad.StemVariantRate = 1.5
	if _, err := BuildUniverse(bad); err == nil {
		t.Error("accepted out-of-range StemVariantRate")
	}
}

func TestRelations(t *testing.T) {
	cfg := DefaultUniverseConfig()
	u, err := BuildUniverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same query: same intent.
	if r := u.Relation(0, 0); r != SameIntent {
		t.Errorf("self relation = %v", r)
	}
	// Check classification against the hierarchy arithmetic for a sample
	// of pairs.
	for i := 0; i < 30; i++ {
		for j := i; j < 30; j++ {
			r := u.Relation(i, j)
			i1, i2 := u.Intents[u.Queries[i].Intent], u.Intents[u.Queries[j].Intent]
			var want Relation
			switch {
			case i1.ID == i2.ID:
				want = SameIntent
			case i1.Subtopic == i2.Subtopic:
				want = SameSubtopic
			case i1.Category == i2.Category:
				want = SameCategory
			default:
				want = Unrelated
			}
			if r != want {
				t.Fatalf("Relation(%d,%d) = %v want %v", i, j, r, want)
			}
			if r.Grade() < 1 || r.Grade() > 4 {
				t.Fatalf("grade out of range: %d", r.Grade())
			}
		}
	}
	if u.RelationByText("no such query", u.Queries[0].Text) != Unrelated {
		t.Error("unknown text should be Unrelated")
	}
}

func TestSampleQueryPopularityBias(t *testing.T) {
	u, err := BuildUniverse(DefaultUniverseConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(21)
	counts := make(map[int]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[u.SampleQuery(r)]++
	}
	// The most popular query must be sampled far more often than a
	// median-popularity one.
	best, bestPop := 0, 0.0
	for _, q := range u.Queries {
		if q.Popularity > bestPop {
			best, bestPop = q.ID, q.Popularity
		}
	}
	if counts[best] < n/len(u.Queries) {
		t.Errorf("most popular query sampled only %d times", counts[best])
	}
}

func TestSiblingAndCategoryIntents(t *testing.T) {
	cfg := DefaultUniverseConfig()
	u, err := BuildUniverse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intent := u.Intents[0]
	sibs := u.SiblingIntents(intent.ID)
	if len(sibs) != cfg.IntentsPerSubtopic-1 {
		t.Errorf("siblings = %d want %d", len(sibs), cfg.IntentsPerSubtopic-1)
	}
	for _, s := range sibs {
		if u.Intents[s].Subtopic != intent.Subtopic || s == intent.ID {
			t.Errorf("bad sibling %d", s)
		}
	}
	cats := u.CategoryIntents(intent.ID)
	want := (cfg.SubtopicsPerCategory - 1) * cfg.IntentsPerSubtopic
	if len(cats) != want {
		t.Errorf("category intents = %d want %d", len(cats), want)
	}
	for _, c := range cats {
		if u.Intents[c].Category != intent.Category || u.Intents[c].Subtopic == intent.Subtopic {
			t.Errorf("bad category intent %d", c)
		}
	}
}
