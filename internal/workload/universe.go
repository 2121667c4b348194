package workload

import (
	"fmt"
	"sort"
)

// The universe is the latent ground truth behind the synthetic click log:
// a three-level intent hierarchy (category → subtopic → intent), a query
// population phrased over intent-specific lexemes, and an ad population
// targeting intents. The similarity algorithms never see this structure —
// they only see the click graph the sponsored-search simulator emits — but
// the editorial oracle (package judge) grades rewrites against it, exactly
// as Yahoo!'s human editors graded against their own understanding of
// query meaning rather than against the click graph.

// Relation classifies how two queries relate in the intent hierarchy,
// mirroring the paper's four editorial grades (Table 6).
type Relation int

const (
	// SameIntent: the queries express the same user intent (grade 1,
	// precise rewrite).
	SameIntent Relation = iota
	// SameSubtopic: sibling intents under one subtopic (grade 2,
	// approximate rewrite).
	SameSubtopic
	// SameCategory: same broad category only (grade 3, possible rewrite).
	SameCategory
	// Unrelated: no categorical relationship (grade 4, clear mismatch).
	Unrelated
)

// Grade maps a relation to the paper's 1-4 editorial score.
func (r Relation) Grade() int { return int(r) + 1 }

// Intent is a leaf of the hierarchy.
type Intent struct {
	ID       int
	Subtopic int
	Category int
}

// Query is one distinct query string with its latent intent and a traffic
// popularity weight.
type Query struct {
	ID         int
	Text       string
	Intent     int
	Popularity float64
}

// Ad is one advertisement targeting an intent; Quality scales its
// intrinsic click appeal.
type Ad struct {
	ID      int
	Name    string
	Intent  int
	Quality float64
}

// UniverseConfig sizes the synthetic population.
type UniverseConfig struct {
	// Categories, SubtopicsPerCategory and IntentsPerSubtopic shape the
	// hierarchy; the intent count is their product.
	Categories, SubtopicsPerCategory, IntentsPerSubtopic int
	// MaxQueriesPerIntent bounds the Zipf-distributed number of query
	// phrasings per intent (at least 1 each).
	MaxQueriesPerIntent int
	// MaxAdsPerIntent bounds the Zipf-distributed number of ads targeting
	// each intent (at least 1 each).
	MaxAdsPerIntent int
	// QueryCountExponent and AdCountExponent are the Zipf exponents of
	// the two per-intent counts; the paper observes power laws in
	// ads-per-query and queries-per-ad, which these induce.
	QueryCountExponent, AdCountExponent float64
	// PopularityExponent is the Zipf exponent of query traffic
	// popularity over the whole query population.
	PopularityExponent float64
	// StemVariantRate is the probability that an extra query phrasing is
	// a pure morphological variant of the intent's first phrasing
	// ("camera" → "cameras"), exercising the stem-dedup filter.
	StemVariantRate float64
	// Seed drives all sampling.
	Seed uint64
}

// DefaultUniverseConfig returns a laptop-scale population: 12 categories ×
// 6 subtopics × 5 intents = 360 intents, a few thousand queries.
func DefaultUniverseConfig() UniverseConfig {
	return UniverseConfig{
		Categories:           14,
		SubtopicsPerCategory: 6,
		IntentsPerSubtopic:   6,
		MaxQueriesPerIntent:  12,
		MaxAdsPerIntent:      8,
		QueryCountExponent:   1.1,
		AdCountExponent:      1.1,
		PopularityExponent:   1.0,
		StemVariantRate:      0.15,
		Seed:                 1,
	}
}

// Validate reports whether the configuration is usable.
func (c UniverseConfig) Validate() error {
	if c.Categories < 1 || c.SubtopicsPerCategory < 1 || c.IntentsPerSubtopic < 1 {
		return fmt.Errorf("workload: hierarchy dimensions must be >= 1, got %d/%d/%d",
			c.Categories, c.SubtopicsPerCategory, c.IntentsPerSubtopic)
	}
	if c.MaxQueriesPerIntent < 1 || c.MaxAdsPerIntent < 1 {
		return fmt.Errorf("workload: per-intent maxima must be >= 1, got queries=%d ads=%d",
			c.MaxQueriesPerIntent, c.MaxAdsPerIntent)
	}
	if c.QueryCountExponent < 0 || c.AdCountExponent < 0 || c.PopularityExponent < 0 {
		return fmt.Errorf("workload: Zipf exponents must be >= 0")
	}
	if c.StemVariantRate < 0 || c.StemVariantRate > 1 {
		return fmt.Errorf("workload: StemVariantRate must be in [0,1], got %v", c.StemVariantRate)
	}
	return nil
}

// Universe is the generated ground truth.
type Universe struct {
	Config  UniverseConfig
	Intents []Intent
	Queries []Query
	Ads     []Ad

	queryByText map[string]int
	popCDF      []float64
}

// BuildUniverse generates the population deterministically from the
// config's seed.
func BuildUniverse(cfg UniverseConfig) (*Universe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := NewRNG(cfg.Seed)
	u := &Universe{Config: cfg, queryByText: make(map[string]int)}

	qCount, err := NewZipf(cfg.MaxQueriesPerIntent, cfg.QueryCountExponent)
	if err != nil {
		return nil, err
	}
	aCount, err := NewZipf(cfg.MaxAdsPerIntent, cfg.AdCountExponent)
	if err != nil {
		return nil, err
	}

	intentID := 0
	for cat := 0; cat < cfg.Categories; cat++ {
		for sub := 0; sub < cfg.SubtopicsPerCategory; sub++ {
			for k := 0; k < cfg.IntentsPerSubtopic; k++ {
				in := Intent{ID: intentID, Subtopic: cat*cfg.SubtopicsPerCategory + sub, Category: cat}
				u.Intents = append(u.Intents, in)

				nq := qCount.Sample(r)
				base := fmt.Sprintf("%s %s %s", categoryWord(cat), subtopicWord(cat, sub), intentWord(intentID))
				for v := 0; v < nq; v++ {
					text := base
					switch {
					case v == 0:
						// The canonical phrasing.
					case r.Float64() < cfg.StemVariantRate:
						// A morphological variant that stems to the same
						// phrase, to exercise duplicate filtering.
						text = base + "s"
					default:
						text = fmt.Sprintf("%s %s", base, variantWord(intentID, v))
					}
					if _, dup := u.queryByText[text]; dup {
						continue // stem variants can collide; keep one
					}
					q := Query{ID: len(u.Queries), Text: text, Intent: intentID}
					u.queryByText[text] = q.ID
					u.Queries = append(u.Queries, q)
				}

				na := aCount.Sample(r)
				for v := 0; v < na; v++ {
					u.Ads = append(u.Ads, Ad{
						ID:      len(u.Ads),
						Name:    fmt.Sprintf("ad-%d-%d.example.com", intentID, v),
						Intent:  intentID,
						Quality: 0.5 + 0.5*r.Float64(),
					})
				}
				intentID++
			}
		}
	}

	// Zipf popularity over a random permutation of queries, so popularity
	// is independent of hierarchy position.
	pop, err := NewZipf(len(u.Queries), cfg.PopularityExponent)
	if err != nil {
		return nil, err
	}
	perm := r.Perm(len(u.Queries))
	for i := range u.Queries {
		rank := perm[i] + 1
		u.Queries[i].Popularity = pop.Prob(rank)
	}
	u.buildPopCDF()
	return u, nil
}

func (u *Universe) buildPopCDF() {
	u.popCDF = make([]float64, len(u.Queries))
	sum := 0.0
	for i, q := range u.Queries {
		sum += q.Popularity
		u.popCDF[i] = sum
	}
	for i := range u.popCDF {
		u.popCDF[i] /= sum
	}
}

// QueryByText returns the query with the given text.
func (u *Universe) QueryByText(s string) (Query, bool) {
	id, ok := u.queryByText[s]
	if !ok {
		return Query{}, false
	}
	return u.Queries[id], true
}

// SampleQuery draws one query id by traffic popularity.
func (u *Universe) SampleQuery(r *RNG) int {
	return sort.SearchFloat64s(u.popCDF, r.Float64())
}

// Relation classifies the hierarchy relationship of two query ids.
func (u *Universe) Relation(q1, q2 int) Relation {
	return u.IntentRelation(u.Queries[q1].Intent, u.Queries[q2].Intent)
}

// QueryAdRelation classifies the relationship between a query's intent and
// an ad's target intent; it drives the click model's relevance.
func (u *Universe) QueryAdRelation(q, a int) Relation {
	return u.IntentRelation(u.Queries[q].Intent, u.Ads[a].Intent)
}

// IntentRelation classifies two intent ids by their hierarchy positions.
func (u *Universe) IntentRelation(int1, int2 int) Relation {
	i1, i2 := u.Intents[int1], u.Intents[int2]
	switch {
	case i1.ID == i2.ID:
		return SameIntent
	case i1.Subtopic == i2.Subtopic:
		return SameSubtopic
	case i1.Category == i2.Category:
		return SameCategory
	default:
		return Unrelated
	}
}

// RelationByText classifies two query strings; unknown strings are
// Unrelated.
func (u *Universe) RelationByText(t1, t2 string) Relation {
	q1, ok1 := u.QueryByText(t1)
	q2, ok2 := u.QueryByText(t2)
	if !ok1 || !ok2 {
		return Unrelated
	}
	return u.Relation(q1.ID, q2.ID)
}

// IntentQueries returns the ids of all queries expressing intent id.
func (u *Universe) IntentQueries(intent int) []int {
	var out []int
	for _, q := range u.Queries {
		if q.Intent == intent {
			out = append(out, q.ID)
		}
	}
	return out
}

// IntentAds returns the ids of all ads targeting intent id.
func (u *Universe) IntentAds(intent int) []int {
	var out []int
	for _, a := range u.Ads {
		if a.Intent == intent {
			out = append(out, a.ID)
		}
	}
	return out
}

// CategoryIntents returns the intents in the same category but under a
// different subtopic.
func (u *Universe) CategoryIntents(intent int) []int {
	cat := u.Intents[intent].Category
	sub := u.Intents[intent].Subtopic
	var out []int
	for _, in := range u.Intents {
		if in.Category == cat && in.Subtopic != sub {
			out = append(out, in.ID)
		}
	}
	return out
}

// SiblingIntents returns the other intents under the same subtopic.
func (u *Universe) SiblingIntents(intent int) []int {
	sub := u.Intents[intent].Subtopic
	var out []int
	for _, in := range u.Intents {
		if in.Subtopic == sub && in.ID != intent {
			out = append(out, in.ID)
		}
	}
	return out
}

// Synthetic vocabulary. Words are pronounceable CV syllable strings so
// the Porter stemmer treats them like English-ish tokens.

var consonants = []string{"b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v"}
var vowels = []string{"a", "e", "i", "o", "u"}

func syllableWord(seed uint64, syllables int) string {
	// A tiny splitmix keeps word generation independent of the universe
	// RNG stream, so word spelling is stable across config changes.
	out := ""
	s := seed
	next := func(n int) int {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return int(z % uint64(n))
	}
	for i := 0; i < syllables; i++ {
		out += consonants[next(len(consonants))] + vowels[next(len(vowels))]
	}
	return out
}

func categoryWord(cat int) string { return syllableWord(uint64(cat)*7919+13, 2) }

func subtopicWord(cat, sub int) string {
	return syllableWord(uint64(cat)*104729+uint64(sub)*7907+29, 2)
}

func intentWord(intent int) string { return syllableWord(uint64(intent)*15485863+41, 3) }

func variantWord(intent, v int) string {
	return syllableWord(uint64(intent)*32452843+uint64(v)*999983+59, 2)
}
