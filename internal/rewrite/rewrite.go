// Package rewrite implements the query-rewriting front-end of Figure 2 and
// the evaluation pipeline of §9.3 of the Simrank++ paper: a similarity
// source proposes up to 100 ranked rewrites per query, duplicates are
// removed by Porter stemming, rewrites outside the bid-term list are
// dropped, and at most 5 survive. The number that survive is the method's
// "depth" for that query.
package rewrite

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/core"
	"simrankpp/internal/pearson"
	"simrankpp/internal/sparse"
	"simrankpp/internal/stem"
)

// Source proposes ranked rewrite candidates for a query.
type Source interface {
	// Name identifies the method in reports ("simrank", "pearson", ...).
	Name() string
	// Rewrites returns up to limit candidates for query id q, best
	// first; limit < 0 means all.
	Rewrites(q int, limit int) ([]sparse.Scored, error)
}

// Scores is the slice of the serving layer's serve.ScoreIndex that
// ResultSource consumes: the ranked partners of one query. Both a live
// *core.Result and a loaded serve.Snapshot satisfy it, which is what makes
// the filtering pipeline engine-agnostic — it never sees whether scores
// came from a just-finished run or a precomputed per-shard snapshot.
type Scores interface {
	// TopRewrites returns the k most similar queries to q, best first;
	// k < 0 means all.
	TopRewrites(q, k int) []sparse.Scored
}

// ResultSource serves rewrites from a precomputed score index (a live
// core.Result or a loaded snapshot).
type ResultSource struct {
	Index Scores
	Label string
}

// Name implements Source. Without an explicit Label it asks the index for
// its variant name (core.Result and serve.Snapshot both provide one) and
// falls back to "simrank".
func (s *ResultSource) Name() string {
	if s.Label != "" {
		return s.Label
	}
	if v, ok := s.Index.(interface{ VariantName() string }); ok {
		return v.VariantName()
	}
	return "simrank"
}

// Rewrites implements Source.
func (s *ResultSource) Rewrites(q, limit int) ([]sparse.Scored, error) {
	return s.Index.TopRewrites(q, limit), nil
}

// PearsonSource serves rewrites from the Pearson-correlation baseline.
type PearsonSource struct {
	Graph   *clickgraph.Graph
	Channel core.WeightChannel
}

// Name implements Source.
func (s *PearsonSource) Name() string { return "pearson" }

// Rewrites implements Source.
func (s *PearsonSource) Rewrites(q, limit int) ([]sparse.Scored, error) {
	return pearson.TopRewrites(s.Graph, s.Channel, q, limit), nil
}

// Candidate is one surviving rewrite.
type Candidate struct {
	Query int     // query id in the pipeline's graph
	Text  string  // the rewrite string
	Score float64 // the source's similarity score
}

// QueryNames resolves query ids to display strings — the only part of the
// click graph the filtering pipeline needs, so the pipeline runs equally
// against a *clickgraph.Graph or a serve.ScoreIndex (whose snapshot form
// carries its own string table).
type QueryNames interface {
	NumQueries() int
	Query(id int) string
}

// Pipeline applies the paper's filtering steps to a source's raw ranking.
type Pipeline struct {
	// Graph resolves query ids to strings.
	Graph QueryNames
	// TopN is how many raw candidates to consider per query; the paper
	// records the top 100.
	TopN int
	// MaxRewrites caps the surviving rewrites; the paper keeps at most 5
	// because of manual-evaluation cost.
	MaxRewrites int
	// BidTerms, when non-nil, drops rewrites whose text is not in the
	// set ("bid term filtering").
	BidTerms map[string]bool
}

// NewPipeline returns the paper's settings: top 100 raw, at most 5 kept.
func NewPipeline(g QueryNames, bidTerms map[string]bool) *Pipeline {
	return &Pipeline{Graph: g, TopN: 100, MaxRewrites: 5, BidTerms: bidTerms}
}

// ReadBidTerms parses a bid-term list — one term per line, blank lines
// ignored — into the set Pipeline.BidTerms consumes. Both the batch CLI
// and the serving daemon load their lists through this, so the two
// filtering surfaces cannot drift.
func ReadBidTerms(r io.Reader) (map[string]bool, error) {
	terms := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			terms[line] = true
		}
	}
	return terms, sc.Err()
}

// ReadBidTermsFile is ReadBidTerms over a file path.
func ReadBidTermsFile(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBidTerms(f)
}

// Rewrite runs the full pipeline for query id q against src.
func (p *Pipeline) Rewrite(src Source, q int) ([]Candidate, error) {
	return p.RewriteInto(new(Scratch), src, q)
}

// Scratch is the working memory of one goroutine's pipeline runs: the
// stem keys a list has claimed and the list itself, kept from call to
// call. The zero value is ready to use. A Pipeline holds no state of its
// own, so goroutines share one, each with its own Scratch.
type Scratch struct {
	seen map[string]struct{} // the stem keys the list has claimed
	out  []Candidate
}

// RewriteInto is Rewrite on sc's memory, so a caller filtering list after
// list allocates only while sc grows. The list it returns is sc's, valid
// until sc's next call.
//
// The names source may offer what the filter reads per candidate: the
// optional methods StemKey(id) string, the query's stem.Phrase, and
// BidTerm(id) bool, whether the pipeline's BidTerms holds the query's
// name. A source with them is asked instead of stemming or hashing the
// name (the snapshot builder derives both once per shard); both must
// agree with the name.
func (p *Pipeline) RewriteInto(sc *Scratch, src Source, q int) ([]Candidate, error) {
	if q < 0 || q >= p.Graph.NumQueries() {
		return nil, fmt.Errorf("rewrite: query id %d outside [0,%d)", q, p.Graph.NumQueries())
	}
	raw, err := src.Rewrites(q, p.TopN)
	if err != nil {
		return nil, fmt.Errorf("rewrite: source %s: %w", src.Name(), err)
	}
	keys, _ := p.Graph.(interface{ StemKey(id int) string })
	bids, _ := p.Graph.(interface{ BidTerm(id int) bool })
	stemKey := func(id int) string {
		if keys != nil {
			return keys.StemKey(id)
		}
		return stem.Phrase(p.Graph.Query(id))
	}
	// The bid test runs before stemming: an unbid candidate never claims
	// a stem or reaches the output, so the order of the two filters
	// cannot change the survivors, and under a sparse bid list most
	// candidates are dropped without being stemmed. seen holds the source
	// query's key plus one per survivor.
	if sc.seen == nil {
		sc.seen = make(map[string]struct{})
	}
	clear(sc.seen)
	sc.seen[stemKey(q)] = struct{}{}
	out := sc.out[:0]
	for _, s := range raw {
		if s.Score <= 0 {
			continue
		}
		text := p.Graph.Query(s.Node)
		if p.BidTerms != nil {
			if bids != nil && !bids.BidTerm(s.Node) || bids == nil && !p.BidTerms[text] {
				continue // no advertiser bids on this rewrite
			}
		}
		key := stemKey(s.Node)
		if _, dup := sc.seen[key]; dup {
			continue // duplicate under stemming
		}
		sc.seen[key] = struct{}{}
		out = append(out, Candidate{Query: s.Node, Text: text, Score: s.Score})
		if p.MaxRewrites > 0 && len(out) >= p.MaxRewrites {
			break
		}
	}
	sc.out = out
	return out, nil
}
