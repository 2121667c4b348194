package clickgraph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is one edge per line:
//
//	query <TAB> ad <TAB> impressions <TAB> clicks <TAB> expectedClickRate
//
// with '#'-prefixed comment lines and blank lines ignored. Isolated nodes
// can be declared with "!query <TAB> name" / "!ad <TAB> name" lines. It is
// the interchange format between cmd/clickgen, cmd/partition, cmd/simrank
// and cmd/experiments.

// CheckName reports whether the line format can carry name as a node of
// the given side. A name cannot hold a tab or a newline (the field and line
// separators), end in a carriage return (the reader strips one from the end
// of a line, which is where a declared name sits) or, for a query, start
// with '#' (an edge line starts with its query, and a line that starts with
// '#' is a comment).
func CheckName(side Side, name string) error {
	switch {
	case strings.ContainsAny(name, "\t\n"):
		return fmt.Errorf("clickgraph: %s name %q contains a tab or a newline", side, name)
	case strings.HasSuffix(name, "\r"):
		return fmt.Errorf("clickgraph: %s name %q ends in a carriage return", side, name)
	case side == QuerySide && strings.HasPrefix(name, "#"):
		return fmt.Errorf("clickgraph: query name %q starts with '#', which begins a comment line", name)
	}
	return nil
}

// Write serializes g in the text edge format. Edges appear in (query id,
// ad id) order, so output is deterministic for a given graph. A name the
// format cannot carry (CheckName) is an error: the file would read back as
// a different graph.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# click graph: %d queries, %d ads, %d edges\n",
		g.NumQueries(), g.NumAds(), g.NumEdges()); err != nil {
		return err
	}
	// Declare isolated nodes so round-tripping preserves them.
	for q, name := range g.queries {
		if err := CheckName(QuerySide, name); err != nil {
			return err
		}
		if g.QueryDegree(q) == 0 {
			if _, err := fmt.Fprintf(bw, "!query\t%s\n", name); err != nil {
				return err
			}
		}
	}
	for a, name := range g.ads {
		if err := CheckName(AdSide, name); err != nil {
			return err
		}
		if g.AdDegree(a) == 0 {
			if _, err := fmt.Fprintf(bw, "!ad\t%s\n", name); err != nil {
				return err
			}
		}
	}
	var werr error
	g.Edges(func(q, a int, ew EdgeWeights) bool {
		_, werr = fmt.Fprintf(bw, "%s\t%s\t%d\t%d\t%s\n",
			g.Query(q), g.Ad(a), ew.Impressions, ew.Clicks,
			strconv.FormatFloat(ew.ExpectedClickRate, 'g', -1, 64))
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// Read parses a graph in the text edge format.
func Read(r io.Reader) (*Graph, error) {
	b := NewBuilder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r\n")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		switch {
		case fields[0] == "!query" && len(fields) == 2:
			b.AddQuery(fields[1])
			continue
		case fields[0] == "!ad" && len(fields) == 2:
			b.AddAd(fields[1])
			continue
		}
		if len(fields) != 5 {
			return nil, fmt.Errorf("clickgraph: line %d: want 5 tab-separated fields, got %d", lineNo, len(fields))
		}
		impr, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("clickgraph: line %d: bad impressions: %v", lineNo, err)
		}
		clicks, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("clickgraph: line %d: bad clicks: %v", lineNo, err)
		}
		rate, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("clickgraph: line %d: bad rate: %v", lineNo, err)
		}
		if err := b.AddEdge(fields[0], fields[1], EdgeWeights{
			Impressions: impr, Clicks: clicks, ExpectedClickRate: rate,
		}); err != nil {
			return nil, fmt.Errorf("clickgraph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}
