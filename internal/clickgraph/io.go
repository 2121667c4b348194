package clickgraph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The text format is one edge per line:
//
//	query <TAB> ad <TAB> impressions <TAB> clicks <TAB> expectedClickRate
//
// with '#'-prefixed comment lines and blank lines ignored, and nodes
// declared with "!query <TAB> name" / "!ad <TAB> name" lines. Read interns
// names in the order it meets them; Write declares every query and then
// every ad in id order before the first edge, so Read(Write(g)) keeps
// every id. It is the interchange format between cmd/clickgen,
// cmd/partition, cmd/simrank and cmd/experiments, the /ingest body (edge
// lines only, ingest.ReadRecords) and the graph the fold state saves.
// This package is the only code that parses, checks or writes it.

// declPrefix starts a node declaration line, by side.
var declPrefix = [...]string{QuerySide: "!query\t", AdSide: "!ad\t"}

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

// ParseEdge splits one edge line into its five fields and parses the three
// numbers. It does not check the weights (EdgeWeights.Validate does) and
// knows nothing of comments, declarations or line endings: those are the
// caller's.
func ParseEdge(line string) (query, ad string, w EdgeWeights, err error) {
	f := strings.Split(line, "\t")
	if len(f) != 5 {
		return "", "", w, fmt.Errorf("clickgraph: edge line has %d tab-separated fields, want 5 (query ad impressions clicks rate)", len(f))
	}
	if w.Impressions, err = strconv.ParseInt(f[2], 10, 64); err != nil {
		return "", "", w, fmt.Errorf("clickgraph: bad impressions %q: %v", f[2], err)
	}
	if w.Clicks, err = strconv.ParseInt(f[3], 10, 64); err != nil {
		return "", "", w, fmt.Errorf("clickgraph: bad clicks %q: %v", f[3], err)
	}
	if w.ExpectedClickRate, err = strconv.ParseFloat(f[4], 64); err != nil {
		return "", "", w, fmt.Errorf("clickgraph: bad rate %q: %v", f[4], err)
	}
	return f[0], f[1], w, nil
}

// appendEdgeLine appends the line Write emits for one edge, newline
// included; ParseEdge reads it back to the same fields, the rate bit for
// bit.
func appendEdgeLine(dst []byte, query, ad string, w EdgeWeights) []byte {
	dst = append(append(append(dst, query...), '\t'), ad...)
	dst = strconv.AppendInt(append(dst, '\t'), w.Impressions, 10)
	dst = strconv.AppendInt(append(dst, '\t'), w.Clicks, 10)
	dst = strconv.AppendFloat(append(dst, '\t'), w.ExpectedClickRate, 'g', -1, 64)
	return append(dst, '\n')
}

// Write serializes g in the text edge format: every query declared in id
// order, then every ad, then the edges in (query id, ad id) order, so the
// output is deterministic and reads back with the same ids. A name the
// format cannot carry (CheckName) is an error: the file would read back as
// a different graph.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for side, names := range [][]string{QuerySide: g.queries, AdSide: g.ads} {
		for _, name := range names {
			if err := CheckName(Side(side), name); err != nil {
				return err
			}
			bw.WriteString(declPrefix[side])
			bw.WriteString(name)
			bw.WriteByte('\n')
		}
	}
	var line []byte
	g.Edges(func(q, a int, ew EdgeWeights) bool {
		line = appendEdgeLine(line[:0], g.queries[q], g.ads[a], ew)
		_, err := bw.Write(line)
		return err == nil
	})
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
		if name, ok := strings.CutPrefix(line, declPrefix[QuerySide]); ok && !strings.Contains(name, "\t") {
			b.AddQuery(name)
			continue
		}
		if name, ok := strings.CutPrefix(line, declPrefix[AdSide]); ok && !strings.Contains(name, "\t") {
			b.AddAd(name)
			continue
		}
		query, ad, w, err := ParseEdge(line)
		if err == nil {
			err = b.AddEdge(query, ad, w)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// ReadFile reads the graph file at path.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
