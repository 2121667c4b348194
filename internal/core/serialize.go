package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"simrankpp/internal/clickgraph"
	"simrankpp/internal/sparse"
)

// This file persists computed similarity results so a serving front-end
// can load precomputed rewrites instead of re-running SimRank: the
// batch/online split of Figure 2 in deployment form.
//
// The format is line-oriented text, mirroring the click graph format:
//
//	#simrankpp-scores v2
//	!meta  variant=<n> iterations=<n> c1=<f> c2=<f>
//	Q <query1> <TAB> <query2> <TAB> <score>
//	A <ad1>    <TAB> <ad2>    <TAB> <score>
//
// Node names are the graph's strings, so a result can be loaded against
// any graph containing the same names. Since v2, names containing the
// format's structural characters — tab, newline, carriage return — or a
// backslash are escaped on write (\t, \n, \r, \\) and unescaped on read;
// an unknown escape is rejected with the offending line number. v1 files
// (which stored names raw and could not represent structural characters)
// are still read, with no unescaping, so files written by older releases
// keep loading byte for byte. The binary snapshot format (internal/serve)
// length-prefixes names instead and needs no escaping.

const (
	scoresHeader   = "#simrankpp-scores v2"
	scoresHeaderV1 = "#simrankpp-scores v1"
)

// escapeName makes a node name safe for one tab-separated field.
func escapeName(s string) string {
	if !strings.ContainsAny(s, "\\\t\n\r") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\t':
			b.WriteString(`\t`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescapeName inverts escapeName, rejecting truncated or unknown escapes.
func unescapeName(s string) (string, error) {
	if !strings.Contains(s, `\`) {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i == len(s) {
			return "", fmt.Errorf("truncated escape at end of name %q", s)
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		default:
			return "", fmt.Errorf("unknown escape \\%c in name %q", s[i], s)
		}
	}
	return b.String(), nil
}

// WriteResult serializes the result's query and ad pair scores.
func WriteResult(w io.Writer, r *Result) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, scoresHeader); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "!meta\tvariant=%d\titerations=%d\tc1=%s\tc2=%s\n",
		int(r.Config.Variant), r.Iterations,
		strconv.FormatFloat(r.Config.C1, 'g', -1, 64),
		strconv.FormatFloat(r.Config.C2, 'g', -1, 64)); err != nil {
		return err
	}
	var werr error
	emit := func(kind byte, n1, n2 string, v float64) bool {
		_, werr = fmt.Fprintf(bw, "%c\t%s\t%s\t%s\n", kind, escapeName(n1), escapeName(n2),
			strconv.FormatFloat(v, 'g', -1, 64))
		return werr == nil
	}
	r.QueryScores.Range(func(i, j int, v float64) bool {
		return emit('Q', r.Graph.Query(i), r.Graph.Query(j), v)
	})
	if werr != nil {
		return werr
	}
	r.AdScores.Range(func(i, j int, v float64) bool {
		return emit('A', r.Graph.Ad(i), r.Graph.Ad(j), v)
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadResult loads scores against g: node names are resolved to g's ids.
// Names absent from g are an error — scores must match the graph they
// are served with. The returned Result has the persisted iteration count
// and decay factors in its Config; Converged is not persisted and
// reports false. WriteResult lists each pair once; a stream that repeats
// a pair gets the sum of its scores.
func ReadResult(r io.Reader, g *clickgraph.Graph) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: empty scores stream")
	}
	escaped := true
	switch sc.Text() {
	case scoresHeader:
	case scoresHeaderV1:
		escaped = false
	default:
		return nil, fmt.Errorf("core: bad scores header %q", sc.Text())
	}
	res := &Result{
		Graph:       g,
		Config:      DefaultConfig(),
		QueryScores: sparse.NewPairFrontier(g.NumQueries()),
		AdScores:    sparse.NewPairFrontier(g.NumAds()),
	}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if fields[0] == "!meta" {
			if err := parseMeta(fields[1:], res); err != nil {
				return nil, fmt.Errorf("core: line %d: %v", lineNo, err)
			}
			continue
		}
		if len(fields) != 4 || (fields[0] != "Q" && fields[0] != "A") {
			return nil, fmt.Errorf("core: line %d: want 'Q|A\\tname\\tname\\tscore'", lineNo)
		}
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("core: line %d: bad score: %v", lineNo, err)
		}
		n1, n2 := fields[1], fields[2]
		if escaped {
			if n1, err = unescapeName(n1); err != nil {
				return nil, fmt.Errorf("core: line %d: %v", lineNo, err)
			}
			if n2, err = unescapeName(n2); err != nil {
				return nil, fmt.Errorf("core: line %d: %v", lineNo, err)
			}
		}
		if fields[0] == "Q" {
			i, ok1 := g.QueryID(n1)
			j, ok2 := g.QueryID(n2)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("core: line %d: query pair (%q,%q) not in graph", lineNo, n1, n2)
			}
			res.QueryScores.Add(i, j, v)
		} else {
			i, ok1 := g.AdID(n1)
			j, ok2 := g.AdID(n2)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("core: line %d: ad pair (%q,%q) not in graph", lineNo, n1, n2)
			}
			res.AdScores.Add(i, j, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	res.QueryScores.Compact()
	res.AdScores.Compact()
	return res, nil
}

func parseMeta(kvs []string, res *Result) error {
	for _, kv := range kvs {
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad meta field %q", kv)
		}
		switch parts[0] {
		case "variant":
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return fmt.Errorf("bad variant: %v", err)
			}
			res.Config.Variant = Variant(n)
		case "iterations":
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return fmt.Errorf("bad iterations: %v", err)
			}
			res.Iterations = n
			res.Config.Iterations = n
		case "c1":
			f, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return fmt.Errorf("bad c1: %v", err)
			}
			res.Config.C1 = f
		case "c2":
			f, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return fmt.Errorf("bad c2: %v", err)
			}
			res.Config.C2 = f
		default:
			// Unknown meta keys are ignored for forward compatibility.
		}
	}
	return nil
}
