package clickgraph

import (
	"math"
	"testing"
)

// FuzzParseEdge: a line ParseEdge accepts reads back, after the edge
// formatting Write uses, to the same query, ad and weights, the rate bit
// for bit. Whether the weights are possible is not its question
// (EdgeWeights.Validate's), so negative counts and NaN round-trip too.
func FuzzParseEdge(f *testing.F) {
	for _, seed := range []string{
		"camera\thp.com\t10\t2\t0.25",
		"q\ta\t0\t0\t0",
		"q\ta\t+7\t-0\t-0",
		"q\ta\t-1\t3\t1e-320",
		"q\ta\t9223372036854775807\t1\t0x1p-2",
		"q\ta\t1\t1\tNaN",
		"q\ta\t1\t1\t-Inf",
		"#q\t!ad\t1\t1\t.5",
		"\t\t1\t1\t1",
		"q\ta\t1\t2",
		"q\ta\tx\t1\t0.5",
		"q\ta\t1\t1\t0.5\t",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		q, ad, w, err := ParseEdge(line)
		if err != nil {
			return
		}
		formatted := appendEdgeLine(nil, q, ad, w)
		q2, ad2, w2, err := ParseEdge(string(formatted[:len(formatted)-1]))
		if err != nil {
			t.Fatalf("%q parsed, but its formatted line %q does not: %v", line, formatted, err)
		}
		if q2 != q || ad2 != ad || w2.Impressions != w.Impressions || w2.Clicks != w.Clicks ||
			math.Float64bits(w2.ExpectedClickRate) != math.Float64bits(w.ExpectedClickRate) {
			t.Fatalf("%q parsed to (%q, %q, %+v), its formatted line %q to (%q, %q, %+v)",
				line, q, ad, w, formatted, q2, ad2, w2)
		}
	})
}
