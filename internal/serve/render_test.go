package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"simrankpp/internal/core"
)

// rewriteResponse is the /rewrite and /similar payload (and a /batch
// item) as json.Marshal writes it: what appendRewriteJSON is held to and
// what the tests decode answers into.
type rewriteResponse struct {
	Query    string          `json:"query"`
	Method   string          `json:"method"`
	Rewrites []RewriteAnswer `json:"rewrites"`
}

// FuzzRewriteJSON holds the renderer byte-equal to json.Marshal of a
// rewriteResponse plus a newline, appended after whatever dst held — and,
// on a NaN or infinite score, to the error json.Marshal returns, with dst
// handed back unchanged. Seeds carry every string class json.Marshal
// treats apart (HTML characters, quotes, backslashes, control bytes,
// DEL, invalid UTF-8, U+2028 / U+2029, multi-byte text) and every float
// boundary (±0, subnormal, either side of 1e-6 and 1e21, the extremes).
func FuzzRewriteJSON(f *testing.F) {
	strs := []string{"", "camera", "1<2", "2>1", "AT&T", `say "hi"`, `back\slash\`, "\x00\t\n\r\x1f", "del\x7f",
		"bad \xff\xfe utf-8", "line\u2028para\u2029", "caf\u00e9 \U0001f50d", "~ !#$%'()*+,-./:;=?@[]^_`{|}"}
	scores := []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, -1e-7, 9.999999e-7,
		1e-6, 0.43990932569222174, 1, 123456789, 1e20, 999999999999999999999, 1e21, -1e21, 1.5e300,
		math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, s := range strs {
		f.Add(s, strs[(i+1)%len(strs)], strs[(i+2)%len(strs)], scores[i%len(scores)], scores[(i+5)%len(scores)], uint8(i))
	}
	for i, sc := range scores {
		f.Add("camera", "simrank", strs[i%len(strs)], sc, -sc, uint8(1+i%3))
	}

	f.Fuzz(func(t *testing.T, query, method, text string, score, score2 float64, n uint8) {
		answers := []RewriteAnswer{{text, score}, {query + text, score2}, {method, score * score2}}[:n%4]
		want, wantErr := json.Marshal(rewriteResponse{Query: query, Method: method, Rewrites: answers})
		const prefix = `{"results":[`
		got, err := appendRewriteJSON([]byte(prefix), query, method, len(answers), func(i int) (string, float64) {
			return answers[i].Text, answers[i].Score
		})
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("renderer error %v, json.Marshal error %v", err, wantErr)
		}
		if err != nil {
			if string(got) != prefix {
				t.Fatalf("a failed render left %q, want dst %q as it was", got, prefix)
			}
			return
		}
		if want = append([]byte(prefix), append(want, '\n')...); !bytes.Equal(got, want) {
			t.Fatalf("renderer\n %q\njson.Marshal\n %q", got, want)
		}
	})
}

// TestRewriteJSONOneAllocation: the renderer's reserve holds an answer of
// the size real graphs serve — a 40-byte text and a score of 17
// significant digits — so a 5-answer /rewrite and a 20-answer /similar
// each render into the one buffer they start with.
func TestRewriteJSONOneAllocation(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the production ones")
	}
	text := strings.Repeat("t", 40)
	for _, n := range []int{5, 20} {
		allocs := testing.AllocsPerRun(100, func() {
			appendRewriteJSON(nil, text, "weighted", n, func(i int) (string, float64) {
				return text, math.Nextafter(float64(i+1)/29, 1)
			})
		})
		if allocs != 1 {
			t.Errorf("a %d-answer body with 40-byte texts renders with %.0f allocations, want 1", n, allocs)
		}
	}
}

// TestNonFiniteScoreIsJSONMarshalError: a score json.Marshal cannot write
// answers the 500 and message json.Marshal's error made — on /similar, on
// /rewrite and as a /batch item. The snapshot holds Figure 3 with every
// query score NaN, in its score segments and its top-k lists alike.
func TestNonFiniteScoreIsJSONMarshalError(t *testing.T) {
	res := fig3Result(t, core.DefaultConfig())
	res.QueryScores.Map(func(_, _ int, _ float64) (float64, bool) { return math.NaN(), true })
	_, marshalErr := json.Marshal(math.NaN())
	h := NewServer(mustSnapshot(t, res, DefaultRewriteTopK), DefaultServerConfig()).Handler()
	for _, path := range []string{"/similar?q=camera", "/rewrite?q=camera"} {
		if code, body := get(t, h, path); code != http.StatusInternalServerError || string(body) != marshalErr.Error()+"\n" {
			t.Errorf("%s = %d %q, want 500 %q", path, code, body, marshalErr)
		}
	}
	code, body := postBatch(t, h, `{"queries":["camera"]}`)
	want := `{"results":[` + string(BatchItemError{Query: "camera", Error: marshalErr.Error(), Status: 500}.Item()) + "]}\n"
	if code != http.StatusOK || string(body) != want {
		t.Errorf("/batch = %d %s, want 200 %s", code, body, want)
	}
}
