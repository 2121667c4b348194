package serve

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
)

// appendRewriteJSON appends the body of a /rewrite or /similar answer —
// and, less its newline, of a /batch item — for query, method and the n
// answers answer(0..n-1) returns: byte for byte what json.Marshal of
// {"query", "method", "rewrites": []RewriteAnswer} plus a newline gives
// (FuzzRewriteJSON holds it to that), without reflection or a copy of the
// answers. A NaN or infinite score is json.Marshal's error for it, and
// dst comes back as it was.
func appendRewriteJSON(dst []byte, query, method string, n int, answer func(i int) (text string, score float64)) ([]byte, error) {
	start := len(dst)
	// Room for the usual body, one allocation when dst has none: an
	// answer is 21 bytes of framing, a score of at most 24 and, in this
	// reserve, a text of up to 51 bytes.
	dst = slices.Grow(dst, 64+len(query)+len(method)+96*n)
	dst = append(dst, `{"query":`...)
	dst = appendJSONString(dst, query)
	dst = append(dst, `,"method":`...)
	dst = appendJSONString(dst, method)
	dst = append(dst, `,"rewrites":[`...)
	for i := 0; i < n; i++ {
		text, score := answer(i)
		if math.IsNaN(score) || math.IsInf(score, 0) {
			_, err := json.Marshal(score)
			return dst[:start], err
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"text":`...)
		dst = appendJSONString(dst, text)
		dst = append(dst, `,"score":`...)
		dst = appendJSONFloat(dst, score)
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), nil
}

// plainJSON marks the bytes json.Marshal copies into a string as they
// are: printable ASCII except the quote, the backslash and the <, > and &
// it escapes for HTML.
var plainJSON = func() (t [256]bool) {
	for c := ' '; c <= '~'; c++ {
		t[c] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// appendJSONString appends s as json.Marshal writes it: copied between
// quotes when every byte is plain, and otherwise by json.Marshal itself
// (escapes, invalid UTF-8, U+2028 and U+2029).
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainJSON[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends a finite f as json.Marshal writes a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent not zero-padded.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}
