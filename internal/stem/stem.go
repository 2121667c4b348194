// Package stem implements the Porter stemming algorithm (Porter, 1980).
// The Simrank++ evaluation pipeline (§9.3) uses stemming to filter out
// duplicate query rewrites: "camera" and "cameras" reduce to the same stem
// and only one survives.
package stem

import "strings"

// Word reduces a single word to its Porter stem, lowercased first. Words
// shorter than three letters are returned lowercased, per the original
// algorithm.
func Word(s string) string { return string(AppendWord(nil, s)) }

// AppendWord appends Word(s) to dst and returns the extended buffer. The
// word is lowercased into dst and stemmed there in place — no step writes
// past the word's end — so a caller that stems many lowercase words into
// one buffer allocates only when that buffer grows (strings.ToLower
// returns such a word as it is).
func AppendWord(dst []byte, s string) []byte {
	n := len(dst)
	dst = append(dst, strings.ToLower(s)...)
	w := dst[n:]
	// Every suffix a step tests ends in a letter, so a word that does not
	// (a model number, a unique token) is its own stem.
	if len(w) <= 2 || w[len(w)-1] < 'a' || w[len(w)-1] > 'z' {
		return dst
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return dst[:n+len(w)]
}

// Phrase stems each whitespace-separated word of a query and rejoins with
// single spaces, the normalization used for duplicate-rewrite detection.
func Phrase(s string) string {
	fields := strings.Fields(s)
	for i, f := range fields {
		fields[i] = Word(f)
	}
	return strings.Join(fields, " ")
}

// isConsonant reports whether w[i] is a consonant in Porter's sense:
// letters other than aeiou, with y consonant only when preceded by a
// vowel... precisely: y is a consonant when at position 0 or when the
// previous letter is a vowel-position consonant.
func isConsonant(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isConsonant(w, i-1)
	default:
		return true
	}
}

// measure returns m, the number of VC sequences in w[:len].
func measure(w []byte) int {
	m := 0
	i := 0
	n := len(w)
	// Skip initial consonants.
	for i < n && isConsonant(w, i) {
		i++
	}
	for i < n {
		// Vowel run.
		for i < n && !isConsonant(w, i) {
			i++
		}
		if i >= n {
			break
		}
		// Consonant run closes one VC.
		for i < n && isConsonant(w, i) {
			i++
		}
		m++
	}
	return m
}

func containsVowel(w []byte) bool {
	for i := range w {
		if !isConsonant(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleConsonant reports whether w ends in two identical consonants.
func endsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isConsonant(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isConsonant(w, n-3) || isConsonant(w, n-2) || !isConsonant(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix old with new if the stem before old has
// measure > minM; reports whether a replacement happened. minM < 0 means
// "no measure condition". No rule's new is longer than its old, so the
// replacement is written in place over w.
func replaceSuffix(w []byte, old, new string, minM int) ([]byte, bool) {
	if !hasSuffix(w, old) {
		return w, false
	}
	stem := w[:len(w)-len(old)]
	if minM >= 0 && measure(stem) <= minM {
		return w, false
	}
	return append(stem, new...), true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if w2, ok := replaceSuffix(w, "eed", "ee", 0); ok {
		return w2
	}
	if hasSuffix(w, "eed") {
		return w
	}
	var stem []byte
	switch {
	case hasSuffix(w, "ed") && containsVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case hasSuffix(w, "ing") && containsVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleConsonant(stem):
		switch stem[len(stem)-1] {
		case 'l', 's', 'z':
			return stem
		}
		return stem[:len(stem)-1]
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && containsVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

// rule is one suffix rewrite of steps 2 and 3.
type rule struct{ old, new string }

// byLastLetter files rules under the last letter of their suffix, each
// list in the rules' order: only a suffix ending in the word's last letter
// can match, so a step scans that list alone and still takes the first
// matching rule of the full list.
func byLastLetter[T any](rules []T, suffix func(T) string) [26][]T {
	var idx [26][]T
	for _, r := range rules {
		s := suffix(r)
		c := s[len(s)-1] - 'a'
		idx[c] = append(idx[c], r)
	}
	return idx
}

// candidates returns the list of idx filed under w's last letter; a word
// ending in anything but a-z has none.
func candidates[T any](idx *[26][]T, w []byte) []T {
	if len(w) == 0 {
		return nil
	}
	c := w[len(w)-1] - 'a'
	if c >= 26 {
		return nil
	}
	return idx[c]
}

var step2Rules = byLastLetter([]rule{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}, func(r rule) string { return r.old })

// applyFirst applies the first rule whose suffix w ends in, if the stem
// before it has measure > 0; a matching suffix ends the scan either way.
func applyFirst(w []byte, rules []rule) []byte {
	for _, r := range rules {
		if hasSuffix(w, r.old) {
			w2, _ := replaceSuffix(w, r.old, r.new, 0)
			return w2
		}
	}
	return w
}

func step2(w []byte) []byte { return applyFirst(w, candidates(&step2Rules, w)) }

var step3Rules = byLastLetter([]rule{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}, func(r rule) string { return r.old })

func step3(w []byte) []byte { return applyFirst(w, candidates(&step3Rules, w)) }

var step4Suffixes = byLastLetter([]string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}, func(s string) string { return s })

func step4(w []byte) []byte {
	for _, s := range candidates(&step4Suffixes, w) {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if s == "ion" {
			if len(stem) == 0 || (stem[len(stem)-1] != 's' && stem[len(stem)-1] != 't') {
				return w
			}
		}
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if endsDoubleConsonant(w) && w[len(w)-1] == 'l' && measure(w[:len(w)-1]) > 1 {
		return w[:len(w)-1]
	}
	return w
}
