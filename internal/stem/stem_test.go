package stem

import (
	"slices"
	"strings"
	"testing"
)

// knownVectors are classic Porter test vectors.
var knownVectors = map[string]string{
	"caresses":       "caress",
	"ponies":         "poni",
	"ties":           "ti",
	"caress":         "caress",
	"cats":           "cat",
	"feed":           "feed",
	"agreed":         "agre",
	"plastered":      "plaster",
	"bled":           "bled",
	"motoring":       "motor",
	"sing":           "sing",
	"conflated":      "conflat",
	"troubled":       "troubl",
	"sized":          "size",
	"hopping":        "hop",
	"tanned":         "tan",
	"falling":        "fall",
	"hissing":        "hiss",
	"fizzed":         "fizz",
	"failing":        "fail",
	"filing":         "file",
	"happy":          "happi",
	"sky":            "sky",
	"relational":     "relat",
	"conditional":    "condit",
	"rational":       "ration",
	"valenci":        "valenc",
	"hesitanci":      "hesit",
	"digitizer":      "digit",
	"conformabli":    "conform",
	"radicalli":      "radic",
	"differentli":    "differ",
	"vileli":         "vile",
	"analogousli":    "analog",
	"vietnamization": "vietnam",
	"predication":    "predic",
	"operator":       "oper",
	"feudalism":      "feudal",
	"decisiveness":   "decis",
	"hopefulness":    "hope",
	"callousness":    "callous",
	"formaliti":      "formal",
	"sensitiviti":    "sensit",
	"sensibiliti":    "sensibl",
	"triplicate":     "triplic",
	"formative":      "form",
	"formalize":      "formal",
	"electriciti":    "electr",
	"electrical":     "electr",
	"hopeful":        "hope",
	"goodness":       "good",
	"revival":        "reviv",
	"allowance":      "allow",
	"inference":      "infer",
	"airliner":       "airlin",
	"gyroscopic":     "gyroscop",
	"adjustable":     "adjust",
	"defensible":     "defens",
	"irritant":       "irrit",
	"replacement":    "replac",
	"adjustment":     "adjust",
	"dependent":      "depend",
	"adoption":       "adopt",
	"homologou":      "homolog",
	"communism":      "commun",
	"activate":       "activ",
	"angulariti":     "angular",
	"homologous":     "homolog",
	"effective":      "effect",
	"bowdlerize":     "bowdler",
	"probate":        "probat",
	"rate":           "rate",
	"cease":          "ceas",
	"controll":       "control",
	"roll":           "roll",
}

func TestWordKnownVectors(t *testing.T) {
	for in, want := range knownVectors {
		if got := Word(in); got != want {
			t.Errorf("Word(%q) = %q want %q", in, got, want)
		}
	}
}

func TestWordShortAndCase(t *testing.T) {
	if got := Word("a"); got != "a" {
		t.Errorf("Word(a) = %q", got)
	}
	if got := Word("at"); got != "at" {
		t.Errorf("Word(at) = %q", got)
	}
	if Word("CAMERAS") != Word("cameras") {
		t.Error("stemming not case-insensitive")
	}
}

// The reference for steps 2-4: each scans its whole rule list in order
// and the first suffix the word ends in decides, as Porter states them.
// Word scans only the rules filed under the word's last letter.

var step2ScanRules = []rule{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2Scan(w []byte) []byte {
	for _, r := range step2ScanRules {
		if w2, ok := replaceSuffix(w, r.old, r.new, 0); ok {
			return w2
		}
		if hasSuffix(w, r.old) {
			return w
		}
	}
	return w
}

var step3ScanRules = []rule{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3Scan(w []byte) []byte {
	for _, r := range step3ScanRules {
		if w2, ok := replaceSuffix(w, r.old, r.new, 0); ok {
			return w2
		}
		if hasSuffix(w, r.old) {
			return w
		}
	}
	return w
}

var step4ScanSuffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4Scan(w []byte) []byte {
	for _, s := range step4ScanSuffixes {
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

// wordScan is Word with the rule-scan steps 2-4.
func wordScan(s string) string {
	w := []byte(strings.ToLower(s))
	if len(w) <= 2 {
		return string(w)
	}
	for _, step := range []func([]byte) []byte{step1a, step1b, step1c, step2Scan, step3Scan, step4Scan, step5a, step5b} {
		w = step(w)
	}
	return string(w)
}

// stemVocabulary is the differential sweep: the known vectors, the words
// and cluster-unique tokens pathbench names its nodes with, and every
// suffix of every step grafted onto stems of measure 0 to 3, bare and
// under an inflection, so each rule is met both where it fires and where
// its measure test refuses it.
func stemVocabulary() []string {
	var words []string
	for in := range knownVectors {
		words = append(words, in)
	}
	words = append(words,
		"discounted", "refurbished", "wireless", "professional", "portable", "vintage", "waterproof", "ergonomic",
		"compact", "digital", "organic", "handmade", "industrial", "luxury", "budget", "certified",
		"cameras", "batteries", "running", "shoes", "coffee", "makers", "headphones", "mattresses", "sunglasses",
		"printers", "guitars", "watches", "backpacks", "blenders", "keyboards", "telescopes", "luggage", "speakers",
		"accessories", "comparison", "reviews", "warranty", "shipping", "clearance", "bundles", "replacement",
		"installation", "financing", "ratings", "deals", "repairs", "manuals", "coupons", "pricing",
		"c12-q34", "c0-a7", "g3-q1024", "c7-", "q9", "ad-3-1.example.com", "x", "yy", "Y", "sYstem", "ÉCOLE")
	var suffixes []string
	for _, r := range step2ScanRules {
		suffixes = append(suffixes, r.old)
	}
	for _, r := range step3ScanRules {
		suffixes = append(suffixes, r.old)
	}
	suffixes = append(suffixes, step4ScanSuffixes...)
	suffixes = append(suffixes, "sses", "ies", "ss", "s", "eed", "ed", "ing", "y", "e", "ll", "at", "bl", "iz", "sion", "tion")
	stems := []string{"", "b", "tr", "bo", "oat", "tree", "hop", "trouble", "conflat", "rel", "condit", "gener", "oper", "sensibl", "ctrl", "yyy"}
	for _, st := range stems {
		for _, sf := range suffixes {
			for _, infl := range []string{"", "s", "ed", "ing", "ly", "ness"} {
				words = append(words, st+sf+infl)
			}
		}
	}
	return words
}

// TestWordMatchesRuleScan holds Word to the rule-scan reference over the
// sweep, word by word and phrase by phrase.
func TestWordMatchesRuleScan(t *testing.T) {
	words := stemVocabulary()
	for _, w := range words {
		if got, want := Word(w), wordScan(w); got != want {
			t.Errorf("Word(%q) = %q, the rule scan %q", w, got, want)
		}
	}
	for i := 0; i+3 < len(words); i += 3 {
		p := words[i] + " " + words[i+1] + "  " + words[i+2]
		want := wordScan(words[i]) + " " + wordScan(words[i+1]) + " " + wordScan(words[i+2])
		if got := Phrase(p); got != want {
			t.Errorf("Phrase(%q) = %q, the rule scan %q", p, got, want)
		}
	}
}

// wordBefore is Word as it was before AppendWord: the word lowercased into
// a fresh slice by strings.ToLower, then the steps.
func wordBefore(s string) string {
	w := []byte(strings.ToLower(s))
	if len(w) <= 2 {
		return string(w)
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	return string(w)
}

// TestAppendWordMatchesWord holds AppendWord to Word as it was, on every
// word of the test corpora — the known vectors, the rule sweep and their
// upper-case and title-case forms, and words whose lowercase is not ASCII
// or changes their length — appended to an empty buffer and behind a
// prefix, which it must leave as it was.
func TestAppendWordMatchesWord(t *testing.T) {
	words := stemVocabulary()
	for w := range knownVectors {
		words = append(words, w)
	}
	for _, w := range slices.Clone(words) {
		if w != "" {
			words = append(words, strings.ToUpper(w), strings.ToUpper(w[:1])+w[1:])
		}
	}
	words = append(words, "Straße", "İSTANBUL", "ÀÉÎÕÜ", "KELVIN\u212a", "naïve", "CAFÉS", "日本", "Ωmega", "\xff\xfe", "a\u0130b")
	const prefix = "digit camera "
	for _, w := range words {
		want := wordBefore(w)
		if got := string(AppendWord(nil, w)); got != want {
			t.Errorf("AppendWord(nil, %q) = %q, Word was %q", w, got, want)
		}
		buf := append(make([]byte, 0, len(prefix)), prefix...) // full: the word grows it
		buf = AppendWord(buf, w)
		if got := string(buf); got != prefix+want {
			t.Errorf("AppendWord(%q, %q) = %q, want %q", prefix, w, got, prefix+want)
		}
		if got := Word(w); got != want {
			t.Errorf("Word(%q) = %q, was %q", w, got, want)
		}
	}
}

// The property the rewriting pipeline relies on: singular and plural of
// typical query words reduce to the same stem.
func TestPluralDedup(t *testing.T) {
	pairs := [][2]string{
		{"camera", "cameras"},
		{"flower", "flowers"},
		{"rewrite", "rewrites"},
		{"battery", "batteries"},
		{"query", "queries"},
	}
	for _, p := range pairs {
		if Word(p[0]) != Word(p[1]) {
			t.Errorf("stems differ: %q -> %q, %q -> %q", p[0], Word(p[0]), p[1], Word(p[1]))
		}
	}
}

func TestPhrase(t *testing.T) {
	if got := Phrase("digital  cameras"); got != "digit camera" {
		t.Errorf("Phrase = %q want %q", got, "digit camera")
	}
	if got := Phrase(""); got != "" {
		t.Errorf("Phrase(empty) = %q", got)
	}
	if Phrase("Digital Cameras") != Phrase("digital camera") {
		t.Error("Phrase not normalizing case/plural")
	}
}

func TestIdempotent(t *testing.T) {
	words := []string{"relational", "cameras", "hopefulness", "motoring", "controlling"}
	for _, w := range words {
		once := Word(w)
		twice := Word(once)
		if once != twice {
			t.Errorf("stemming not idempotent for %q: %q -> %q", w, once, twice)
		}
	}
}

// BenchmarkPhrase times the stem-dedup key of one query over two- to
// four-word phrases, the lengths the synthetic click logs produce.
func BenchmarkPhrase(b *testing.B) {
	phrases := []string{
		"digital cameras", "cheap flights to paris", "relational databases",
		"running shoes", "camera batteries", "hopefulness quotes",
		"veli beki macihis", "controlling motoring costs",
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if Phrase(phrases[i%len(phrases)]) == "" {
			b.Fatal("empty stem key")
		}
	}
}

// BenchmarkWord times one word of the differential sweep, with Word and
// with the rule-scan reference.
func BenchmarkWord(b *testing.B) {
	words := stemVocabulary()
	for _, bc := range []struct {
		name string
		fn   func(string) string
	}{{"lastletter", Word}, {"scan", wordScan}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				bc.fn(words[i%len(words)])
			}
		})
	}
}
