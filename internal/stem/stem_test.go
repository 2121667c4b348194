package stem

import "testing"

// Classic Porter test vectors.
func TestWordKnownVectors(t *testing.T) {
	cases := map[string]string{
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
	for in, want := range cases {
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
