package serve

// maxJSONDepth is encoding/json's nesting limit: text with more arrays
// and objects open at once is invalid to json.Valid and json.Unmarshal.
const maxJSONDepth = 10000

// inString marks the bytes a JSON string holds as they are: everything
// but the control characters, the quote that ends it and the backslash
// that starts an escape. Like encoding/json, the scanner does not check
// that the rest is UTF-8.
var inString = func() (t [256]bool) {
	for c := 0x20; c < 0x100; c++ {
		t[c] = true
	}
	t['"'], t['\\'] = false, false
	return t
}()

// jsonScanner steps through JSON text by the RFC 8259 grammar without
// decoding it: the /batch bodies a hop only splits or reads plain
// strings from are checked and taken apart in one pass. pos is the next
// byte of buf to read, depth the arrays and objects open around it.
type jsonScanner struct {
	buf   []byte
	pos   int
	depth int
}

// space steps over JSON whitespace.
func (s *jsonScanner) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\r', '\n':
			s.pos++
		default:
			return
		}
	}
}

// token steps over whitespace and then tok, if that is what follows.
func (s *jsonScanner) token(tok string) bool {
	s.space()
	if len(s.buf)-s.pos < len(tok) || string(s.buf[s.pos:s.pos+len(tok)]) != tok {
		return false
	}
	s.pos += len(tok)
	return true
}

// end steps over whitespace and reports whether that was all of buf.
func (s *jsonScanner) end() bool {
	s.space()
	return s.pos == len(s.buf)
}

// value steps over whitespace and one JSON value, and reports whether
// the value was well formed and left depth within maxJSONDepth. On false
// pos is somewhere inside the value.
func (s *jsonScanner) value() bool {
	s.space()
	if s.pos == len(s.buf) {
		return false
	}
	switch s.buf[s.pos] {
	case '"':
		return s.str()
	case '{':
		return s.object()
	case '[':
		return s.array()
	case 't':
		return s.token("true")
	case 'f':
		return s.token("false")
	case 'n':
		return s.token("null")
	}
	return s.number()
}

// open steps into the array or object whose bracket is at pos.
func (s *jsonScanner) open() bool {
	s.pos++
	s.depth++
	return s.depth <= maxJSONDepth
}

func (s *jsonScanner) array() bool {
	if !s.open() || !s.elements(s.value) {
		return false
	}
	s.depth--
	return true
}

// elements steps over the elements and the closing bracket of the array
// whose opening bracket is behind pos. each is called with pos at the
// start of every element, after its whitespace, and must step over it.
func (s *jsonScanner) elements(each func() bool) bool {
	if s.token("]") {
		return true
	}
	for {
		s.space()
		if !each() {
			return false
		}
		if s.token("]") {
			return true
		}
		if !s.token(",") {
			return false
		}
	}
}

func (s *jsonScanner) object() bool {
	if !s.open() {
		return false
	}
	if !s.token("}") {
		for {
			s.space()
			if !s.str() || !s.token(":") || !s.value() {
				return false
			}
			if s.token("}") {
				break
			}
			if !s.token(",") {
				return false
			}
		}
	}
	s.depth--
	return true
}

// str steps over the string that starts at pos.
func (s *jsonScanner) str() bool {
	b := s.buf
	if s.pos == len(b) || b[s.pos] != '"' {
		return false
	}
	for i := s.pos + 1; i < len(b); i++ {
		if inString[b[i]] {
			continue
		}
		switch b[i] {
		case '"':
			s.pos = i + 1
			return true
		case '\\':
			if i++; i == len(b) {
				return false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 {
					return false
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return false
					}
				}
				i += 4
			default:
				return false
			}
		default: // a control character
			return false
		}
	}
	return false
}

// number steps over the number that starts at pos:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *jsonScanner) number() bool {
	b, i := s.buf, s.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if i = digits(b, i+1); b[i-1] == '.' {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return false
		}
		i = j
	}
	s.pos = i
	return true
}

// digits returns the index of the first byte at or after i in b that is
// not a decimal digit.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// plainString steps over the string that starts at pos if it holds
// printable ASCII without escapes, and returns where in buf what it holds
// starts and ends; ok is false on any other string or token.
func (s *jsonScanner) plainString() (start, end int, ok bool) {
	b := s.buf
	if s.pos == len(b) || b[s.pos] != '"' {
		return 0, 0, false
	}
	for i := s.pos + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			start, s.pos = s.pos+1, i+1
			return start, i, true
		case c < ' ' || c > '~' || c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}
