// Package jsonfast is the reflection-free JSON codec of the synchronous
// scheduling routes. Reader walks the canonical subset of JSON a client
// library writes — exact keys, plain strings, integers — and reports
// anything else as "not canonical" instead of interpreting it, so callers
// can hand such input to encoding/json and get exactly its result. Writer
// appends values with the bytes json.Encoder produces under
// SetIndent("", "  "): the same indentation, float formatting and
// HTML-safe string escaping.
package jsonfast

import "unicode/utf8"

// Reader is a cursor over one JSON document. Every method skips leading
// whitespace and returns false, leaving the cursor anywhere, on input
// outside the canonical subset: a string with an escape, a control byte or
// invalid UTF-8, a number that is not a plain integer of at most 18 digits,
// or a byte other than the one expected.
type Reader struct {
	data []byte
	pos  int
}

// Reset points the reader at the start of data.
func (r *Reader) Reset(data []byte) { r.data, r.pos = data, 0 }

// Data returns the document the reader walks; String spans index into it.
func (r *Reader) Data() []byte { return r.data }

func (r *Reader) skipSpace() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// Peek returns the next non-space byte without consuming it, 0 at the end.
func (r *Reader) Peek() byte {
	r.skipSpace()
	if r.pos < len(r.data) {
		return r.data[r.pos]
	}
	return 0
}

// Byte consumes c.
func (r *Reader) Byte(c byte) bool {
	if r.Peek() != c {
		return false
	}
	r.pos++
	return true
}

// Open consumes the opening byte of an object or array ('{' or '[') and
// reports whether the container holds any element; an empty container is
// consumed whole.
func (r *Reader) Open(open, close byte) (more, ok bool) {
	if !r.Byte(open) {
		return false, false
	}
	if r.Byte(close) {
		return false, true
	}
	return true, true
}

// Next follows an element: it consumes the ',' before another element or
// the closing byte.
func (r *Reader) Next(close byte) (more, ok bool) {
	switch r.Peek() {
	case ',':
		r.pos++
		return true, true
	case close:
		r.pos++
		return false, true
	}
	return false, false
}

// Key reads an object key and the ':' after it.
func (r *Reader) Key() ([]byte, bool) {
	start, end, ok := r.String()
	if !ok || !r.Byte(':') {
		return nil, false
	}
	return r.data[start:end], true
}

// String reads a string that decodes to its own bytes and returns their
// span in Data.
func (r *Reader) String() (start, end int, ok bool) {
	if !r.Byte('"') {
		return 0, 0, false
	}
	start = r.pos
	ascii := true
	for i := start; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			if !ascii && !utf8.Valid(r.data[start:i]) {
				return 0, 0, false
			}
			r.pos = i + 1
			return start, i, true
		case c == '\\' || c < 0x20:
			return 0, 0, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return 0, 0, false
}

// Int reads an integer literal of at most 18 digits, so it fits an int64
// without an overflow check. A fraction or exponent is not canonical.
func (r *Reader) Int() (int64, bool) {
	r.skipSpace()
	i, neg := r.pos, false
	if i < len(r.data) && r.data[i] == '-' {
		neg = true
		i++
	}
	digits := i
	var v int64
	for i < len(r.data) && r.data[i] >= '0' && r.data[i] <= '9' {
		v = v*10 + int64(r.data[i]-'0')
		i++
	}
	n := i - digits
	if n == 0 || n > 18 || (n > 1 && r.data[digits] == '0') {
		return 0, false
	}
	if i < len(r.data) {
		if c := r.data[i]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	r.pos = i
	if neg {
		v = -v
	}
	return v, true
}

// End reports whether only whitespace is left.
func (r *Reader) End() bool {
	r.skipSpace()
	return r.pos == len(r.data)
}
