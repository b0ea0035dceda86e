package jsonfast

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Writer appends one indented JSON document to a buffer. Callers emit
// values in document order — Key before each member of an object — and the
// writer places separators, newlines and two-space indentation exactly
// where json.Encoder's SetIndent("", "  ") puts them, including the
// trailing newline Finish adds. The zero value is ready to use.
type Writer struct {
	b     []byte
	depth int
	// first is set right after an opening byte: the next element takes no
	// comma, and a container closed with no element stays on one line.
	first bool
	// keyed is set between a key and its value, which share a line.
	keyed bool
	err   error
}

// errNonFinite is the failure json.Encoder reports for NaN and ±Inf.
var errNonFinite = errors.New("jsonfast: unsupported value: non-finite float")

// Reset empties the writer, keeping its buffer.
func (w *Writer) Reset() { *w = Writer{b: w.b[:0]} }

// Finish ends the document and returns it, or the first error: a
// non-finite float, which json.Encoder rejects before it writes a byte.
func (w *Writer) Finish() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	w.b = append(w.b, '\n')
	return w.b, nil
}

func (w *Writer) newline() {
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

// value places the separator in front of a value or key.
func (w *Writer) value() {
	if w.keyed {
		w.keyed = false
		return
	}
	if w.depth == 0 {
		return
	}
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// Key starts an object member. k is written verbatim, so it must need no
// escaping; every key this package's callers write is a field name.
func (w *Writer) Key(k string) {
	w.value()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':', ' ')
	w.keyed = true
}

// Open starts an object ('{') or array ('[').
func (w *Writer) Open(c byte) {
	w.value()
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// Close ends the innermost object ('}') or array (']').
func (w *Writer) Close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.first = false
	w.b = append(w.b, c)
}

// Null writes null, as json.Encoder does for a nil slice or pointer.
func (w *Writer) Null() {
	w.value()
	w.b = append(w.b, "null"...)
}

// Bool writes true or false.
func (w *Writer) Bool(v bool) {
	w.value()
	w.b = strconv.AppendBool(w.b, v)
}

// Int writes an integer.
func (w *Writer) Int(v int64) {
	w.value()
	w.b = strconv.AppendInt(w.b, v, 10)
}

// Ints writes an integer array, null for a nil slice.
func (w *Writer) Ints(vs []int) {
	if vs == nil {
		w.Null()
		return
	}
	w.Open('[')
	for _, v := range vs {
		w.Int(int64(v))
	}
	w.Close(']')
}

// Float writes a float64 the way encoding/json does: the shortest
// representation that round-trips, in 'f' form unless the magnitude is
// below 1e-6 or at least 1e21, with a two-digit negative exponent cut to
// one ("1e-07" → "1e-7"). A non-finite value fails the document.
func (w *Writer) Float(f float64) {
	w.value()
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			w.err = errNonFinite
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		n := len(w.b)
		if n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

const hex = "0123456789abcdef"

// String writes s with json.Encoder's default escaping: '"' and '\\'
// escaped, control bytes as \n, \r, \t, \b, \f or \u00XX, '<', '>' and '&'
// as \u003c, \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029, and
// each byte of invalid UTF-8 as \ufffd.
func (w *Writer) String(s string) {
	w.value()
	b := append(w.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.b = append(b, '"')
}

// maxPooled caps the buffer a released Writer may keep, so one huge reply
// cannot pin its memory in the pool for the life of the process.
const maxPooled = 1 << 20

var writers = sync.Pool{New: func() any { return new(Writer) }}

// AcquireWriter returns an empty pooled writer.
func AcquireWriter() *Writer {
	w := writers.Get().(*Writer)
	w.Reset()
	return w
}

// ReleaseWriter returns w to the pool, or drops it if its buffer outgrew
// maxPooled. The bytes Finish returned are invalid afterwards.
func ReleaseWriter(w *Writer) {
	if cap(w.b) <= maxPooled {
		writers.Put(w)
	}
}
