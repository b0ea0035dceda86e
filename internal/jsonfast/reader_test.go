package jsonfast

import (
	"encoding/json"
	"testing"
)

// TestReaderCanonicalLine pins which scalars the reader takes: exactly the
// ones encoding/json decodes to the same value without interpretation.
func TestReaderCanonicalLine(t *testing.T) {
	ints := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"-0", 0, true}, {" 42,", 42, true}, {"-17]", -17, true},
		{"999999999999999999", 999999999999999999, true},
		{"1000000000000000000", 0, false}, // 19 digits
		{"01", 0, false}, {"1.0", 0, false}, {"1e3", 0, false}, {"1E3", 0, false},
		{"-", 0, false}, {"+1", 0, false}, {"", 0, false}, {`"1"`, 0, false},
	}
	for _, c := range ints {
		var r Reader
		r.Reset([]byte(c.in))
		got, ok := r.Int()
		if ok != c.ok || got != c.want {
			t.Errorf("Int(%q) = %d, %v; want %d, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	strs := []struct {
		in string
		ok bool
	}{
		{`"plain"`, true}, {`""`, true}, {`"t0/mul"`, true}, {`"ünï 日本"`, true}, {`"<&>"`, true},
		{`"esc\n"`, false}, {"\"\\u0041\"", false}, {"\"ctl \x01\"", false}, {"\"bad \xff\"", false},
		{`"unterminated`, false}, {`plain`, false},
	}
	for _, c := range strs {
		var r Reader
		r.Reset([]byte(c.in))
		start, end, ok := r.String()
		if ok != c.ok {
			t.Errorf("String(%q) ok = %v, want %v", c.in, ok, c.ok)
			continue
		}
		if ok {
			var want string
			if err := json.Unmarshal([]byte(c.in), &want); err != nil || want != string(r.Data()[start:end]) {
				t.Errorf("String(%q) = %q, encoding/json reads %q (%v)", c.in, r.Data()[start:end], want, err)
			}
		}
	}
}
