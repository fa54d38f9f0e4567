package fulltext

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize checks the tokenizer's postconditions on arbitrary
// input: tokens are non-empty, lower-case, and consist of letters and
// digits only.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"Hacking & RSI", "1999", "", "!!!", "a-b_c",
		"Bob Byte", "ÄÖÜ straße", "日本語 text", "\x00\xff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, tok := range Tokenize(in) {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
					t.Fatalf("token %q contains separator %q", tok, r)
				}
				if unicode.IsUpper(r) {
					t.Fatalf("token %q not lower-cased", tok)
				}
			}
		}
	})
}

// FuzzSearchSubstring checks the indexed substring search against the
// value scan it replaces. The first input is the stored value set, one
// value per line; the second is the term.
func FuzzSearchSubstring(f *testing.F) {
	for _, c := range [][2]string{
		{"Hacking & RSI\nHow to Hack", "Hack"},
		{"probeA17\nprobeA1", "probeA1"},
		{"Bob Byte\nBytes", "b Byte"},
		{"K\nk\nK", "K"},
		{"İstanbul\nistanbul", "stanbul"},
		{"Straẞe\nstraße", "ße"},
		{"été", "é"},
		{"a-b\n--", "-"},
		{"\xc3\xa9t\xff\n\xa9t", "\xa9t"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, values, sub string) {
		r := rand.New(rand.NewSource(int64(len(values))))
		idx := valuesIndex(t, r, strings.Split(values, "\n"))
		checkSubstringEquivalence(t, idx, []string{sub})
	})
}
