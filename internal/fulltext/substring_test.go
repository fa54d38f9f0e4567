package fulltext

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ncq/internal/datagen"
	"ncq/internal/monetx"
	"ncq/internal/xmltree"
)

// pieces are the building blocks of the random values and terms: mixed
// case, tokens nested inside longer tokens, runes whose lower case
// differs in length or script (Kelvin sign, dotted capital I, capital
// sharp s), combining marks, punctuation and invalid UTF-8.
var pieces = []string{
	"probeA1", "probeA17", "ProbeA1", "Bit", "bit", "BIT", "Bob Byte",
	"1999", "ICDE", "icde", "K", "\u212a", "k", "\u0130", "i", "I",
	"\u1e9e", "\u00df", "SS", "e\u0301", "\u00e9", "\u0301", "\u65e5\u672c", "\u01c5", "\u2168",
	"\xff", "\xc3", "\xa9", "\xe2\x82", "-", " ", "&", "--", ".", "_",
}

// randomValue concatenates a few pieces, sometimes with separators.
func randomValue(r *rand.Rand) string {
	var b strings.Builder
	for n := 1 + r.Intn(4); n > 0; n-- {
		b.WriteString(pieces[r.Intn(len(pieces))])
		if r.Intn(2) == 0 {
			b.WriteString([]string{" ", "-", ", ", ""}[r.Intn(4)])
		}
	}
	return b.String()
}

// valuesIndex indexes the values as the character data and attribute
// values of elements under two different paths.
func valuesIndex(t testing.TB, r *rand.Rand, values []string) *Index {
	t.Helper()
	b := xmltree.NewBuilder("root")
	for _, v := range values {
		label := []string{"a", "b"}[r.Intn(2)]
		if r.Intn(3) == 0 {
			b.Element(b.Root(), label, xmltree.Attr{Name: "k", Value: v})
			continue
		}
		b.Text(b.Element(b.Root(), label), v)
	}
	doc, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	store, err := monetx.Load(doc)
	if err != nil {
		t.Fatal(err)
	}
	return New(store)
}

// randomTerms draws terms from the index's stored values: byte-sliced
// substrings (which may split a rune), whole values, case variants and
// fresh piece combinations, plus punctuation-only terms.
func randomTerms(r *rand.Rand, idx *Index, n int) []string {
	terms := []string{"-", " ", "&", ".", "--", "\xff", "\u0301", "zzz"}
	for len(terms) < n {
		v := idx.values[r.Intn(len(idx.values))]
		switch r.Intn(5) {
		case 0:
			terms = append(terms, v)
		case 1:
			terms = append(terms, strings.ToUpper(v), strings.ToLower(v))
		case 2:
			terms = append(terms, randomValue(r))
		default:
			i := r.Intn(len(v))
			j := i + 1 + r.Intn(len(v)-i)
			terms = append(terms, v[i:j])
		}
	}
	return terms
}

// checkSubstringEquivalence compares the indexed substring search with
// the value scan it replaces.
func checkSubstringEquivalence(t *testing.T, idx *Index, terms []string) {
	t.Helper()
	for _, sub := range terms {
		got := idx.SearchSubstring(sub)
		var want []Hit
		if sub != "" {
			want = idx.SearchFunc(func(v string) bool { return strings.Contains(v, sub) })
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("SearchSubstring(%q) = %d hits %v, scan = %d hits %v", sub, len(got), got, len(want), want)
		}
	}
}

// TestSearchSubstringEquivalenceRandom compares the indexed substring
// search with the value scan on random stores built from pieces, then
// on the Figure-1 fixture and the DBLP and multimedia corpora the
// benchmarks use.
func TestSearchSubstringEquivalenceRandom(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(12))
		for i := 0; i < 200; i++ {
			values := make([]string, 1+r.Intn(60))
			for j := range values {
				values[j] = randomValue(r)
			}
			idx := valuesIndex(t, r, values)
			checkSubstringEquivalence(t, idx, randomTerms(r, idx, 120))
		}
	})
	for _, c := range []struct {
		name string
		doc  *xmltree.Document
	}{
		{"fig1", xmltree.Fig1()},
		{"dblp", datagen.DBLP(datagen.DefaultDBLPConfig())},
		{"multimedia", datagen.Multimedia(datagen.DefaultMultimediaConfig())},
	} {
		t.Run(c.name, func(t *testing.T) {
			store, err := monetx.Load(c.doc)
			if err != nil {
				t.Fatal(err)
			}
			idx := New(store)
			r := rand.New(rand.NewSource(7))
			terms := append(randomTerms(r, idx, 150),
				"Hack", "hack", "ICDE", "1999", "199", "Bit", "probeA1", "probeA17", "landscape")
			checkSubstringEquivalence(t, idx, terms)
		})
	}
}

func TestAppendLongestToken(t *testing.T) {
	for in, want := range map[string]string{
		"":              "",
		"--":            "",
		"Bob Byte":      "byte",
		"a Bcd ef":      "bcd",
		"probeA17 x":    "probea17",
		"\u212a":        "k",
		"\u0130x":       "ix",
		"e\u0301":       "e",
		"\xffAb\xc3cd":  "ab",
		"ICDE 1999-abc": "icde",
	} {
		if got := string(appendLongestToken([]byte("prefix"), in)); got != "prefix"+want {
			t.Errorf("appendLongestToken(%q) = %q, want %q", in, got, "prefix"+want)
		}
	}
}
