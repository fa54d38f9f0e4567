// Package fulltext provides the full-text search engine the paper
// combines with the meet operator ("it can serve as a sensible and
// valuable add-on to an already existing search engine for
// semi-structured or XML data", Section 5).
//
// The engine indexes every string association of a Monet XML store —
// the character data of cdata nodes and all attribute values — in an
// inverted index keyed by lower-cased token.
//
// The index is columnar, matching the path-partitioned binary-relation
// layout it is built over: all associations live in one table of
// parallel columns (owner OID, attribute path, value id) sorted by
// (owner, path), string values are interned once in a shared value
// table — one 4-byte value id per association instead of one string
// copy per token×association. The distinct tokens form a sorted
// dictionary, stored as one NUL-separated buffer with token start
// offsets and indexed by a suffix array; the postings are in CSR form,
// one flat slice of row ids into the association table with per-token
// offsets, each token's rows in ascending order. Single-token search
// binary-searches the dictionary and gathers one posting list; phrase
// search merges sorted postings before verification.
//
// Substring search, the semantics of the paper's `contains`
// predicate, goes through the same postings: an occurrence of a term's
// token lies inside one token of the value, so the suffix array finds
// every dictionary token containing the term's longest token, their
// postings give the candidate rows, and each candidate is verified
// with a case-sensitive substring test. Only a term without any letter
// or digit falls back to a scan over the distinct stored values.
//
// A hit identifies the node carrying the string: the cdata node's OID
// for character data, the owning element's OID for attribute values.
// These owner OIDs are exactly the inputs the meet operator expects,
// and Groups partitions them by element path — the R_1 … R_n relations
// of the paper's Figure 5.
package fulltext

import (
	"index/suffixarray"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"ncq/internal/bat"
	"ncq/internal/monetx"
	"ncq/internal/pathsum"
)

// Hit is one matched string association.
type Hit struct {
	Owner bat.OID        // node carrying the string (cdata node or attribute owner)
	Path  pathsum.PathID // the attribute path of the string association
	Value string         // the full stored string
}

// valueID indexes the shared value table: every stored string is
// interned once and referenced by id from the association columns.
type valueID uint32

// Index is an inverted index over all string associations of a store.
type Index struct {
	store  *monetx.Store
	values []string // interned distinct strings, in first-seen order

	// The association table: one row per stored string association,
	// sorted by (owner, path). Predicate scans sweep it instead of
	// re-walking the store's string relations, evaluating the
	// predicate once per distinct value.
	owners []bat.OID
	paths  []pathsum.PathID
	vals   []valueID

	// The token dictionary: the distinct tokens in ascending order,
	// each followed by a NUL byte in dict (no token contains one, so
	// no match of a token-free needle spans two tokens). Token k is
	// dict[starts[k] : starts[k+1]-1]; sa indexes dict for substring
	// lookups.
	dict   []byte
	starts []int32
	sa     *suffixarray.Index

	// The postings in CSR form: token k's rows are
	// postRows[postOff[k]:postOff[k+1]], the sorted row ids of the
	// associations containing it. Row order is (owner, path) order,
	// so a posting list materialises into an ordered result with a
	// single gather pass, and intersecting two postings is a linear
	// merge of sorted ints.
	postOff  []int32
	postRows []int32
}

// Tokenize splits s into lower-cased maximal runs of letters and
// digits. "Hacking & RSI" tokenizes to ["hacking", "rsi"]. Tokens are
// cloned, so retaining one does not pin s in memory.
func Tokenize(s string) []string {
	toks := appendTokens(nil, s)
	for i, t := range toks {
		toks[i] = strings.Clone(t)
	}
	return toks
}

// appendTokens appends the tokens of s to dst. Tokens are sliced out
// of s (or of one lower-cased copy when s contains upper-case runes)
// rather than built rune by rune, so tokenizing allocates at most once
// per value instead of once per token. The tokens alias s — fine for
// the index build, which retains every value in the value table
// anyway; the exported Tokenize clones them instead.
func appendTokens(dst []string, s string) []string {
	lower := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf || ('A' <= c && c <= 'Z') {
			lower = false
			break
		}
	}
	if !lower {
		// Per-rune lowering preserves letter/digit runs, so token
		// boundaries in the lowered copy match those in s.
		s = strings.Map(unicode.ToLower, s)
	}
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// firstToken returns the first token of s lower-cased, the remainder
// of s after it, and whether a token was found. For terms that are
// already lower-case it allocates nothing.
func firstToken(s string) (tok, rest string, ok bool) {
	start := -1
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			return lowerToken(s[start:i]), s[i:], true
		}
	}
	if start >= 0 {
		return lowerToken(s[start:]), "", true
	}
	return "", "", false
}

func lowerToken(t string) string {
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= utf8.RuneSelf || ('A' <= c && c <= 'Z') {
			return strings.Map(unicode.ToLower, t)
		}
	}
	return t
}

// dedupTokens removes duplicate tokens in place, keeping first
// occurrences in order. Values carry a handful of tokens almost
// always, so the small-slice sweep beats a per-association set
// allocation (which used to dominate index build on token-dense
// corpora); token-heavy values (long cdata passages) fall back to a
// set so one big string cannot make the build quadratic.
func dedupTokens(toks []string) []string {
	const smallDedup = 32
	if len(toks) > smallDedup {
		seen := make(map[string]struct{}, len(toks))
		w := 0
		for _, t := range toks {
			if _, dup := seen[t]; !dup {
				seen[t] = struct{}{}
				toks[w] = t
				w++
			}
		}
		return toks[:w]
	}
	w := 0
	for _, t := range toks {
		dup := false
		for j := 0; j < w; j++ {
			if toks[j] == t {
				dup = true
				break
			}
		}
		if !dup {
			toks[w] = t
			w++
		}
	}
	return toks[:w]
}

// New builds the inverted index for the store by scanning every string
// relation in the path summary's catalogue.
func New(store *monetx.Store) *Index {
	idx := &Index{store: store}
	sum := store.Summary()
	intern := make(map[string]valueID)
	tokIDs := make(map[string]int32)
	var toks []string // distinct tokens, in first-seen order
	// The deduplicated token ids of every interned value, in CSR form:
	// value v's are valToks[valOff[v]:valOff[v+1]].
	valOff := []int32{0}
	var valToks []int32
	var scratch []string
	for _, pid := range sum.AllPaths() {
		if sum.Kind(pid) != pathsum.Attr {
			continue
		}
		rel := store.Strings(pid)
		if rel == nil {
			continue
		}
		for i := 0; i < rel.Len(); i++ {
			owner, value := rel.Head(i), rel.Tail(i)
			vid, ok := intern[value]
			if !ok {
				vid = valueID(len(idx.values))
				intern[value] = vid
				idx.values = append(idx.values, value)
				scratch = dedupTokens(appendTokens(scratch[:0], value))
				for _, tok := range scratch {
					id, ok := tokIDs[tok]
					if !ok {
						id = int32(len(toks))
						tokIDs[tok] = id
						toks = append(toks, tok)
					}
					valToks = append(valToks, id)
				}
				valOff = append(valOff, int32(len(valToks)))
			}
			idx.owners = append(idx.owners, owner)
			idx.paths = append(idx.paths, pid)
			idx.vals = append(idx.vals, vid)
		}
	}
	idx.sortRows()

	// Number the tokens in sorted order and lay out the dictionary.
	slices.Sort(toks)
	rank := make([]int32, len(toks))
	idx.starts = make([]int32, 0, len(toks)+1)
	for k, tok := range toks {
		rank[tokIDs[tok]] = int32(k)
		idx.starts = append(idx.starts, int32(len(idx.dict)))
		idx.dict = append(append(idx.dict, tok...), 0)
	}
	idx.starts = append(idx.starts, int32(len(idx.dict)))
	idx.sa = suffixarray.New(idx.dict)
	for i, id := range valToks {
		valToks[i] = rank[id]
	}

	// Count each token's rows, then fill the postings by sweeping the
	// rows in their final order: every posting list comes out sorted.
	idx.postOff = make([]int32, len(toks)+1)
	for _, vid := range idx.vals {
		for _, k := range valToks[valOff[vid]:valOff[vid+1]] {
			idx.postOff[k+1]++
		}
	}
	for k := 1; k < len(idx.postOff); k++ {
		idx.postOff[k] += idx.postOff[k-1]
	}
	idx.postRows = make([]int32, idx.postOff[len(toks)])
	next := slices.Clone(idx.postOff[:len(toks)])
	for r, vid := range idx.vals {
		for _, k := range valToks[valOff[vid]:valOff[vid+1]] {
			idx.postRows[next[k]] = int32(r)
			next[k]++
		}
	}
	return idx
}

// sortRows orders the association table by (owner, path).
func (idx *Index) sortRows() {
	n := len(idx.owners)
	// The scan emits rows per relation in ascending path-id order, so
	// for one owner the original row order already is path order:
	// sorting packed (owner, row) keys sorts by (owner, path) — and an
	// (owner, path) pair identifies at most one association, so the
	// order is total — while keeping the permutation in the low bits.
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(idx.owners[i])<<32 | uint64(uint32(i))
	}
	slices.Sort(keys)
	owners := make([]bat.OID, n)
	paths := make([]pathsum.PathID, n)
	vals := make([]valueID, n)
	for newPos, key := range keys {
		old := int32(uint32(key))
		owners[newPos] = idx.owners[old]
		paths[newPos] = idx.paths[old]
		vals[newPos] = idx.vals[old]
	}
	idx.owners, idx.paths, idx.vals = owners, paths, vals
}

// Store returns the store the index was built over.
func (idx *Index) Store() *monetx.Store { return idx.store }

// Terms returns the number of distinct tokens in the index.
func (idx *Index) Terms() int { return len(idx.starts) - 1 }

// token returns dictionary token k (without its NUL terminator).
func (idx *Index) token(k int) []byte {
	return idx.dict[idx.starts[k] : idx.starts[k+1]-1]
}

// postings returns the sorted row ids of the associations containing
// tok as a token, found by binary search over the dictionary. The
// slice is capped so an append can never clobber the next token's
// posting list.
func (idx *Index) postings(tok string) []int32 {
	k := sort.Search(idx.Terms(), func(k int) bool { return string(idx.token(k)) >= tok })
	if k == idx.Terms() || string(idx.token(k)) != tok {
		return nil
	}
	return idx.tokenRows(k)
}

// tokenRows returns dictionary token k's posting list.
func (idx *Index) tokenRows(k int) []int32 {
	lo, hi := idx.postOff[k], idx.postOff[k+1]
	return idx.postRows[lo:hi:hi]
}

// hits materialises a posting list (sorted association row ids) as
// Hits. Postings are sorted at build time, so this is the single copy
// a search result costs.
func (idx *Index) hits(rows []int32) []Hit {
	if len(rows) == 0 {
		return nil
	}
	out := make([]Hit, len(rows))
	for i, r := range rows {
		out[i] = Hit{Owner: idx.owners[r], Path: idx.paths[r], Value: idx.values[idx.vals[r]]}
	}
	return out
}

// Search returns the associations containing term as a token,
// case-insensitively (the result is ordered by owner OID). A
// single-token search is one gather pass over one pre-sorted posting
// list; a multi-token term must occur as a phrase in one association,
// located by intersecting the candidate postings smallest-first and
// verifying the phrase on the survivors.
func (idx *Index) Search(term string) []Hit {
	tok, rest, ok := firstToken(term)
	if !ok {
		return nil
	}
	if _, _, more := firstToken(rest); !more {
		// Single-token fast path: no token slice, no sort, one copy.
		return idx.hits(idx.postings(tok))
	}
	toks := Tokenize(term)
	// Candidates must contain the leading token as a complete token
	// (the pinned phrase semantics) and every interior token too: an
	// interior token is bounded by non-alphanumerics inside the
	// phrase, so any value containing the phrase contains it as a
	// complete token. The trailing token may extend to the right
	// ("Byte" matching "Bytes"), so its posting cannot narrow.
	cand, ok := idx.intersectPostings(toks[:len(toks)-1])
	if !ok {
		return nil
	}
	needle := strings.ToLower(term)
	var out []Hit
	for _, r := range cand {
		if v := idx.values[idx.vals[r]]; strings.Contains(strings.ToLower(v), needle) {
			out = append(out, Hit{Owner: idx.owners[r], Path: idx.paths[r], Value: v})
		}
	}
	return out
}

// intersectPostings merges the posting lists of the given tokens,
// starting from the smallest. The second return is false when some
// token has no posting at all.
func (idx *Index) intersectPostings(toks []string) ([]int32, bool) {
	smallest, cand := 0, []int32(nil)
	for i, tok := range toks {
		p := idx.postings(tok)
		if len(p) == 0 {
			return nil, false
		}
		if i == 0 || len(p) < len(cand) {
			smallest, cand = i, p
		}
	}
	// Ping-pong two buffers through the narrowing merges: the write
	// target never aliases cand (a shared posting list, or the other
	// buffer), and a k-token query costs at most two intermediates.
	var bufs [2][]int32
	cur := 0
	for i, tok := range toks {
		if i == smallest {
			continue
		}
		bufs[cur] = bat.IntersectSorted(bufs[cur][:0], cand, idx.postings(tok))
		cand = bufs[cur]
		cur ^= 1
		if len(cand) == 0 {
			return nil, false
		}
	}
	return cand, true
}

// SearchSubstring returns the associations whose value contains sub as
// a case-sensitive substring — the semantics of the paper's
// `contains` predicate ("o & contains 'Bit'"), ordered by owner OID.
//
// Every occurrence of sub places each of its tokens inside one token of
// the value, so the candidates are the postings of the dictionary
// tokens containing sub's longest token, found through the suffix
// array. The candidate rows are gathered in a bitset, which yields them
// in (owner, path) order, and each is verified with a case-sensitive
// strings.Contains; the cost is O(matches), not O(values). A sub
// without a letter or digit has no token to look up and is answered by
// scanning the distinct values.
func (idx *Index) SearchSubstring(sub string) []Hit {
	if sub == "" {
		return nil
	}
	sc := substringPool.Get().(*substringScratch)
	defer substringPool.Put(sc)
	sc.needle = appendLongestToken(sc.needle[:0], sub)
	if len(sc.needle) == 0 {
		return idx.scan(func(v string) bool { return strings.Contains(v, sub) })
	}
	offs := idx.sa.Lookup(sc.needle, -1)
	if len(offs) == 0 {
		return nil
	}
	sc.toks.reset(idx.Terms())
	sc.rows.reset(len(idx.owners))
	for _, off := range offs {
		// The needle holds no NUL, so it starts inside token k.
		k, found := slices.BinarySearch(idx.starts, int32(off))
		if !found {
			k--
		}
		if sc.toks.get(k) {
			continue
		}
		sc.toks.set(k)
		for _, r := range idx.tokenRows(k) {
			sc.rows.set(int(r))
		}
	}
	// Verify each candidate once, clearing the false ones, so the
	// result is allocated at its exact size.
	n := 0
	for wi, w := range sc.rows.words {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 | bits.TrailingZeros64(w)
			if strings.Contains(idx.values[idx.vals[r]], sub) {
				n++
			} else {
				sc.rows.words[wi] &^= 1 << (r & 63)
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Hit, 0, n)
	for wi, w := range sc.rows.words {
		for ; w != 0; w &= w - 1 {
			r := wi<<6 | bits.TrailingZeros64(w)
			out = append(out, Hit{Owner: idx.owners[r], Path: idx.paths[r], Value: idx.values[idx.vals[r]]})
		}
	}
	return out
}

// appendLongestToken appends the longest token of s, lower-cased, to
// dst. Token boundaries are drawn as appendTokens draws them: maximal
// runs of runes that are letters or digits once lower-cased.
func appendLongestToken(dst []byte, s string) []byte {
	isTok := func(r rune) bool {
		r = unicode.ToLower(r)
		return unicode.IsLetter(r) || unicode.IsDigit(r)
	}
	lo, hi, start := 0, 0, -1
	for i, r := range s {
		if isTok(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 && i-start > hi-lo {
			lo, hi = start, i
		}
		start = -1
	}
	if start >= 0 && len(s)-start > hi-lo {
		lo, hi = start, len(s)
	}
	for _, r := range s[lo:hi] {
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
	}
	return dst
}

// substringScratch is the pooled per-call state of SearchSubstring: the
// lower-cased needle, the dictionary tokens already expanded and the
// candidate association rows.
type substringScratch struct {
	needle []byte
	toks   bitset
	rows   bitset
}

var substringPool = sync.Pool{New: func() any { return new(substringScratch) }}

// SearchFunc returns the associations whose value satisfies pred. The
// predicate is evaluated once per distinct stored value.
func (idx *Index) SearchFunc(pred func(string) bool) []Hit {
	return idx.scan(pred)
}

// scanBits pools the distinct-value bitsets of scan, so a warm
// predicate query allocates O(results) instead of one []bool over the
// value table per call — the same allocation story as the posting-list
// searches.
var scanBits = sync.Pool{New: func() any { return new(bitset) }}

// bitset is a plain word-packed bit vector sized per use.
type bitset struct {
	words []uint64
}

// reset prepares the bitset to hold n cleared bits.
func (b *bitset) reset(n int) {
	need := (n + 63) / 64
	if cap(b.words) < need {
		b.words = make([]uint64, need)
		return
	}
	b.words = b.words[:need]
	clear(b.words)
}

func (b *bitset) set(i int)      { b.words[i>>6] |= 1 << (i & 63) }
func (b *bitset) get(i int) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

func (idx *Index) scan(pred func(string) bool) []Hit {
	matched := scanBits.Get().(*bitset)
	defer scanBits.Put(matched)
	matched.reset(len(idx.values))
	any := false
	for vid, v := range idx.values {
		if pred(v) {
			matched.set(vid)
			any = true
		}
	}
	if !any {
		return nil
	}
	var out []Hit
	for i, vid := range idx.vals {
		if matched.get(int(vid)) {
			out = append(out, Hit{Owner: idx.owners[i], Path: idx.paths[i], Value: idx.values[vid]})
		}
	}
	return out
}

// Owners extracts the distinct owner OIDs of hits, in ascending order.
func Owners(hits []Hit) []bat.OID {
	out := make([]bat.OID, len(hits))
	for i, h := range hits {
		out[i] = h.Owner
	}
	return bat.SortDedup(out)
}

// Groups partitions the distinct owner OIDs of hits by the owners'
// element path: the R_1 … R_n input relations of the general meet
// (Figure 5). OIDs within a group are in ascending order.
func (idx *Index) Groups(hits []Hit) map[pathsum.PathID][]bat.OID {
	out := make(map[pathsum.PathID][]bat.OID)
	for _, h := range hits {
		p := idx.store.PathOf(h.Owner)
		out[p] = append(out[p], h.Owner)
	}
	for p, oids := range out {
		out[p] = bat.SortDedup(oids)
	}
	return out
}

func sortHits(hits []Hit) []Hit {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Owner != hits[j].Owner {
			return hits[i].Owner < hits[j].Owner
		}
		return hits[i].Path < hits[j].Path
	})
	return hits
}
