package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"ncq"
	"ncq/internal/datagen"
	"ncq/internal/xmltree"
)

// The base corpus: four default-size synthetic DBLP documents stored
// as two shards each, plus the default multimedia document that
// carries the Figure-6 probe pairs. It does not depend on the
// workload seed.
const (
	dblpDocs   = 4
	dblpShards = 2
	probeMax   = 20 // datagen's default MaxProbeDistance

	// Mid-size documents (about 270 KB of XML) for the PUT paths.
	midPubsPerVenueYear = 12
	churnDocs           = 8
	churnVariants       = 2
	churnShards         = 4
)

type xmlDoc struct {
	name   string
	xml    []byte
	shards int // 0 or 1 = plain
}

func serialize(d *xmltree.Document) []byte {
	var b bytes.Buffer
	if err := d.WriteXML(&b, false); err != nil {
		panic(fmt.Sprintf("serialize generated document: %v", err)) // writes to a buffer cannot fail
	}
	return b.Bytes()
}

func baseCorpus() []xmlDoc {
	var docs []xmlDoc
	for i := 1; i <= dblpDocs; i++ {
		cfg := datagen.DefaultDBLPConfig()
		cfg.Seed = int64(i)
		docs = append(docs, xmlDoc{name: fmt.Sprintf("dblp%d", i), xml: serialize(datagen.DBLP(cfg)), shards: dblpShards})
	}
	return append(docs, xmlDoc{name: "multimedia", xml: serialize(datagen.Multimedia(datagen.DefaultMultimediaConfig()))})
}

func midDoc(seed int64) []byte {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Seed = seed
	cfg.PubsPerVenueYear = midPubsPerVenueYear
	return serialize(datagen.DBLP(cfg))
}

// Term vocabulary of the generated requests: every term is a single
// token of the DBLP generator's vocabulary (venues, author names and
// title words) paired with a publication year, or a Figure-6 probe
// pair of the multimedia document.
var (
	venues     = []string{"ICDE", "VLDB", "SIGMOD", "EDBT", "PODS"}
	firstNames = []string{"Albrecht", "Martin", "Menzo", "Florian", "Peter", "Maria", "Sophie", "Jan", "Wilhelm", "Anna", "Clara", "David", "Erik", "Frank", "Greta", "Hanna", "Ivo", "Jurgen", "Karin", "Lars", "Mikkel", "Nina", "Otto", "Paula", "Quentin", "Rosa", "Stefan", "Tilda", "Ulrich", "Vera", "Walter", "Xenia", "Yara", "Zeno", "Ben", "Bob"}
	lastNames  = []string{"Schmidt", "Kersten", "Windhouwer", "Waas", "Boncz", "Struzik", "Meyer", "Fischer", "Weber", "Wagner", "Becker", "Schulz", "Hoffmann", "Koch", "Bauer", "Richter", "Klein", "Wolf", "Schroeder", "Neumann", "Schwarz", "Zimmermann", "Braun", "Krueger", "Hofmann", "Hartmann", "Lange", "Schmitt", "Werner", "Krause", "Lehmann", "Maier", "Bit", "Byte"}
	titleWords = []string{"Efficient", "Scalable", "Adaptive", "Incremental", "Distributed", "Parallel", "Declarative", "Semistructured", "Relational", "Temporal", "Spatial", "Approximate", "Optimal", "Robust", "Dynamic", "Query", "Storage", "Indexing", "Retrieval", "Processing", "Mining", "Integration", "Optimization", "Evaluation", "Compression", "Caching", "Replication", "Recovery", "Clustering", "Partitioning"}
	limits     = []int{3, 5, 8, 10, 15, 20, 25, 30}

	// Misspelled restrict patterns for vague requests, each within
	// two rewrites of a DBLP element path.
	misspelled = []string{"//inprocedings", "//inproceeding", "//inprocedings/titel", "//inproceedigns", "//autor", "//booktitel"}
)

// wireQuery is the /v2/query body the benchmark sends.
type wireQuery struct {
	Doc         string     `json:"doc,omitempty"`
	Terms       []string   `json:"terms"`
	ExcludeRoot bool       `json:"exclude_root,omitempty"`
	Restrict    []string   `json:"restrict,omitempty"`
	Limit       int        `json:"limit,omitempty"`
	Cursor      string     `json:"cursor,omitempty"`
	Vague       *ncq.Vague `json:"vague,omitempty"`
}

// query is one distinct generated request with its expected answer.
type query struct {
	wire   wireQuery
	body   []byte
	stream bool
	probe  int // planted Figure-6 distance of a probe pair, or -1

	// followUp asks for the next page through the returned cursor
	// right after the first page arrives.
	followUp bool
	// after, when set, makes this a page-2 request whose cursor is the
	// one the reference answer to after mints.
	after *query

	want, want2 page
	wantErr     string // set when the reference answer itself is wrong
}

func (q *query) request() ncq.Request {
	opt := &ncq.Options{}
	if q.wire.ExcludeRoot {
		opt.ExcludeRoot()
	}
	for _, p := range q.wire.Restrict {
		opt.Restrict(p)
	}
	return ncq.Request{Doc: q.wire.Doc, Terms: q.wire.Terms, Options: opt, Limit: q.wire.Limit, Cursor: q.wire.Cursor, Vague: q.wire.Vague}
}

func (q *query) encode() {
	b, err := json.Marshal(&q.wire)
	if err != nil {
		panic(fmt.Sprintf("encode request: %v", err)) // plain data; cannot fail
	}
	q.body = b
}

type opKind uint8

const (
	opQuery opKind = iota
	opPut
	opDelete
)

// op is one scheduled operation.
type op struct {
	kind       opKind
	q          *query
	doc        *xmlDoc // PUT and DELETE
	wantStatus int     // PUT and DELETE
}

// mix is the share of each request shape in a generated query stream.
type mix struct {
	docs        []string // documents a doc-scoped request may name
	wholeShare  float64  // requests over the whole corpus
	vagueShare  float64
	streamShare float64
	probeShare  float64
	followShare float64
}

type generator struct {
	r    *rand.Rand
	seen map[string]*query
	all  []*query
}

func newGenerator(seed int64) *generator {
	return &generator{r: rand.New(rand.NewSource(seed)), seen: map[string]*query{}}
}

func (g *generator) pick(list []string) string { return list[g.r.Intn(len(list))] }

// intern returns the one query per distinct request, so every repeat
// shares its expected answer.
func (g *generator) intern(q *query) *query {
	q.encode()
	key := fmt.Sprintf("%t|%t|%s", q.stream, q.followUp, q.body)
	if old, ok := g.seen[key]; ok {
		return old
	}
	g.seen[key] = q
	g.all = append(g.all, q)
	return q
}

func (g *generator) query(m mix) *query {
	q := &query{probe: -1}
	w := &q.wire
	if g.r.Float64() < m.probeShare {
		d := g.r.Intn(probeMax + 1)
		a, b := datagen.ProbeTerms(d)
		q.probe = d
		w.Terms = []string{a, b}
		w.Limit = 1 + g.r.Intn(5)
		if g.r.Intn(2) == 0 {
			w.Doc = "multimedia"
		}
		return g.intern(q)
	}
	var t string
	switch x := g.r.Float64(); {
	case x < 0.15:
		t = g.pick(venues)
	case x < 0.45:
		t = g.pick(firstNames)
	case x < 0.75:
		t = g.pick(lastNames)
	default:
		t = g.pick(titleWords)
	}
	w.Terms = []string{t, fmt.Sprint(1984 + g.r.Intn(16))}
	if g.r.Intn(2) == 0 {
		w.Terms[0], w.Terms[1] = w.Terms[1], w.Terms[0]
	}
	w.Limit = limits[g.r.Intn(len(limits))]
	w.ExcludeRoot = g.r.Float64() < 0.8
	if g.r.Float64() >= m.wholeShare {
		w.Doc = g.pick(m.docs)
	}
	if g.r.Float64() < m.vagueShare {
		w.Restrict = []string{g.pick(misspelled)}
		w.Vague = &ncq.Vague{MaxSlack: 1 + g.r.Intn(2)}
	}
	switch {
	case g.r.Float64() < m.streamShare:
		q.stream = true
	case g.r.Float64() < m.followShare:
		q.followUp = true
	}
	return g.intern(q)
}

// paged returns a whole-corpus venue-and-year request with a short
// limit; every such pair has hundreds of answers, so its first page is
// always truncated and has a second.
func (g *generator) paged() *query {
	q := &query{probe: -1}
	q.wire.Terms = []string{g.pick(venues[1:]), fmt.Sprint(1984 + g.r.Intn(16))}
	q.wire.Limit = limits[g.r.Intn(3)]
	q.wire.ExcludeRoot = true
	return g.intern(q)
}

// pageTwo returns the request for the second page of q, cursor and
// all, once q's expected answer is known.
func (g *generator) pageTwo(q *query) *query {
	p := &query{wire: q.wire, probe: q.probe, after: q}
	p.wire.Terms = append([]string(nil), q.wire.Terms...)
	g.all = append(g.all, p)
	return p
}

// digest fingerprints every generated request and document, so two
// runs with the same seed provably sent the same work.
func digest(docs []xmlDoc, lanes ...[]*op) string {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, d := range docs {
		put([]byte(d.name))
		put(d.xml)
		put([]byte{byte(d.shards)})
	}
	for _, lane := range lanes {
		put([]byte("lane"))
		for _, o := range lane {
			put([]byte{byte(o.kind)})
			if o.q != nil {
				// A page-two body carries a cursor only known later; its
				// first page identifies it.
				q := o.q
				if q.after != nil {
					put([]byte("page2"))
					q = q.after
				}
				put(q.body)
				put([]byte(fmt.Sprintf("%t%t", q.stream, q.followUp)))
			}
			if o.doc != nil {
				put([]byte(o.doc.name))
				put(o.doc.xml)
				put([]byte{byte(o.doc.shards)})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
