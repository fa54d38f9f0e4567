package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ncq"
	"ncq/internal/cluster"
	"ncq/internal/durable"
)

// workload is one traffic mix. Rates are fixed constants of the
// workload, never derived at run time, so both sides of a comparison
// offer the same load.
type workload struct {
	name      string
	clustered bool    // workers behind a coordinator
	ingest    bool    // the open loop carries its own writes
	cached    bool    // the working set is meant to stay in the result cache
	queryRate float64 // open-loop queries per second
	putRate   float64 // open-loop mutations per second (ingest-churn)
	closedOps int     // requests drawn for the closed loop of a cached working set
	putOps    int     // PUTs of the put phase, where the mix has none
}

// A run is measured in rounds, each an open-loop slice, a closed-loop
// slice and a slice of the put phase. The host's speed drifts over
// seconds, so spreading every metric over the whole run, rather than
// giving each a block of its own, keeps one slow spell from deciding a
// metric; query_qps is the median of the rounds' rates.
const (
	senders     = 2    // sender goroutines and connections: the CPUs of the reference machine
	bootRounds  = 5    // setup_s is the median of this many boots
	rounds      = 8    // measured rounds per run
	openShare   = 0.6  // share of the run's seconds spent in the open loop
	closedShare = 0.25 // share of the run's seconds spent in the closed loop
)

// ingest-churn is not in BENCHMARK.json: four workloads do not fit the
// time limit of a benchmark check at the run length the others need.
// Its write path runs in every other workload's put phase.
var workloads = map[string]workload{
	"cold-mix":        {name: "cold-mix", queryRate: 100, putOps: 80},
	"hot-cached":      {name: "hot-cached", cached: true, queryRate: 500, closedOps: 40000, putOps: 80},
	"ingest-churn":    {name: "ingest-churn", ingest: true, queryRate: 40, putRate: 6},
	"cluster-scatter": {name: "cluster-scatter", clustered: true, queryRate: 70, putOps: 80},
}

func workloadNames() []string {
	var n []string
	for k := range workloads {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

// bench is one run of one workload.
type bench struct {
	w       workload
	seed    int64
	seconds int
	traced  bool
	work    string
	out     io.Writer
	log     io.Writer

	base   []xmlDoc // base corpus, plus the churn documents for ingest-churn
	gen    *generator
	open   []lane
	closed []*op
	puts   []*op
	checks []*query // durability check requests
	warmup []*query // requests sent once before measuring
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

// openSeconds is how long the open loop runs, over all rounds.
func (b *bench) openSeconds() float64 {
	return float64(b.seconds) * openShare
}

// closedSlice is how long the closed loop runs in each round.
func (b *bench) closedSlice() time.Duration {
	return time.Duration(float64(b.seconds) * closedShare / rounds * float64(time.Second))
}

func baseNames(docs []xmlDoc) []string {
	var n []string
	for _, d := range docs {
		n = append(n, d.name)
	}
	return n
}

// generate builds every request and document of the run from the seed.
func (b *bench) generate() {
	b.base = baseCorpus()
	names := baseNames(b.base)
	g := newGenerator(b.seed)
	b.gen = g
	cold := mix{docs: names, wholeShare: 0.6, vagueShare: 0.2, streamShare: 0.2, probeShare: 0.05}
	n := int(b.w.queryRate * b.openSeconds())
	queries := func(n int, m mix) []*op {
		ops := make([]*op, n)
		for i := range ops {
			ops[i] = &op{kind: opQuery, q: g.query(m)}
		}
		return ops
	}
	switch b.w.name {
	case "cold-mix":
		b.open = []lane{{ops: queries(n, cold), rate: b.w.queryRate, senders: senders}}
	case "hot-cached":
		// About 200 distinct requests, ten of them second pages through
		// a cursor, drawn Zipf-skewed: the popular set fits the result
		// cache. The skew is offset (v=16) so that about a hundred
		// requests carry the load: with the steepest skew a handful of
		// seeded requests would set the cost of a cached answer.
		hot := cold
		hot.streamShare = 0
		var pool []*query
		for len(pool) < 180 {
			pool = append(pool, g.query(hot))
		}
		for i := 0; i < 10; i++ {
			first := g.paged()
			pool = append(pool, first, g.pageTwo(first))
		}
		// Streams bypass the cache; 3% of them keep first_meet measured
		// on a few hundred samples. They all span the whole corpus, so
		// the draw barely moves their cost.
		streams := cold
		streams.streamShare, streams.wholeShare, streams.probeShare = 1, 1, 0
		var spool []*query
		for len(spool) < 120 {
			spool = append(spool, g.query(streams))
		}
		z := rand.NewZipf(g.r, 1.1, 16, uint64(len(pool)-1))
		draw := func(n int, streamShare float64) []*op {
			ops := make([]*op, n)
			for i := range ops {
				q := pool[z.Uint64()]
				if g.r.Float64() < streamShare {
					q = spool[g.r.Intn(len(spool))]
				}
				ops[i] = &op{kind: opQuery, q: q}
			}
			return ops
		}
		b.warmup = pool
		b.open = []lane{{ops: draw(n, 0.03), rate: b.w.queryRate, senders: senders}}
		b.closed = draw(b.w.closedOps, 0)
	case "ingest-churn":
		// Queries name base documents only, so the churn cannot change
		// their answers.
		m := cold
		m.wholeShare = 0
		b.open = []lane{
			{ops: b.churn(int(b.w.putRate * b.openSeconds())), rate: b.w.putRate, senders: 1},
			{ops: queries(n, m), rate: b.w.queryRate, senders: 1},
		}
	case "cluster-scatter":
		m := cold
		m.followShare = 0.2
		b.open = []lane{{ops: queries(n, m), rate: b.w.queryRate, senders: senders}}
	}
	if b.closed == nil {
		// The closed loop replays the open loop's queries against fresh
		// result caches, so no further reference answers are needed.
		b.closed = b.open[len(b.open)-1].ops
	}
	if !b.w.ingest {
		b.puts = b.putPhase()
	}
	exact := cold
	exact.vagueShare, exact.streamShare, exact.probeShare, exact.wholeShare = 0, 0, 0, 1
	for i := 0; i < 12; i++ {
		b.checks = append(b.checks, g.query(exact))
	}
}

// churn returns the ingest-churn mutation stream: PUTs rotating over
// eight mid-size documents that exist at boot, alternately plain and
// split into four shards, with an occasional DELETE whose document is
// PUT back on its next turn.
func (b *bench) churn(n int) []*op {
	var docs [churnDocs][churnVariants]*xmlDoc
	for i := range docs {
		for v := range docs[i] {
			docs[i][v] = &xmlDoc{name: fmt.Sprintf("churn%d", i+1), xml: midDoc(b.seed*100 + int64(i*churnVariants+v))}
		}
	}
	for i := range docs {
		b.base = append(b.base, *docs[i][0])
	}
	exists := [churnDocs]bool{}
	for i := range exists {
		exists[i] = true
	}
	ops := make([]*op, n)
	for k := range ops {
		i, turn := k%churnDocs, k/churnDocs
		if exists[i] && k%13 == 5 {
			ops[k] = &op{kind: opDelete, doc: docs[i][0], wantStatus: http.StatusNoContent}
			exists[i] = false
			continue
		}
		d := *docs[i][(turn+1)%churnVariants]
		if (turn+i)%2 == 1 {
			d.shards = churnShards
		}
		want := http.StatusOK
		if !exists[i] {
			want = http.StatusCreated
		}
		exists[i] = true
		ops[k] = &op{kind: opPut, doc: &d, wantStatus: want}
	}
	return ops
}

// putPhase is the PUT stream of the workloads whose mix has none:
// four new mid-size documents, created and then replaced, alternately
// plain and split into four shards.
func (b *bench) putPhase() []*op {
	ops := make([]*op, b.w.putOps)
	for k := range ops {
		d := &xmlDoc{name: fmt.Sprintf("put%d", k%4+1), xml: midDoc(b.seed*100 + 50 + int64(k%8))}
		if k%2 == 1 {
			d.shards = churnShards
		}
		want := http.StatusOK
		if k < 4 {
			want = http.StatusCreated
		}
		ops[k] = &op{kind: opPut, doc: d, wantStatus: want}
	}
	return ops
}

// dataDirs writes the base corpus into one data directory per node;
// in a cluster each worker holds the documents the ring gives it.
func (b *bench) dataDirs(docs []loaded) ([]string, error) {
	if !b.w.clustered {
		dir := filepath.Join(b.work, "node")
		return []string{dir}, writeDataDir(dir, docs)
	}
	ring := cluster.NewRing(workerNames)
	var dirs []string
	for _, w := range workerNames {
		var own []loaded
		for _, d := range docs {
			if ring.Owner(d.name) == w {
				own = append(own, d)
			}
		}
		dir := filepath.Join(b.work, w)
		if err := writeDataDir(dir, own); err != nil {
			return nil, err
		}
		dirs = append(dirs, dir)
	}
	return dirs, nil
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup boots the deployment bootRounds times from its data
// directories and keeps the last; it returns the median boot time and
// the live heap the kept deployment added.
func (b *bench) setup(dirs []string) (*deployment, time.Duration, float64, error) {
	var times []time.Duration
	var d *deployment
	var heap float64
	for i := 0; i < bootRounds; i++ {
		last := i == bootRounds-1
		// Every boot starts from a collected heap, so earlier garbage
		// does not decide when the boot's collections run.
		before := heapAlloc()
		t0 := time.Now()
		var err error
		d, err = boot(dirs, b.w.clustered)
		if err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t0))
		if last {
			heap = float64(heapAlloc()-before) / (1 << 20)
			break
		}
		if err := d.stop(); err != nil {
			return nil, 0, 0, err
		}
	}
	return d, medianDuration(times), heap, nil
}

// recoveryCheck restarts every node from its data directory after the
// run and checks that the recovered node answers exactly like the live
// one did, at the same generation. It returns the restart time.
func (b *bench) recoveryCheck(ctx context.Context, d *deployment, rec *recorder) (time.Duration, error) {
	type snap struct {
		gen   uint64
		pages []page
	}
	nodes := d.all()
	live := make([]snap, len(nodes))
	for i, n := range nodes {
		live[i].gen = n.corpus.Generation()
		for _, q := range b.checks {
			res, err := n.corpus.Run(ctx, q.request())
			if err != nil {
				return 0, fmt.Errorf("live check query: %w", err)
			}
			live[i].pages = append(live[i].pages, pageOf(res))
		}
	}
	if err := d.stop(); err != nil {
		return 0, err
	}
	var worst time.Duration
	for i, n := range nodes {
		t0 := time.Now()
		c := ncq.NewCorpus()
		st, err := durable.Open(n.dir, fsync, c)
		if err != nil {
			return 0, fmt.Errorf("restart %s: %w", n.name, err)
		}
		worst = max(worst, time.Since(t0))
		rec.outcome(func() error {
			if c.Generation() != live[i].gen {
				return fmt.Errorf("restarted %s at generation %d, live node was at %d", n.name, c.Generation(), live[i].gen)
			}
			return nil
		}())
		for j, q := range b.checks {
			res, err := c.Run(ctx, q.request())
			if err == nil {
				err = compare(pageOf(res), live[i].pages[j], true)
			}
			if err != nil {
				err = fmt.Errorf("restarted %s answers %s differently: %w", n.name, q.body, err)
			}
			rec.outcome(err)
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	return worst, nil
}

func (b *bench) run(ctx context.Context) (*result, error) {
	t0 := time.Now()
	b.generate()
	fmt.Fprintf(b.out, "%s seed=%d inputs sha256=%s\n", b.w.name, b.seed, digest(b.base, b.open[0].ops, b.laneOps(1), b.closed, b.puts))
	docs, err := loadAll(b.base)
	if err != nil {
		return nil, err
	}
	dirs, err := b.dataDirs(docs)
	if err != nil {
		return nil, err
	}
	ref, err := referenceCorpus(docs)
	if err != nil {
		return nil, err
	}
	if err := expect(ctx, ref, b.gen.all); err != nil {
		return nil, err
	}
	refGen := ref.Generation()
	docs, ref = nil, nil
	b.logf("inputs ready in %.1fs: %d distinct requests", time.Since(t0).Seconds(), len(b.gen.all))

	d, setupTime, heapMB, err := b.setup(dirs)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	x := &runner{c: newClient(d.url(), senders), checkCursor: !b.w.clustered && !b.w.ingest && d.nodes[0].corpus.Generation() == refGen}
	defer x.c.close()
	if b.traced {
		return b.runTraced(ctx, d, x, setupTime, heapMB, dirs)
	}

	// The put phase writes to a node of its own, booted from an empty
	// data directory: its documents would otherwise change the answers
	// and cursors of the queries it is interleaved with.
	var w *runner
	if len(b.puts) > 0 {
		if d.writer, err = bootNode(filepath.Join(b.work, "writer"), "writer", "single"); err != nil {
			return nil, err
		}
		w = &runner{c: newClient(d.writer.ln.url, 1)}
		defer w.c.close()
	}

	open, closed, puts := &recorder{}, &recorder{}, &recorder{}
	b.warm(ctx, x, open)
	var rates sample
	next := 0 // the closed loop's place in b.closed
	for r := 0; r < rounds; r++ {
		// Each slice starts right after a collection, so the
		// collections inside it follow from its own work and not from
		// where the previous slice left the collector.
		runtime.GC()
		openLoop(b.segment(r), func(o *op, due time.Time) { x.exec(ctx, o, due, open) })
		runtime.GC()
		rate, sent, err := b.closedRound(ctx, d, x, next, closed)
		if err != nil {
			return nil, err
		}
		next += sent
		rates = append(rates, rate)
		runtime.GC()
		for _, o := range b.puts[r*len(b.puts)/rounds : (r+1)*len(b.puts)/rounds] {
			w.exec(ctx, o, time.Now(), puts)
		}
	}
	putLat := append(append([]time.Duration(nil), open.put...), puts.put...)

	total := &recorder{}
	total.merge(open)
	total.merge(closed)
	total.merge(puts)
	reboot, err := b.recoveryCheck(ctx, d, total)
	d = nil
	if err != nil {
		return nil, err
	}
	for _, e := range total.errs {
		b.logf("FAILED: %s", e)
	}

	q := durationsMS(open.query)
	qTail, qPct := q.tail()
	p := durationsMS(putLat)
	pTail, pPct := p.tail()
	fm := durationsMS(open.firstMeet)
	// The tails, the restart time and the failure ratio are printed
	// but not gated. The tails are set by the few collections of the
	// node's heap a run sees, so their run-to-run spread exceeds any
	// bound the gate allows; failures are gated through ok_ratio.
	fmt.Fprintf(b.out, "  %-30s %14.4f ms  (p%.2f of %d samples)\n", "query_p99_ms", qTail, qPct, len(q))
	fmt.Fprintf(b.out, "  %-30s %14.4f ms  (p%.2f of %d samples)\n", "put_p99_ms", pTail, pPct, len(p))
	fmt.Fprintf(b.out, "  %-30s %14.4f s   (durability check)\n", "restart_s", reboot.Seconds())
	fmt.Fprintf(b.out, "  %-30s %14.6f     (%d of %d operations)\n", "failed_ratio", float64(total.failed)/float64(total.attempted), total.failed, total.attempted)
	fmt.Fprintf(b.out, "  query samples %d, first-meet samples %d, put samples %d\n", len(q), len(fm), len(p))
	m := map[string]metric{
		"setup_s":           {setupTime.Seconds(), "s"},
		"heap_mb":           {heapMB, "MB"},
		"query_p50_ms":      {q.median(), "ms"},
		"query_qps":         {rates.median(), "req/s"},
		"first_meet_p50_ms": {fm.median(), "ms"},
		"put_p50_ms":        {p.median(), "ms"},
		"ok_ratio":          {1 - float64(total.failed)/float64(total.attempted), "fraction"},
	}
	return &result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}

// closedRound runs one round of the closed loop from b.closed[from]
// and returns the queries it completed per second and the requests it
// sent. A cached working set is drawn from on the warm front.
// Otherwise the open loop's queries are replayed on a fresh front with
// an empty result cache, each at most once a round, so every replay is
// answered cold again.
func (b *bench) closedRound(ctx context.Context, d *deployment, x *runner, from int, rec *recorder) (float64, int, error) {
	before := rec.queries()
	if b.w.cached {
		sent, elapsed := closedLoop(b.closed, from, math.MaxInt, senders, b.closedSlice(), func(o *op, start time.Time) { x.exec(ctx, o, start, rec) })
		return float64(rec.queries()-before) / elapsed.Seconds(), sent, nil
	}
	fresh, stop, err := newFront(d)
	if err != nil {
		return 0, 0, err
	}
	fresh.checkCursor = x.checkCursor
	sent, elapsed := closedLoop(b.closed, from, len(b.closed), senders, b.closedSlice(), func(o *op, start time.Time) { fresh.exec(ctx, o, start, rec) })
	if err := stop(); err != nil {
		return 0, 0, err
	}
	return float64(rec.queries()-before) / elapsed.Seconds(), sent, nil
}

// segment returns round r's share of every open-loop lane, on the
// lanes' own rates.
func (b *bench) segment(r int) []lane {
	seg := make([]lane, len(b.open))
	for i, l := range b.open {
		seg[i] = l
		seg[i].ops = l.ops[r*len(l.ops)/rounds : (r+1)*len(l.ops)/rounds]
	}
	return seg
}

func (b *bench) laneOps(i int) []*op {
	if i < len(b.open) {
		return b.open[i].ops
	}
	return nil
}

// warm sends each request of a cache-resident working set once, so a
// measured phase starts from the filled cache users of that working
// set would see. The answers are checked like any other.
func (b *bench) warm(ctx context.Context, x *runner, rec *recorder) {
	for _, q := range b.warmup {
		x.exec(ctx, &op{kind: opQuery, q: q}, time.Now(), rec)
	}
}
