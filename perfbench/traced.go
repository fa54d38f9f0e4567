package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ncq"
	"ncq/internal/core"
	"ncq/internal/durable"
	"ncq/internal/fulltext"
	"ncq/internal/monetx"
	"ncq/internal/pathexpr"
	"ncq/internal/pathsum"
	"ncq/internal/server"
	"ncq/internal/shard"
	"ncq/internal/vague"
	"ncq/internal/xmltree"
)

// The traced run replays the seeded requests one at a time and times
// each layer from outside, through the layer's own public functions: a
// request over the socket, the same request through the node's HTTP
// handler in process, the corpus's Results, and each member's
// full-text searches, vague relaxation and meet. Every replay is a
// child span of the call that contains its work, so a layer's self
// time is its span minus the part its children cover.

// member is one fan-out unit of a corpus rebuilt from the node's own
// snapshot files, so its layers can be called one by one.
type member struct {
	source string
	store  *monetx.Store
	idx    *fulltext.Index
	values int // distinct stored strings
	assocs int // string associations
}

// members is a node's membership for replay, grouped by document.
type members map[string][]*member

func (ms members) resolve(doc string) []*member {
	if doc != "" {
		return ms[doc]
	}
	var names []string
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	var all []*member
	for _, n := range names {
		all = append(all, ms[n]...)
	}
	return all
}

// counters are per-request counts, summed over the request's members.
type counters map[string]float64

// layers collects a traced run's measurements.
type layers struct {
	mu    sync.Mutex
	per   map[string][]float64 // per-request counts and times
	total map[string]float64   // run totals, for ratios
}

func newLayers() *layers { return &layers{per: map[string][]float64{}, total: map[string]float64{}} }

func (l *layers) add(c counters) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, v := range c {
		l.per[k] = append(l.per[k], v)
		l.total[k] += v
	}
}

func (l *layers) median(k string) float64 { return sample(l.per[k]).median() }

// bootLayers reads every snapshot of the data directories through the
// storage layers one at a time: the column decode, the full-text index
// build, and the whole OpenSnapshotShard whose remainder is the DOM
// rebuild. It returns the replay membership of each directory.
func bootLayers(dirs []string, m map[string]metric) ([]members, error) {
	var read, build, open time.Duration
	var bytesRead int64
	out := make([]members, len(dirs))
	for i, dir := range dirs {
		out[i] = members{}
		files, err := filepath.Glob(filepath.Join(dir, "docs", "*", "shard-*.snap"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		for _, f := range files {
			raw, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			bytesRead += int64(len(raw))
			t0 := time.Now()
			st, _, _, err := monetx.ReadSnapshotShard(bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			idx := fulltext.New(st)
			t2 := time.Now()
			if _, _, _, err := ncq.OpenSnapshotShard(bytes.NewReader(raw)); err != nil {
				return nil, err
			}
			read += t1.Sub(t0)
			build += t2.Sub(t1)
			open += time.Since(t2)
			dirName := filepath.Base(filepath.Dir(f))
			name, err := url.PathUnescape(dirName[strings.Index(dirName, "-")+1:])
			if err != nil {
				return nil, err
			}
			mb := &member{source: name, store: st, idx: idx}
			mb.assocs = len(idx.SearchFunc(func(string) bool { mb.values++; return true }))
			out[i][name] = append(out[i][name], mb)
		}
	}
	m["monetx.snapshot_read_s"] = metric{read.Seconds(), "s"}
	m["monetx.snapshot_bytes"] = metric{float64(bytesRead), "bytes"}
	m["fulltext.build_s"] = metric{build.Seconds(), "s"}
	m["ncq.open_snapshot_s"] = metric{open.Seconds(), "s"}
	m["ncq.rebuild_s"] = metric{max(open-read-build, 0).Seconds(), "s"}
	return out, nil
}

// compileOptions lowers the request's options for one member the way
// the ncq facade does; for a vague request it also returns the slack of
// every admitted path.
func compileOptions(st *monetx.Store, w *wireQuery) (*core.Options, map[pathsum.PathID]int, int, error) {
	sum := st.Summary()
	opt := &core.Options{}
	if w.ExcludeRoot {
		opt.Exclude = map[pathsum.PathID]bool{sum.Root(): true}
	}
	if len(w.Restrict) == 0 {
		return opt, nil, 0, nil
	}
	budget := 0
	if w.Vague != nil {
		budget = w.Vague.MaxSlack
	}
	pats := make([]*pathexpr.Pattern, len(w.Restrict))
	for i, src := range w.Restrict {
		p, err := pathexpr.Compile(src)
		if err != nil {
			return nil, nil, 0, err
		}
		pats[i] = p
	}
	admissible := map[pathsum.PathID]bool{}
	slack := map[pathsum.PathID]int{}
	for _, pid := range sum.AllPaths() {
		best, found := 0, false
		for _, p := range pats {
			if s, ok := vague.Slack(p, sum, pid, budget); ok && (!found || s < best) {
				best, found = s, true
			}
		}
		if found {
			admissible[pid] = true
			if best > 0 {
				slack[pid] = best
			}
		}
	}
	if opt.Exclude == nil {
		opt.Exclude = map[pathsum.PathID]bool{}
	}
	for _, pid := range sum.ElemPaths() {
		if !admissible[pid] {
			opt.Exclude[pid] = true
		}
	}
	opt.SkipExcluded = true
	return opt, slack, len(admissible), nil
}

// replay runs one member's share of a request layer by layer.
func (mb *member) replay(ctx context.Context, tr *tracer, req, parent int32, w *wireQuery, c counters, mu *sync.Mutex) error {
	ms := tr.start(req, parent, "ncq.member")
	defer tr.finish(ms)
	local := counters{}
	var opt *core.Options
	var slack map[pathsum.PathID]int
	var err error
	if w.Vague != nil {
		v := tr.start(req, ms, "vague.relax")
		var admitted int
		opt, slack, admitted, err = compileOptions(mb.store, w)
		tr.finish(v)
		local["vague.paths_admitted"] += float64(admitted)
	} else {
		opt, _, _, err = compileOptions(mb.store, w)
	}
	if err != nil {
		return err
	}
	sets := make([][]ncq.NodeID, 0, len(w.Terms))
	for _, t := range w.Terms {
		s := tr.start(req, ms, "fulltext.search")
		hits := mb.idx.SearchSubstring(t)
		owners := fulltext.Owners(hits)
		tr.finish(s)
		sets = append(sets, owners)
		// Generated terms are single tokens: the search tests every
		// distinct value, then walks every association if any matched.
		local["fulltext.values_tested"] += float64(mb.values)
		if len(hits) > 0 {
			local["fulltext.assocs_walked"] += float64(mb.assocs)
		}
		local["fulltext.hits"] += float64(len(hits))
		local["core.inputs"] += float64(len(owners))
	}
	cm := tr.start(req, ms, "core.meet")
	results, _, err := core.MeetMultiContext(ctx, mb.store, sets, opt)
	tr.finish(cm)
	if err != nil {
		return err
	}
	local["core.meets"] += float64(len(results))
	if slack != nil {
		v := tr.start(req, ms, "vague.relax")
		for i := range results {
			if s := slack[results[i].Path]; s > 0 {
				results[i].Distance = vague.Blend(results[i].Distance, s)
			}
		}
		tr.finish(v)
	}
	mu.Lock()
	for k, v := range local {
		c[k] += v
	}
	mu.Unlock()
	return nil
}

// replayResults runs the corpus's Results for the request as one span,
// then each member's work below it, two members at a time as the
// corpus fans out on two CPUs.
func replayResults(ctx context.Context, tr *tracer, req, parent int32, corpus *ncq.Corpus, ms members, q *query, c counters) error {
	rs := tr.start(req, parent, "results")
	t0 := time.Now()
	seq, stats := corpus.ResultsWithStats(ctx, q.request())
	returned := 0
	var first time.Duration
	for _, err := range seq {
		if err != nil {
			tr.finish(rs)
			return err
		}
		if returned == 0 {
			first = time.Since(t0)
		}
		returned++
	}
	tr.finish(rs)
	if returned > 0 {
		// Behind a coordinator the slowest worker's first meet is the
		// one the merge waits for.
		c["results.first_meet_us"] = max(c["results.first_meet_us"], us(first))
	}
	mem := ms.resolve(q.wire.Doc)
	c["results.members"] += float64(len(mem))
	c["results.returned"] += float64(returned)
	c["results.computed"] += float64(stats.Total)
	var mu sync.Mutex
	return parallel(len(mem), func(i int) error { return mem[i].replay(ctx, tr, req, rs, &q.wire, c, &mu) })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// traceRun is the state of one traced replay.
type traceRun struct {
	d        *deployment
	tr       *tracer
	ls       *layers
	rec      *recorder
	front    *runner          // socket requests, fresh result cache
	inproc   http.Handler     // single node: the node's handler, with its own cache, in process
	ms       []members        // per node
	owner    func(string) int // cluster: node index owning a document
	direct   []*client        // cluster: direct worker clients
	scratch  *durable.Store   // PUT replays commit here
	next     int32            // last request id
	uploaded int              // document bytes PUT to the deployment
}

// tracedPuts is how many PUTs of the put phase a traced run replays.
const tracedPuts = 16

func (t *traceRun) query(ctx context.Context, id int32, q *query) error {
	c := counters{}
	if t.d.coord != nil {
		return t.clusterQuery(ctx, id, q, c)
	}
	root := t.tr.start(id, -1, "net")
	rep, err := t.front.c.query(ctx, q.body, q.stream)
	t.tr.finish(root)
	if err == nil {
		err = t.front.checkQuery(q, q.want, rep)
	}
	t.rec.outcome(err)
	if err != nil {
		return nil
	}
	path := "/v2/query"
	if q.stream {
		path += "?stream=1"
	}
	sv := t.tr.start(id, root, "server")
	rr := httptest.NewRecorder()
	t.inproc.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(q.body)))
	t.tr.finish(sv)
	c["server.response_bytes"] = float64(rr.Body.Len())
	if rr.Header().Get("X-NCQ-Cache") != "hit" {
		if err := replayResults(ctx, t.tr, id, sv, t.d.nodes[0].corpus, t.ms[0], q, c); err != nil {
			return err
		}
	}
	t.ls.add(c)
	return nil
}

// clusterQuery times the coordinator over the socket, then each target
// worker directly and in parallel, as the scatter does, then each
// worker's corpus and members one worker at a time.
func (t *traceRun) clusterQuery(ctx context.Context, id int32, q *query, c counters) error {
	root := t.tr.start(id, -1, "cluster")
	rep, err := t.front.c.query(ctx, q.body, q.stream)
	t.tr.finish(root)
	if err == nil {
		err = t.front.checkQuery(q, q.want, rep)
	}
	t.rec.outcome(err)
	if err != nil {
		return nil
	}
	targets := []int{}
	if q.wire.Doc != "" {
		targets = append(targets, t.owner(q.wire.Doc))
	} else {
		for i := range t.d.nodes {
			targets = append(targets, i)
		}
	}
	spans := make([]int32, len(targets))
	first := make([]time.Duration, len(targets))
	size := make([]int, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, n := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spans[i] = t.tr.start(id, root, "cluster.worker")
			first[i], size[i], errs[i] = workerStream(ctx, t.direct[n], q.body)
			t.tr.finish(spans[i])
		}()
	}
	wg.Wait()
	for i, n := range targets {
		if errs[i] != nil {
			return errs[i]
		}
		c["cluster.worker_bytes"] += float64(size[i])
		t.ls.add(counters{"cluster.worker_first_byte_us": us(first[i])})
		if err := replayResults(ctx, t.tr, id, spans[i], t.d.nodes[n].corpus, t.ms[n], q, c); err != nil {
			return err
		}
	}
	t.ls.add(c)
	return nil
}

// workerStream sends a worker the stream request a coordinator sends
// and returns the time to its first line and the bytes received.
func workerStream(ctx context.Context, c *client, body []byte) (time.Duration, int, error) {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/query?stream=1&header=1", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("worker stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("worker stream: %w", err)
	}
	first := time.Since(t0)
	rest, err := io.Copy(io.Discard, br)
	return first, len(line) + int(rest), err
}

// put times a PUT over the socket, then replays its layers below it:
// the parse (or streaming split), the shred and index build of every
// shard, and the durable commit into a scratch data directory.
func (t *traceRun) put(ctx context.Context, id int32, o *op) error {
	root := t.tr.start(id, -1, "net.put")
	rep, err := t.front.c.mutate(ctx, o)
	t.tr.finish(root)
	if err == nil {
		err = checkMutation(o, rep)
	}
	t.rec.outcome(err)
	if err != nil || o.kind != opPut {
		return nil
	}
	t.uploaded += len(o.doc.xml)
	c := counters{}
	var docs []*xmltree.Document
	if o.doc.shards > 1 {
		s := t.tr.start(id, root, "shard.split")
		_, err = shard.SplitStream(bytes.NewReader(o.doc.xml), int64(len(o.doc.xml)/o.doc.shards), o.doc.shards, func(d *xmltree.Document) error {
			docs = append(docs, d)
			return nil
		})
		t.tr.finish(s)
	} else {
		p := t.tr.start(id, root, "xmltree.parse")
		var d *xmltree.Document
		d, err = xmltree.Parse(bytes.NewReader(o.doc.xml))
		t.tr.finish(p)
		docs = append(docs, d)
	}
	if err != nil {
		return err
	}
	dbs := make([]*ncq.Database, len(docs))
	for i, d := range docs {
		s := t.tr.start(id, root, "monetx.shred")
		st, err := monetx.Load(d)
		t.tr.finish(s)
		if err != nil {
			return err
		}
		f := t.tr.start(id, root, "fulltext.index")
		fulltext.New(st)
		t.tr.finish(f)
		if dbs[i], err = ncq.FromDocument(d); err != nil {
			return err
		}
	}
	cm := t.tr.start(id, root, "durable.commit")
	if o.doc.shards > 1 {
		_, err = t.scratch.PutShards(o.doc.name, dbs)
	} else {
		_, err = t.scratch.PutPlain(o.doc.name, dbs[0])
	}
	t.tr.finish(cm)
	t.ls.add(c)
	return err
}

// op traces one operation under the next request id.
func (t *traceRun) op(ctx context.Context, o *op) error {
	t.next++
	var err error
	if o.kind == opQuery {
		err = t.query(ctx, t.next, o.q)
	} else {
		err = t.put(ctx, t.next, o)
	}
	if err != nil {
		return fmt.Errorf("traced replay: %w", err)
	}
	return nil
}

// nodeStats is the part of /v1/stats the traced run reports.
type nodeStats struct {
	Cache struct {
		Evictions uint64 `json:"evictions"`
	} `json:"cache"`
	Admission struct {
		Queued   int    `json:"queued"`
		Rejected uint64 `json:"rejected"`
	} `json:"admission"`
}

func fetchStats(ctx context.Context, c *client) (nodeStats, error) {
	var st nodeStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// durableTotals sums the durability counters of every node.
func durableTotals(d *deployment) (fsyncs, written uint64) {
	for _, n := range d.nodes {
		st := n.store.Stats()
		fsyncs += st.WAL.Fsyncs
		written += st.WAL.Bytes + st.SnapshotBytes
	}
	return fsyncs, written
}

// secondHalf returns the lanes' operations not sent by the first half
// of the open loop, in the order they were due.
func secondHalf(lanes []lane) []*op {
	type due struct {
		at float64
		o  *op
	}
	var all []due
	for _, l := range lanes {
		for i := len(l.ops) / 2; i < len(l.ops); i++ {
			all = append(all, due{float64(i) / l.rate, l.ops[i]})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	ops := make([]*op, len(all))
	for i, d := range all {
		ops[i] = d.o
	}
	return ops
}

// newFront serves the deployment's corpus (or coordinator) on a fresh
// listener with an empty result cache.
func newFront(d *deployment) (*runner, func() error, error) {
	var h http.Handler
	if d.coord != nil {
		coord, err := newCoordinator(d.nodes)
		if err != nil {
			return nil, nil, err
		}
		h = coord.Handler()
	} else {
		n := d.nodes[0]
		h = server.New(n.corpus, serverOptions(n.name, "single", n.store)...).Handler()
	}
	l, err := serve(h)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(l.url, senders)
	return &runner{c: c}, func() error { c.close(); return l.stop() }, nil
}

func (b *bench) runTraced(ctx context.Context, d *deployment, x *runner, setupTime time.Duration, heapMB float64, dirs []string) (*result, error) {
	m := map[string]metric{}
	ms, err := bootLayers(dirs, m)
	if err != nil {
		return nil, err
	}
	total := &recorder{}

	// The first half of the open loop, untraced: the load generator's
	// schedule and the serving counters under the workload's own load.
	half := make([]lane, len(b.open))
	for i, l := range b.open {
		half[i] = l
		half[i].ops = l.ops[:len(l.ops)/2]
	}
	st0, err := fetchStats(ctx, x.c)
	if err != nil {
		return nil, err
	}
	fs0, wr0 := durableTotals(d)
	open := &recorder{}
	b.warm(ctx, x, open)
	runtime.GC()
	openLoop(half, func(o *op, due time.Time) { x.exec(ctx, o, due, open) })
	st1, err := fetchStats(ctx, x.c)
	if err != nil {
		return nil, err
	}
	total.merge(open)
	qTail, _ := durationsMS(open.query).tail()
	m["loadgen.query_p99_ms"] = metric{qTail, "ms"}
	late, _ := durationsMS(open.late).tail()
	m["loadgen.late_p99_ms"] = metric{late, "ms"}
	m["loadgen.sent"] = metric{float64(len(open.late)), "count"}
	m["cache.hit_ratio"] = metric{float64(open.hits) / float64(max(len(open.query), 1)), "ratio"}
	m["cache.evictions"] = metric{float64(st1.Cache.Evictions - st0.Cache.Evictions), "count"}
	m["admission.queued"] = metric{float64(st1.Admission.Queued), "count"}
	m["admission.rejected"] = metric{float64(st1.Admission.Rejected - st0.Admission.Rejected), "count"}

	// The traced replay of the rest of the seeded operations, one at a
	// time, on a fresh front so the result cache starts as the open
	// loop's did.
	t := &traceRun{d: d, tr: newTracer(), ls: newLayers(), rec: &recorder{}, ms: ms}
	front, stopFront, err := newFront(d)
	if err != nil {
		return nil, err
	}
	defer stopFront()
	front.checkCursor = x.checkCursor
	t.front = front
	if d.coord != nil {
		t.owner = func(doc string) int {
			w := d.coord.Owner(doc)
			for i, n := range d.nodes {
				if n.name == w.Name {
					return i
				}
			}
			return 0
		}
		for _, n := range d.nodes {
			c := newClient(n.ln.url, senders)
			defer c.close()
			t.direct = append(t.direct, c)
		}
	} else {
		n := d.nodes[0]
		t.inproc = server.New(n.corpus, serverOptions(n.name, "single", nil)...).Handler()
		for _, q := range b.warmup {
			t.inproc.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(q.body)))
		}
	}
	c := ncq.NewCorpus()
	if t.scratch, err = durable.Open(filepath.Join(b.work, "scratch"), fsync, c); err != nil {
		return nil, err
	}
	defer t.scratch.Close()
	b.warm(ctx, front, t.rec)
	budget := time.Now().Add(time.Duration(b.seconds) * time.Second / 2)
	var replayed []*query
	for _, o := range secondHalf(b.open) {
		if time.Now().After(budget) {
			break
		}
		if o.kind == opQuery {
			replayed = append(replayed, o.q)
		}
		if err := t.op(ctx, o); err != nil {
			return nil, err
		}
	}

	// The same queries untraced, on another fresh front: the tracing
	// overhead is the difference of the two median latencies.
	twin, stopTwin, err := newFront(d)
	if err != nil {
		return nil, err
	}
	defer stopTwin()
	twin.checkCursor = x.checkCursor
	twinRec := &recorder{}
	b.warm(ctx, twin, &recorder{})
	for _, q := range replayed {
		twin.exec(ctx, &op{kind: opQuery, q: q}, time.Now(), twinRec)
	}
	total.merge(twinRec)

	// The start of the put phase, traced, after every query whose
	// cursor names the boot generation. The durability counters cover
	// every write since the open loop began.
	for _, o := range b.puts[:min(len(b.puts), tracedPuts)] {
		if err := t.op(ctx, o); err != nil {
			return nil, err
		}
	}
	total.merge(t.rec)
	for _, l := range half {
		for _, o := range l.ops {
			if o.kind == opPut {
				t.uploaded += len(o.doc.xml)
			}
		}
	}
	fs1, wr1 := durableTotals(d)
	m["wal.fsyncs"] = metric{float64(fs1 - fs0), "count"}
	m["durable.write_amp"] = metric{float64(wr1-wr0) / float64(max(t.uploaded, 1)), "ratio"}

	rootName := "net"
	if d.coord != nil {
		rootName = "cluster"
	}
	t.tr.mu.Lock()
	spans := append([]span(nil), t.tr.spans...)
	t.tr.mu.Unlock()
	qt := analyze(spans, rootName)
	pt := analyze(spans, "net.put")
	pTail, _ := durationsMS(append(append([]time.Duration(nil), open.put...), pt.roots...)).tail()
	m["loadgen.put_p99_ms"] = metric{pTail, "ms"}
	medUS := func(ds []time.Duration) float64 { return us(medianDuration(ds)) }
	for _, l := range []struct{ metric, span string }{
		{"fulltext.search_us", "fulltext.search"}, {"core.meet_us", "core.meet"}, {"vague.relax_us", "vague.relax"},
		{"ncq.member_us", "ncq.member"}, {"results.merge_us", "results"}, {"server.handler_us", "server"},
		{"net.overhead_us", "net"}, {"cluster.overhead_us", "cluster"}, {"cluster.worker_us", "cluster.worker"},
	} {
		m[l.metric] = metric{medUS(qt.self[l.span]), "us"}
	}
	for _, l := range []struct{ metric, span string }{
		{"xmltree.parse_us", "xmltree.parse"}, {"shard.split_us", "shard.split"}, {"monetx.shred_us", "monetx.shred"},
		{"fulltext.index_us", "fulltext.index"}, {"durable.commit_us", "durable.commit"}, {"server.put_us", "net.put"},
	} {
		m[l.metric] = metric{medUS(pt.self[l.span]), "us"}
	}
	var acc, roots time.Duration
	for i := range qt.roots {
		acc += qt.accounted[i]
		roots += qt.roots[i]
	}
	m["trace.accounted_ratio"] = metric{float64(acc) / float64(max(roots, 1)), "ratio"}
	m["trace.requests"] = metric{float64(len(qt.roots) + len(pt.roots)), "count"}
	m["trace.overhead_us"] = metric{medUS(qt.roots) - us(medianDuration(twinRec.query)), "us"}
	for _, k := range []string{"fulltext.values_tested", "fulltext.assocs_walked", "fulltext.hits", "core.inputs", "core.meets", "vague.paths_admitted", "results.members", "server.response_bytes", "cluster.worker_bytes"} {
		m[k] = metric{t.ls.median(k), "count"}
	}
	m["server.response_bytes"] = metric{t.ls.median("server.response_bytes"), "bytes"}
	m["cluster.worker_bytes"] = metric{t.ls.median("cluster.worker_bytes"), "bytes"}
	m["results.first_meet_us"] = metric{t.ls.median("results.first_meet_us"), "us"}
	m["cluster.worker_first_byte_us"] = metric{t.ls.median("cluster.worker_first_byte_us"), "us"}
	m["fulltext.hit_yield"] = metric{t.ls.total["fulltext.hits"] / max(t.ls.total["fulltext.assocs_walked"], 1), "ratio"}
	m["results.returned_ratio"] = metric{t.ls.total["results.returned"] / max(t.ls.total["results.computed"], 1), "ratio"}

	if err := stopTwin(); err != nil {
		return nil, err
	}
	if err := stopFront(); err != nil {
		return nil, err
	}
	restart, err := b.recoveryCheck(ctx, d, total)
	if err != nil {
		return nil, err
	}
	m["durable.restart_s"] = metric{restart.Seconds(), "s"}
	for _, e := range total.errs {
		b.logf("FAILED: %s", e)
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "traces"), 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
	if err := t.tr.write(tracePath); err != nil {
		return nil, err
	}
	b.logf("traced %d requests (%d spans) into %s; setup %.3fs, heap %.1f MB", len(qt.roots)+len(pt.roots), len(spans), tracePath, setupTime.Seconds(), heapMB)
	return &result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}
