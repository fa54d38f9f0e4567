package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"ncq"
	"ncq/internal/cluster"
	"ncq/internal/durable"
	"ncq/internal/server"
	"ncq/internal/shard"
	"ncq/internal/wal"
)

// Every node runs ncqd's defaults, -fsync batch included.
const (
	cacheBytes = 64 << 20
	maxBody    = 32 << 20
	fsync      = wal.PolicyBatch
)

// quietLogger formats every request log line as ncqd does and throws
// it away, so logging costs what it costs in production without
// flooding the benchmark's output.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))

// loadDatabases parses and loads one document the way a PUT does.
func loadDatabases(d xmlDoc) ([]*ncq.Database, error) {
	doc, err := ncq.ParseDocument(bytes.NewReader(d.xml))
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", d.name, err)
	}
	if d.shards <= 1 {
		db, err := ncq.FromDocument(doc)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", d.name, err)
		}
		return []*ncq.Database{db}, nil
	}
	var dbs []*ncq.Database
	for _, sd := range shard.Split(doc, d.shards) {
		db, err := ncq.FromDocument(sd)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", d.name, err)
		}
		dbs = append(dbs, db)
	}
	return dbs, nil
}

// loaded is a parsed document ready to register in a corpus.
type loaded struct {
	name  string
	plain bool
	dbs   []*ncq.Database
}

func loadAll(docs []xmlDoc) ([]loaded, error) {
	out := make([]loaded, len(docs))
	for i, d := range docs {
		dbs, err := loadDatabases(d)
		if err != nil {
			return nil, err
		}
		out[i] = loaded{name: d.name, plain: d.shards <= 1, dbs: dbs}
	}
	return out, nil
}

// writeDataDir persists docs into a fresh durable data directory, the
// state an ncqd -data-dir node recovers at boot.
func writeDataDir(dir string, docs []loaded) error {
	c := ncq.NewCorpus()
	st, err := durable.Open(dir, fsync, c)
	if err != nil {
		return fmt.Errorf("create data dir: %w", err)
	}
	for _, d := range docs {
		if d.plain {
			_, err = st.PutPlain(d.name, d.dbs[0])
		} else {
			_, err = st.PutShards(d.name, d.dbs)
		}
		if err != nil {
			st.Close()
			return fmt.Errorf("persist %s: %w", d.name, err)
		}
	}
	if err := st.Sync(); err != nil {
		st.Close()
		return fmt.Errorf("persist data dir: %w", err)
	}
	return st.Close()
}

// referenceCorpus registers docs in memory, never through snapshots.
func referenceCorpus(docs []loaded) (*ncq.Corpus, error) {
	c := ncq.NewCorpus()
	for _, d := range docs {
		var err error
		if d.plain {
			err = c.Add(d.name, d.dbs[0])
		} else {
			_, err = c.AddShardDBs(d.name, d.dbs)
		}
		if err != nil {
			return nil, fmt.Errorf("reference corpus: %w", err)
		}
	}
	return c, nil
}

// listener serves a handler on a loopback port until stopped.
type listener struct {
	url  string
	srv  *http.Server
	done chan error
	once sync.Once
	err  error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// stop shuts the listener down and waits for it; repeated calls
// return the first call's result.
func (l *listener) stop() error {
	l.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		l.err = l.srv.Shutdown(ctx)
		if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
			l.err = errors.Join(l.err, serr)
		}
	})
	return l.err
}

// node is one ncqd node booted the way `ncqd -data-dir` boots.
type node struct {
	name   string
	dir    string
	corpus *ncq.Corpus
	store  *durable.Store
	srv    *server.Server
	ln     *listener
}

func serverOptions(name, role string, store *durable.Store) []server.Option {
	opts := []server.Option{
		server.WithCacheBytes(cacheBytes),
		server.WithCacheTTL(0),
		server.WithMaxBody(maxBody),
		server.WithNodeName(name),
		server.WithRole(role),
		server.WithLogger(quietLogger),
		server.WithAdmission(0, 0, time.Second),
	}
	if store != nil {
		opts = append(opts, server.WithDurability(store))
	}
	return opts
}

func bootNode(dir, name, role string) (*node, error) {
	c := ncq.NewCorpus()
	c.SetParallelism(0)
	st, err := durable.Open(dir, fsync, c)
	if err != nil {
		return nil, fmt.Errorf("boot %s: %w", name, err)
	}
	srv := server.New(c, serverOptions(name, role, st)...)
	ln, err := serve(srv.Handler())
	if err != nil {
		st.Close()
		return nil, err
	}
	return &node{name: name, dir: dir, corpus: c, store: st, srv: srv, ln: ln}, nil
}

func (n *node) stop() error {
	err := n.ln.stop()
	return errors.Join(err, n.store.Close())
}

// deployment is what a workload runs against: one node, or workers
// behind a coordinator.
type deployment struct {
	nodes    []*node
	coord    *cluster.Coordinator
	front    *listener // the coordinator's listener, nil for one node
	stopPoll context.CancelFunc
	polled   chan struct{}
	writer   *node // serves the put phase, apart from the queried nodes
}

// all returns every node of the deployment, the writer included.
func (d *deployment) all() []*node {
	if d.writer == nil {
		return d.nodes
	}
	return append(d.nodes[:len(d.nodes):len(d.nodes)], d.writer)
}

func (d *deployment) url() string {
	if d.front != nil {
		return d.front.url
	}
	return d.nodes[0].ln.url
}

// workerNames are fixed, so ring placement is the same on every run.
var workerNames = []string{"w1", "w2", "w3"}

func newCoordinator(nodes []*node) (*cluster.Coordinator, error) {
	ws := make([]cluster.Worker, len(nodes))
	for i, n := range nodes {
		ws[i] = cluster.Worker{Name: n.name, URL: n.ln.url}
	}
	return cluster.New(cluster.Config{Workers: ws, CacheBytes: cacheBytes, Logger: quietLogger, Retries: 1})
}

// boot brings a deployment from its data directories to ready-to-serve.
// Workers recover in parallel, as separate machines would.
func boot(dirs []string, clustered bool) (*deployment, error) {
	d := &deployment{nodes: make([]*node, len(dirs))}
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		name, role := "ncqd", "single"
		if clustered {
			name, role = workerNames[i], "worker"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.nodes[i], errs[i] = bootNode(dir, name, role)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.stop()
		return nil, err
	}
	if !clustered {
		return d, nil
	}
	coord, err := newCoordinator(d.nodes)
	if err != nil {
		d.stop()
		return nil, err
	}
	d.coord = coord
	ctx, cancel := context.WithCancel(context.Background())
	d.stopPoll, d.polled = cancel, make(chan struct{})
	go func() {
		defer close(d.polled)
		coord.Poll(ctx)
	}()
	if d.front, err = serve(coord.Handler()); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *deployment) stop() error {
	var errs []error
	if d.front != nil {
		errs = append(errs, d.front.stop())
	}
	if d.stopPoll != nil {
		d.stopPoll()
		<-d.polled
	}
	for _, n := range d.all() {
		if n != nil {
			errs = append(errs, n.stop())
		}
	}
	return errors.Join(errs...)
}
