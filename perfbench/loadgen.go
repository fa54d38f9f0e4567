package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// client talks to one node or coordinator over loopback TCP with at
// most conns connections.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is one answered request as the benchmark saw it.
type reply struct {
	status    int
	page      page
	cache     string    // X-NCQ-Cache
	firstMeet time.Time // arrival of a stream's first meet line
	shards    int       // PUT response
}

type envelope struct {
	Truncated  bool   `json:"truncated"`
	NextCursor string `json:"next_cursor"`
	Result     struct {
		Meets []meetKey `json:"meets"`
	} `json:"result"`
	Shards int    `json:"shards"`
	Error  string `json:"error"`
}

type streamLine struct {
	Meet       *meetKey `json:"meet"`
	Trailer    bool     `json:"trailer"`
	Truncated  bool     `json:"truncated"`
	NextCursor string   `json:"next_cursor"`
	Error      string   `json:"error"`
}

func (c *client) do(ctx context.Context, method, path string, body []byte, stream bool) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	rep := reply{status: resp.StatusCode, cache: resp.Header.Get("X-NCQ-Cache")}
	if stream && resp.StatusCode == http.StatusOK {
		return rep, readStream(resp.Body, &rep)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return rep, err
	}
	if len(raw) == 0 {
		return rep, nil
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return rep, fmt.Errorf("decode response: %w", err)
	}
	if env.Error != "" {
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, env.Error)
	}
	rep.page = page{meets: env.Result.Meets, next: env.NextCursor, truncated: env.Truncated}
	rep.shards = env.Shards
	return rep, nil
}

// readStream drains an NDJSON answer into rep.
func readStream(r io.Reader, rep *reply) error {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var l streamLine
			if err := json.Unmarshal(line, &l); err != nil {
				return fmt.Errorf("decode stream line: %w", err)
			}
			switch {
			case l.Meet != nil:
				if rep.firstMeet.IsZero() {
					rep.firstMeet = time.Now()
				}
				rep.page.meets = append(rep.page.meets, *l.Meet)
			case l.Trailer:
				rep.page.next, rep.page.truncated = l.NextCursor, l.Truncated
				return nil
			case l.Error != "":
				return fmt.Errorf("stream error: %s", l.Error)
			}
		}
		if err == io.EOF {
			return errors.New("stream ended without a trailer")
		}
		if err != nil {
			return err
		}
	}
}

func (c *client) query(ctx context.Context, body []byte, stream bool) (reply, error) {
	path := "/v2/query"
	if stream {
		path += "?stream=1"
	}
	return c.do(ctx, http.MethodPost, path, body, stream)
}

func (c *client) mutate(ctx context.Context, o *op) (reply, error) {
	path := "/v1/docs/" + o.doc.name
	if o.kind == opDelete {
		return c.do(ctx, http.MethodDelete, path, nil, false)
	}
	if o.doc.shards > 1 {
		path += "?shards=" + strconv.Itoa(o.doc.shards)
	}
	return c.do(ctx, http.MethodPut, path, o.doc.xml, false)
}

// timing is one request's clock readings. Latency runs from the time
// the request was due to be sent, so a stalled sender's backlog shows
// in the latencies of the requests that waited behind it.
type timing struct {
	due, sent, done time.Time
}

func (t timing) latency() time.Duration { return t.done.Sub(t.due) }
func (t timing) late() time.Duration    { return t.sent.Sub(t.due) }

// recorder collects the outcomes of one phase.
type recorder struct {
	mu        sync.Mutex
	query     []time.Duration
	firstMeet []time.Duration
	put       []time.Duration
	late      []time.Duration
	attempted int
	failed    int
	hits      int // answers served from a result cache
	errs      []string
}

func (r *recorder) outcome(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

// queries returns how many query answers r has timed.
func (r *recorder) queries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.query)
}

func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// runner executes operations against a deployment and checks them.
type runner struct {
	c           *client
	checkCursor bool // cursors are compared when the node's generation is the reference's
}

func (x *runner) exec(ctx context.Context, o *op, due time.Time, rec *recorder) {
	t := timing{due: due, sent: time.Now()}
	if o.kind != opQuery {
		rep, err := x.c.mutate(ctx, o)
		t.done = time.Now()
		if err == nil {
			err = checkMutation(o, rep)
		}
		rec.outcome(err)
		rec.mu.Lock()
		rec.put = append(rec.put, t.latency())
		rec.late = append(rec.late, t.late())
		rec.mu.Unlock()
		return
	}
	q := o.q
	rep, err := x.c.query(ctx, q.body, q.stream)
	t.done = time.Now()
	if err == nil {
		err = x.checkQuery(q, q.want, rep)
	}
	rec.outcome(err)
	rec.mu.Lock()
	rec.query = append(rec.query, t.latency())
	rec.late = append(rec.late, t.late())
	if q.stream && !rep.firstMeet.IsZero() {
		rec.firstMeet = append(rec.firstMeet, rep.firstMeet.Sub(due))
	}
	if rep.cache == "hit" {
		rec.hits++
	}
	rec.mu.Unlock()
	if err != nil || !q.followUp || !q.want.truncated {
		return
	}
	// The follow-up page is sent the moment the first page arrives,
	// with the cursor the deployment minted.
	w := q.wire
	w.Cursor = rep.page.next
	body, _ := json.Marshal(&w) // plain data; cannot fail
	t2 := timing{due: time.Now()}
	t2.sent = t2.due
	rep2, err := x.c.query(ctx, body, false)
	t2.done = time.Now()
	if err == nil {
		err = x.checkQuery(q, q.want2, rep2)
	}
	rec.outcome(err)
	rec.mu.Lock()
	rec.query = append(rec.query, t2.latency())
	rec.mu.Unlock()
}

func (x *runner) checkQuery(q *query, want page, rep reply) error {
	if rep.status != http.StatusOK {
		return fmt.Errorf("query %s: status %d", q.body, rep.status)
	}
	if q.wantErr != "" {
		return errors.New(q.wantErr)
	}
	if err := compare(rep.page, want, x.checkCursor); err != nil {
		return fmt.Errorf("query %s (stream=%t): %w", q.body, q.stream, err)
	}
	if err := checkProbe(q, rep.page); err != nil {
		return err
	}
	return nil
}

func checkMutation(o *op, rep reply) error {
	if rep.status != o.wantStatus {
		return fmt.Errorf("%s %s: status %d, want %d", map[opKind]string{opPut: "PUT", opDelete: "DELETE"}[o.kind], o.doc.name, rep.status, o.wantStatus)
	}
	if o.kind == opPut && rep.shards != max(o.doc.shards, 1) {
		return fmt.Errorf("PUT %s: %d shards, want %d", o.doc.name, rep.shards, max(o.doc.shards, 1))
	}
	return nil
}

// lane is one open-loop arrival schedule: ops[i] is due at
// start + i/rate, sent by the lane's own senders.
type lane struct {
	ops     []*op
	rate    float64
	senders int
}

// openLoop sends every lane's operations on their schedules, whatever
// the deployment's pace; a request waits for a free sender, and that
// wait counts in its latency.
func openLoop(lanes []lane, exec func(o *op, due time.Time)) {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for _, l := range lanes {
		var next atomic.Int64
		for s := 0; s < l.senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if int(i) >= len(l.ops) {
						return
					}
					due := start.Add(time.Duration(float64(i) / l.rate * float64(time.Second)))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					exec(l.ops[i], due)
				}
			}()
		}
	}
	wg.Wait()
}

// closedLoop sends ops from clients that each wait for their previous
// answer, starting at ops[from] and cycling through ops, until dur has
// passed or limit requests were sent. It returns how many were sent
// and the wall time until the last answer arrived.
func closedLoop(ops []*op, from, limit, clients int, dur time.Duration, exec func(o *op, start time.Time)) (int, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if int(i) >= limit {
					return
				}
				exec(ops[(from+int(i))%len(ops)], time.Now())
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), limit), time.Since(start)
}
