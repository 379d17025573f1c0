package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"apex"
	"apex/internal/server"
	"apex/internal/shard"
	"apex/internal/xmlgraph"
)

// numShards is router-scatter's partition count: one shard per core of the
// two-core box the benchmark was sized on.
const numShards = 2

// target is one assembled system under test: what a workload's set-up builds
// and its clients talk to. Exactly one of ix and shards is set; url is empty
// for the embedded (in-process) target.
type target struct {
	ix     *apex.Index
	shards []*shard.LocalBackend
	router *shard.Router

	srv       *server.Server       // single-index HTTP targets
	routerSrv *server.RouterServer // router-scatter
	httpSrv   *http.Server
	served    chan error
	url       string

	dir string // durable directory; "" while the target is served from memory alone

	// What set-up saw of the layers a traced run reports.
	partitionS, persistS float64
	replicated           int // partition units copied to more than one shard
}

// buildIndex is the index half of every set-up: apex.Open over the XML text
// with the dataset's reference attributes, then the paper's adaptation to
// the 20% workload sample.
func (e *env) buildIndex(opts apex.Options) (*apex.Index, error) {
	ix, err := apex.Open(strings.NewReader(e.xml), &opts)
	if err != nil {
		return nil, err
	}
	if err := ix.AdaptTo(e.pop.adaptSets[0], adaptMinSup); err != nil {
		return nil, err
	}
	return ix, nil
}

// serve puts h behind a real loopback listener, as apexd does.
func (t *target) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	t.httpSrv = &http.Server{Handler: h}
	t.served = make(chan error, 1)
	t.url = "http://" + ln.Addr().String()
	go func() { t.served <- t.httpSrv.Serve(ln) }()
	return nil
}

// close stops the listener, waits for the serve goroutine, releases the
// durability attachment and removes the durable directory. Closing twice is
// harmless.
func (t *target) close() error {
	var errs []error
	if t.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, t.httpSrv.Shutdown(ctx))
		cancel()
		if err := <-t.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		t.httpSrv = nil
	}
	if t.ix != nil {
		errs = append(errs, t.ix.Close())
	}
	errs = append(errs, shard.CloseShards(t.shards))
	if t.dir != "" {
		errs = append(errs, os.RemoveAll(t.dir))
		t.dir = ""
	}
	return errors.Join(errs...)
}

func buildEmbedded(e *env) (*target, error) {
	ix, err := e.buildIndex(e.opts)
	if err != nil {
		return nil, err
	}
	return &target{ix: ix}, nil
}

func buildServeHot(e *env) (*target, error) {
	t, err := buildEmbedded(e)
	if err != nil {
		return nil, err
	}
	return t, t.front(true)
}

// buildRouter mirrors apexd -shards 2 -cache 0: parse the document, partition
// it, index each shard, adapt each shard to the same workload sample.
func buildRouter(e *env) (*target, error) {
	g, err := xmlgraph.BuildString(e.xml, e.buildOpts)
	if err != nil {
		return nil, err
	}
	t := &target{}
	t0 := time.Now()
	var plan *shard.Plan
	if t.shards, plan, err = shard.BuildLocal(g, numShards, &e.opts); err != nil {
		return nil, err
	}
	t.partitionS, t.replicated = time.Since(t0).Seconds(), plan.Replicated()
	errs := make([]error, len(t.shards))
	var wg sync.WaitGroup
	for i, b := range t.shards {
		wg.Add(1)
		go func(i int, b *shard.LocalBackend) {
			defer wg.Done()
			errs[i] = b.AdaptTo(e.pop.adaptSets[0], adaptMinSup)
		}(i, b)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return t, t.front(false)
}

// buildServeChurn is serve-hot's target made durable: an initial checkpoint
// in a fresh directory, every later write journaled with an fsync.
func buildServeChurn(e *env) (*target, error) {
	t, err := buildEmbedded(e)
	if err != nil {
		return nil, err
	}
	if t.dir, err = os.MkdirTemp(e.tmpRoot, "durable-"); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := t.ix.Persist(t.dir); err != nil {
		return nil, err
	}
	t.persistS = time.Since(t0).Seconds()
	return t, t.front(true)
}

// front puts the serving half before the index half: the router over the
// shards, or — when served — apexd's handler over the single index, behind a
// loopback listener. Recovery uses it too, so a recovered target is served
// exactly as the one that was closed.
func (t *target) front(served bool) error {
	switch {
	case t.shards != nil:
		t.router = shard.NewRouter(shard.Backends(t.shards), 0)
		t.routerSrv = server.NewRouterServer(t.router, server.Config{CacheSize: -1})
		return t.serve(t.routerSrv.Handler())
	case served:
		t.srv = server.New(t.ix, server.Config{})
		return t.serve(t.srv.Handler())
	}
	return nil
}

// adapt restructures the target for queries the way its operator would: a
// direct AdaptTo on the embedded index, POST /adapt (a broadcast, under the
// router) on a served one.
func (t *target) adapt(queries []string) error {
	if t.url == "" {
		return t.ix.AdaptTo(queries, adaptMinSup)
	}
	c := newClient(t)
	defer c.close()
	body, err := json.Marshal(map[string]any{"min_sup": adaptMinSup, "queries": queries})
	if err != nil {
		return err
	}
	_, err = c.post("/adapt", body)
	return err
}

// insert is one write through the target's own write path: the index's
// Insert (journaled with an fsync on a durable target) or the router's
// broadcast.
func (t *target) insert() error {
	if t.router != nil {
		return t.router.Insert(context.Background(), "/", churnFragment)
	}
	return t.ix.Insert("/", churnFragment)
}

// checkpoint leaves the target's current state on disk as a checkpoint with
// an empty log: Checkpoint on a durable target, a first Persist (per shard,
// under the router) on one that was served from memory.
func (t *target) checkpoint(tmpRoot string) (err error) {
	if t.dir != "" {
		return t.ix.Checkpoint() // only the single-index target is set up durable
	}
	if t.dir, err = os.MkdirTemp(tmpRoot, "restart-"); err != nil {
		return err
	}
	if t.shards != nil {
		return shard.PersistShards(t.dir, t.shards)
	}
	return t.ix.Persist(t.dir)
}

// fingerprint identifies the published state of the target's indexes.
func (t *target) fingerprint() string {
	if t.ix != nil {
		return t.ix.Fingerprint()
	}
	var b strings.Builder
	for _, s := range t.shards {
		b.WriteString(s.Index().Fingerprint())
		b.WriteByte(' ')
	}
	return b.String()
}

// restart closes t and brings the same kind of target back from the
// directory t was checkpointed to, as a restarted apexd would. seconds is
// the recovery call alone: RecoverDir, or RecoverShards under the router.
func (t *target) restart() (r *target, seconds float64, err error) {
	dir, served := t.dir, t.url != ""
	t.dir = "" // the restarted target owns the directory now
	r = &target{dir: dir}
	if err := t.close(); err != nil {
		return nil, 0, errors.Join(err, r.close())
	}
	t0 := time.Now()
	if t.shards != nil {
		r.shards, err = shard.RecoverShards(dir, nil)
	} else {
		r.ix, err = apex.RecoverDir(dir, "", nil)
	}
	seconds = time.Since(t0).Seconds()
	if err == nil {
		err = r.front(served)
	}
	if err != nil {
		return nil, 0, errors.Join(err, r.close())
	}
	return r, seconds, nil
}

// client is one closed-loop caller: its own keep-alive connection for the
// HTTP targets, a direct call for the embedded one.
type client struct {
	t   *target
	hc  *http.Client
	buf []byte
}

func newClient(t *target) *client {
	c := &client{t: t}
	if t.url != "" {
		c.hc = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	return c
}

func (c *client) close() {
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// reply is what the measured path reads of an answer: the fields ahead of
// the node array.
type reply struct {
	count  int
	wallNS int64
	bytes  int
}

// query sends d and reads the whole answer, decoding only count and wall_ns — the client's JSON decoding of a large node array is not the
// server's cost and is kept off the measured path.
func (c *client) query(d *distinctQuery) (reply, error) {
	if c.hc == nil {
		res, err := c.t.ix.QueryContext(context.Background(), d.text)
		if err != nil {
			return reply{}, err
		}
		return reply{count: res.Len()}, nil
	}
	body, err := c.post("/query", d.body)
	if err != nil {
		return reply{}, err
	}
	r := reply{bytes: len(body)}
	count, ok1 := headField(body, `,"count":`)
	wall, ok2 := headField(body, `,"wall_ns":`)
	if !ok1 || !ok2 {
		return r, fmt.Errorf("malformed answer: %.80q", body)
	}
	r.count, r.wallNS = int(count), wall
	return r, nil
}

// queryIDs sends d and decodes the full answer into its node id list.
func (c *client) queryIDs(d *distinctQuery) ([]int32, error) {
	if c.hc == nil {
		res, err := c.t.ix.QueryContext(context.Background(), d.text)
		if err != nil {
			return nil, err
		}
		ids := make([]int32, len(res.Nodes))
		for i, n := range res.Nodes {
			ids[i] = n.ID
		}
		return ids, nil
	}
	body, err := c.post("/query", d.body)
	if err != nil {
		return nil, err
	}
	var ans struct {
		Count int `json:"count"`
		Nodes []struct {
			ID int32 `json:"id"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return nil, err
	}
	if ans.Count != len(ans.Nodes) {
		return nil, fmt.Errorf("answer says count %d, carries %d nodes", ans.Count, len(ans.Nodes))
	}
	ids := make([]int32, len(ans.Nodes))
	for i, n := range ans.Nodes {
		ids[i] = n.ID
	}
	return ids, nil
}

// post sends one request and returns the body, valid until the next call.
// Any status but 200 is an error (429, 499, 502 and 504 included).
func (c *client) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.t.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf = c.buf[:0]
	for {
		if len(c.buf) == cap(c.buf) {
			c.buf = append(c.buf, 0)[:len(c.buf)]
		}
		n, err := resp.Body.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.120s", path, resp.StatusCode, c.buf)
	}
	return c.buf, nil
}

// headField reads the number or boolean that follows key in a JSON answer.
// The keys searched for start with an unescaped quote after a comma, which
// cannot occur inside a JSON string, so the first match is the field.
func headField(body []byte, key string) (int64, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		return 1, true
	case bytes.HasPrefix(rest, []byte("false")):
		return 0, true
	}
	var v int64
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		v = v*10 + int64(rest[n]-'0')
		n++
	}
	return v, n > 0
}
