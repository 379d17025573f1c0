package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"apex"
	"apex/internal/core"
	"apex/internal/query"
	"apex/internal/server"
	"apex/internal/shard"
	"apex/internal/storage"
	"apex/internal/xmlgraph"
)

// traceRequests is how many requests of the workload's own sequence (client
// 0's) the traced pass follows through the layers.
const traceRequests = 500

// span is one timed call into a layer. Spans of one request share req; a
// span's parent is the layer that makes this call when the program serves a
// request itself. The harness makes each call from outside with the same
// input, so a child span lies beside its parent in time, not inside it.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is one node of a request path's call structure. Layers named
// name[i] are one parallel group: the program runs them at the same time, so
// together they cover their slowest member.
type layer struct{ name, parent string }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	dur    map[string]float64 // the current request's span durations in µs, parallel groups folded to their maximum
}

// call times fn as one span of request req.
func (tr *tracer) call(req int, name, parent string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	tr.spans = append(tr.spans, span{req, name, parent, start.Sub(tr.origin).Nanoseconds(), end.Sub(tr.origin).Nanoseconds()})
	us := float64(end.Sub(start).Nanoseconds()) / 1e3
	group, _, _ := strings.Cut(name, "[")
	if us > tr.dur[group] {
		tr.dur[group] = us
	}
	return us
}

// second runs fn once untimed and times the repeat, so every layer is seen
// in the warm state a steady window sees.
func (tr *tracer) second(req int, name, parent string, fn func()) float64 {
	fn()
	return tr.call(req, name, parent, fn)
}

func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// serveInto calls h as the HTTP server would, with the answer recorded in
// memory, and returns the answer's count field.
func serveInto(h http.Handler, body []byte) (int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	count, ok := headField(rec.Body.Bytes(), `,"count":`)
	if rec.Code != http.StatusOK || !ok {
		return 0, fmt.Errorf("handler: status %d: %.120s", rec.Code, rec.Body.Bytes())
	}
	return int(count), nil
}

// lookupPath is the label path the evaluator hands to H_APEX for q.
func lookupPath(q query.Query) xmlgraph.LabelPath {
	switch q.Type {
	case query.QTYPE2:
		return q.Path[1:]
	case query.QMIXED:
		return q.Segments[len(q.Segments)-1]
	}
	return q.Path
}

// layerPass is the traced run's second half. The first half was a normal
// window on the workload's own target, whose counter deltas say which layers
// that workload makes work and how often. This half times the public
// functions of the layers on the workload's own request path from outside,
// outermost to innermost, on that same warm target and the workload's own
// request sequence. A layer the workload's requests do not cross is not
// touched and reads 0.
type layerPass struct {
	e  *env
	t  *target
	tr *tracer
	m  map[string]float64

	attempted, failed int64
	negative          int // layers whose median self time is below zero
}

// check counts one answer of the pass: it must be the oracle's.
func (p *layerPass) check(got, want int, err error) {
	p.attempted++
	if err != nil || got != want {
		p.failed++
		p.e.logf("traced run: got %d, oracle %d, err %v", got, want, err)
	}
}

// traceLayers fills in every per-layer metric of a traced run: the counts
// from the window, then the workload's own layer pass.
func (e *env) traceLayers(t *target, win *windowResult, stats windowStats, delta counters, ch *churn) (m map[string]float64, attempted, failed int64, err error) {
	p := &layerPass{e: e, t: t, m: map[string]float64{}, tr: &tracer{origin: time.Now(), dur: map[string]float64{}}}
	m = p.m
	ops := float64(win.attempted)
	reg := func(name string) float64 { return float64(delta.reg[name]) }
	m["core.fastpath_share"] = ratio(reg("query.apex.fastpath_total"), reg("query.apex.fastpath_total")+reg("query.apex.joinpath_total"))
	m["query.plan_cache_hit_rate"] = ratio(reg("query.apex.plan.cache_hits_total"), reg("query.apex.plan.cache_hits_total")+reg("query.apex.plan.cache_misses_total"))
	m["query.leg_cache_hit_rate"] = ratio(reg("query.apex.plan.leg_cache_hits_total"), reg("query.apex.plan.leg_cache_hits_total")+reg("query.apex.plan.leg_cache_misses_total"))
	m["query.backward_plans"] = reg("query.apex.plan.backward_total")
	m["query.hash_stage_share"] = ratio(reg("query.apex.plan.hash_stages_total"), reg("query.apex.joinpath_total"))
	m["query.pool_exhausted"] = reg("query.pool.exhausted_total")
	m["server.requests_per_op"] = ratio(reg("server.requests_total"), ops)
	m["server.cache_hit_rate"] = ratio(reg("server.cache.hits_total"), reg("server.cache.hits_total")+reg("server.cache.misses_total"))
	m["server.cache_evictions"] = reg("server.cache.evictions_total")
	m["server.shed"] = reg("server.shed_total")
	m["shard.backend_queries_per_op"] = ratio(float64(delta.shardQueries), ops)
	m["controller.adapts"] = reg("controller.adapts_triggered_total")
	if ch != nil {
		m["churn.writes"] = float64(len(ch.writeMS))
	}
	m["trace.window_p50_us"] = stats.p50US
	m["datagen.generate_s"] = e.datagenS
	m["workload.generate_s"] = e.workloadS

	if err := e.cfg.workload.layers(p); err != nil {
		return nil, 0, 0, err
	}
	m["trace.negative_self_layers"] = float64(p.negative)
	name := fmt.Sprintf("spans-%s-seed%d.jsonl", e.cfg.workload.name, e.cfg.seed)
	return m, p.attempted, p.failed, p.tr.write(filepath.Join(e.cfg.outDir, name))
}

// requests follows the first traceRequests requests of the workload's own
// sequence through the layers of tree: visit makes the calls of one request,
// outermost first. It returns, per layer, the median span and the median self
// time (the span minus its children's) in µs; trace.client_p50_us is the
// outermost layer's median.
func (p *layerPass) requests(tree []layer, visit func(r int, d *distinctQuery) error) (med, self map[string]float64, err error) {
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	draw := p.e.pop.drawer(p.e.cfg.seed, 0, p.e.cfg.workload.zipf)
	for r := 0; r < traceRequests; r++ {
		p.tr.dur = map[string]float64{}
		if err := visit(r, &p.e.pop.distinct[draw.next()]); err != nil {
			return nil, nil, err
		}
		for _, l := range tree {
			s := p.tr.dur[l.name]
			durs[l.name] = append(durs[l.name], s)
			for _, c := range tree {
				if c.parent == l.name {
					s -= p.tr.dur[c.name]
				}
			}
			selfs[l.name] = append(selfs[l.name], s)
		}
	}
	med, self = map[string]float64{}, map[string]float64{}
	for _, l := range tree {
		med[l.name], self[l.name] = median(durs[l.name]), median(selfs[l.name])
		if self[l.name] < 0 {
			p.negative++
			p.e.logf("warning: layer %s has a negative median self time (%.1f us): its children are not nested calls", l.name, self[l.name])
		}
	}
	p.m["trace.client_p50_us"] = med[tree[0].name]
	return med, self, nil
}

// embedded is embedded-mixed's pass: the facade, the parser, the evaluator
// and H_APEX on the workload's own index, the block-compressed twin beside
// it, and set-up taken apart layer by layer.
func (p *layerPass) embedded() error {
	e, m, ms := p.e, p.m, func(t0 time.Time) float64 { return time.Since(t0).Seconds() * 1e3 }
	nodes := float64(e.graph.NumNodes())

	// Set-up once more, one layer at a time.
	heap0 := settledHeap()
	t0 := time.Now()
	g, err := xmlgraph.BuildString(e.xml, e.buildOpts)
	if err != nil {
		return err
	}
	m["xmlgraph.parse_s"] = time.Since(t0).Seconds()
	m["xmlgraph.heap_bytes_per_node"] = float64(settledHeap()-heap0) / nodes
	t0 = time.Now()
	if _, err := storage.BuildDataTable(g, 0, 64); err != nil {
		return err
	}
	m["storage.datatable_build_ms"] = ms(t0)
	t0 = time.Now()
	adapted := core.BuildAPEX0Opts(g, runtime.GOMAXPROCS(0), false)
	m["core.build_s"] = time.Since(t0).Seconds()
	var paths []xmlgraph.LabelPath
	for _, s := range e.pop.adaptSets[0] {
		paths = append(paths, query.MustParse(s).Path)
	}
	t0 = time.Now()
	adapted.ExtractFrequentPaths(paths, adaptMinSup)
	m["core.extract_ms"] = ms(t0)
	freeze0 := readRegistry()["core.freeze_ns.sum"]
	t0 = time.Now()
	adapted.Update()
	m["core.update_ms"] = ms(t0)
	m["core.freeze_ms"] = float64(readRegistry()["core.freeze_ns.sum"]-freeze0) / 1e6

	ix := p.t.ix
	st := ix.Stats()
	m["core.extent_bytes_per_edge"] = st.BytesPerEdge
	m["core.gapex_nodes"] = float64(st.Nodes)
	m["core.required_paths"] = float64(len(st.RequiredPaths))
	// The twin: the same adaptation with packed extents.
	packedOpts := e.opts
	packedOpts.CompressExtents = true
	packed, err := apex.FromCore(adapted, &packedOpts)
	if err != nil {
		return err
	}
	m["extentblock.bytes_per_edge"] = packed.Stats().BytesPerEdge

	ctx := context.Background()
	eval, packedEval, idx := ix.Evaluator(), packed.Evaluator(), ix.Evaluator().Index()
	var evalByClass [numClasses][]float64
	var nodesSum, costSum, examined, resultNodes, q3Lookups, q3Count, packedUS, flatUS float64
	skips0 := readRegistry()["query.apex.merge.block_skips_total"]
	tree := []layer{{"apex.query", ""}, {"query.parse", "apex.query"}, {"query.eval", "apex.query"}, {"core.lookup", "query.eval"}, {"extentblock.eval", ""}}
	med, self, err := p.requests(tree, func(r int, d *distinctQuery) error {
		var res *apex.Result
		var qerr error
		p.tr.second(r, "apex.query", "", func() { res, qerr = ix.QueryContext(ctx, d.text) })
		p.check(res.Len(), d.wantCount, qerr)
		nodesSum += float64(res.Len())
		p.tr.second(r, "query.parse", "apex.query", func() { _, qerr = query.Parse(d.text) })
		var nids []xmlgraph.NID
		flat := p.tr.second(r, "query.eval", "apex.query", func() { nids, qerr = eval.EvaluateContext(ctx, d.parsed) })
		p.check(len(nids), d.wantCount, qerr)
		evalByClass[d.class] = append(evalByClass[d.class], flat)
		flatUS += flat
		path := lookupPath(d.parsed)
		p.tr.second(r, "core.lookup", "query.eval", func() { idx.LookupAll(path) })
		packedUS += p.tr.second(r, "extentblock.eval", "", func() { nids, qerr = packedEval.EvaluateContext(ctx, d.parsed) })
		p.check(len(nids), d.wantCount, qerr)

		_, trc, err := eval.EvaluateTrace(d.parsed)
		if err != nil {
			return err
		}
		costSum += float64(trc.Total.Total())
		examined += float64(trc.Total.ExtentEdges + trc.Total.JoinProbes + trc.Total.DataLookups)
		resultNodes += float64(trc.Total.ResultNodes)
		if d.class == classQ3 {
			q3Lookups += float64(trc.Total.DataLookups)
			q3Count++
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := float64(traceRequests)
	m["apex.query_us"] = med["apex.query"]
	m["apex.materialize_us"] = self["apex.query"]
	m["apex.nodes_per_result"] = nodesSum / n
	m["query.parse_ns"] = med["query.parse"] * 1e3
	for c, v := range evalByClass {
		m["query.eval_"+classNames[c]+"_us"] = ratio(sum(v), float64(len(v)))
	}
	m["core.lookup_ns"] = med["core.lookup"] * 1e3
	m["query.cost_per_query"] = costSum / n
	m["query.examined_per_result"] = ratio(examined, resultNodes)
	m["storage.datatable_lookups_per_q3"] = ratio(q3Lookups, q3Count)
	m["extentblock.eval_ratio"] = ratio(packedUS, flatUS)
	m["extentblock.block_skips_per_query"] = float64(readRegistry()["query.apex.merge.block_skips_total"]-skips0) / n
	return nil
}

// served is serve-hot's pass: the socket round trip and, inside it, the
// handler answering from its result cache. With misses (serve-churn, where
// every publication empties the cache) the cache-less handler over the same
// index and the facade call inside it are followed too.
func (p *layerPass) served() error { return p.servedPath(false) }

func (p *layerPass) servedPath(misses bool) error {
	t, m := p.t, p.m
	ctx := context.Background()
	cl := newClient(t)
	defer cl.close()
	hit := t.srv.Handler()
	tree := []layer{{"client", ""}, {"server.handler_hit", "client"}}
	var miss http.Handler
	if misses {
		miss = server.New(t.ix, server.Config{CacheSize: -1}).Handler()
		tree = append(tree, layer{"server.handler_miss", ""}, layer{"apex.query", "server.handler_miss"})
	}
	var wallUS []float64
	var bytesSum float64
	med, self, err := p.requests(tree, func(r int, d *distinctQuery) error {
		var rep reply
		var n int
		var qerr error
		p.tr.second(r, "client", "", func() { rep, qerr = cl.query(d) })
		p.check(rep.count, d.wantCount, qerr)
		wallUS = append(wallUS, float64(rep.wallNS)/1e3)
		bytesSum += float64(rep.bytes)
		p.tr.second(r, "server.handler_hit", "client", func() { n, qerr = serveInto(hit, d.body) })
		p.check(n, d.wantCount, qerr)
		if misses {
			p.tr.second(r, "server.handler_miss", "", func() { n, qerr = serveInto(miss, d.body) })
			p.check(n, d.wantCount, qerr)
			var res *apex.Result
			p.tr.second(r, "apex.query", "server.handler_miss", func() { res, qerr = t.ix.QueryContext(ctx, d.text) })
			p.check(res.Len(), d.wantCount, qerr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["server.handler_hit_us"] = med["server.handler_hit"]
	m["server.transport_us"] = self["client"]
	m["server.reported_wall_us"] = median(wallUS)
	m["server.bytes_per_response"] = bytesSum / traceRequests
	if misses {
		m["server.handler_miss_us"] = med["server.handler_miss"]
		m["server.self_miss_us"] = self["server.handler_miss"]
		m["apex.query_us"] = med["apex.query"]
	}
	return nil
}

// routed is router-scatter's pass: the socket round trip, the router's
// handler, the gather, each backend alone, and the merge.
func (p *layerPass) routed() error {
	t, m := p.t, p.m
	m["shard.partition_s"] = t.partitionS
	m["shard.replicated_units"] = float64(t.replicated)

	ctx := context.Background()
	cl := newClient(t)
	defer cl.close()
	handler := t.routerSrv.Handler()
	tree := []layer{{"client", ""}, {"shard.router_handler", "client"}, {"shard.gather", "shard.router_handler"},
		{"shard.backend", "shard.gather"}, {"shard.merge", "shard.router_handler"}}
	var wallUS, slowest, skew []float64
	var bytesSum float64
	med, self, err := p.requests(tree, func(r int, d *distinctQuery) error {
		var rep reply
		var n int
		var qerr error
		p.tr.second(r, "client", "", func() { rep, qerr = cl.query(d) })
		p.check(rep.count, d.wantCount, qerr)
		wallUS = append(wallUS, float64(rep.wallNS)/1e3)
		bytesSum += float64(rep.bytes)
		p.tr.second(r, "shard.router_handler", "client", func() { n, qerr = serveInto(handler, d.body) })
		p.check(n, d.wantCount, qerr)
		var parts []*apex.Result
		p.tr.second(r, "shard.gather", "shard.router_handler", func() { parts, _, qerr = t.router.Gather(ctx, d.text, nil) })
		if qerr != nil {
			return qerr
		}
		largest, total := 0, 0
		for i := range t.shards {
			b := t.router.Backend(i)
			p.tr.second(r, fmt.Sprintf("shard.backend[%d]", i), "shard.gather", func() { _, _, qerr = b.Query(ctx, d.text) })
			if parts[i].Len() > largest {
				largest = parts[i].Len()
			}
			total += parts[i].Len()
		}
		slowest = append(slowest, p.tr.dur["shard.backend"])
		if total > 0 {
			skew = append(skew, float64(largest)*float64(len(parts))/float64(total))
		}
		var merged *apex.Result
		p.tr.second(r, "shard.merge", "shard.router_handler", func() { merged = shard.MergeResults(parts) })
		p.check(merged.Len(), d.wantCount, nil)
		return nil
	})
	if err != nil {
		return err
	}
	m["server.transport_us"] = self["client"]
	m["server.reported_wall_us"] = median(wallUS)
	m["server.bytes_per_response"] = bytesSum / traceRequests
	m["shard.router_handler_us"] = med["shard.router_handler"]
	m["shard.gather_us"] = med["shard.gather"]
	m["shard.slowest_backend_us"] = median(slowest)
	m["shard.scatter_overhead_us"] = self["shard.gather"]
	m["shard.merge_us"] = med["shard.merge"]
	m["shard.result_skew"] = ratio(sum(skew), float64(len(skew)))
	return nil
}

// churned is serve-churn's pass: served's, hits and misses, then the write
// path on the workload's own durable index — the facade's whole calls beside
// a replay of one insert on harness-owned clones — and at the end a restart
// from the directory with a two-record log to replay.
func (p *layerPass) churned() (err error) {
	if err := p.servedPath(true); err != nil {
		return err
	}
	e, t, m, tr, ix := p.e, p.t, p.m, p.tr, p.t.ix
	nodes := float64(e.graph.NumNodes())
	w := traceRequests // request id of the write-side spans

	m["apex.adapt_ms"] = tr.call(w, "apex.adapt", "", func() { err = ix.AdaptTo(e.pop.adaptSets[2], adaptMinSup) }) / 1e3
	if err != nil {
		return err
	}
	var gc *xmlgraph.Graph
	m["xmlgraph.clone_ms"] = tr.second(w, "xmlgraph.clone", "apex.insert", func() { gc = ix.Graph().Clone() }) / 1e3
	var cc *core.APEX
	tr.call(w, "core.clone", "apex.insert", func() { cc = ix.Evaluator().Index().CloneWithGraph(gc) })
	m["xmlgraph.append_ms"] = tr.call(w, "xmlgraph.append", "apex.insert", func() { _, err = gc.AppendFragment(gc.Root(), churnFragment, e.buildOpts) }) / 1e3
	if err != nil {
		return err
	}
	m["core.refresh_ms"] = tr.call(w, "core.refresh", "apex.insert", func() { cc.RefreshData() }) / 1e3

	m["storage.persist_s"] = t.persistS
	m["storage.checkpoint_s"] = tr.call(w, "storage.checkpoint", "", func() { err = ix.Checkpoint() }) / 1e6
	if err != nil {
		return err
	}
	// One insert and one delete, timed, which stay behind as the log
	// recovery has to replay.
	wal0 := readRegistry()
	m["apex.insert_ms"] = tr.call(w, "apex.insert", "", func() { err = ix.Insert("/", churnFragment) }) / 1e3
	p.check(0, 0, err)
	m["apex.delete_ms"] = tr.call(w, "apex.delete", "", func() { err = ix.Delete(churnDeleteTarget) }) / 1e3
	p.check(0, 0, err)
	wal := func(name string) float64 { return float64(readRegistry()[name] - wal0[name]) }
	m["storage.wal_fsync_ms"] = ratio(wal("storage.wal.fsync_ns.sum"), wal("storage.wal.fsync_ns.count")) / 1e6
	m["storage.wal_bytes_per_write"] = wal("storage.wal.appended_bytes_total") / 2
	m["storage.wal_fsyncs_per_write"] = wal("storage.wal.fsyncs_total") / 2
	if ds, ok := ix.DurabilityStats(); ok {
		m["storage.disk_bytes_per_node"] = float64(ds.CheckpointBytes) / nodes
	}
	fingerprint := ix.Fingerprint()
	if err := ix.Close(); err != nil {
		return err
	}
	m["storage.open_dir_s"] = tr.call(w, "storage.open_dir", "apex.recover", func() { _, err = storage.OpenDir(t.dir) }) / 1e6
	if err != nil {
		return err
	}
	var recovered *apex.Index
	m["apex.recover_tail_s"] = tr.call(w, "apex.recover", "", func() { recovered, err = apex.RecoverDir(t.dir, "", nil) }) / 1e6
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, recovered.Close()) }()
	rs, _ := recovered.DurabilityStats()
	m["storage.replayed_records"] = float64(rs.ReplayedRecords)
	p.attempted += 2
	if rs.ReplayedRecords != 2 {
		p.failed++
		e.logf("recovery replayed %d records, want the two left in the log", rs.ReplayedRecords)
	}
	if recovered.Fingerprint() != fingerprint {
		p.failed++
		e.logf("recovered index fingerprint differs from the one closed")
	}
	checked, wrong, first := verify(&target{ix: recovered}, e.pop, e.clients)
	p.attempted, p.failed = p.attempted+checked, p.failed+wrong
	if first != nil {
		e.logf("recovered index: %v", first)
	}
	return nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
