// Package apex is a workload-adaptive path index for XML data — a Go
// implementation of APEX (Min, Chung, Shim; ACM SIGMOD 2002).
//
// APEX summarizes an XML document (or document graph, via ID/IDREF
// attributes) into two coupled structures: a summary graph whose nodes
// carry extents (the edges reachable by a required label path), and a hash
// tree mapping label-path suffixes to summary nodes in reverse label order.
// It always answers any label-path query from the index alone — every
// label path of length two is indexed — and additionally keeps the longer
// paths that the observed query workload uses frequently, so partial
// matching queries (the //a/b/c kind) resolve in a hash lookup instead of
// an index traversal. The index adapts incrementally as the workload
// drifts.
//
// Basic use:
//
//	ix, err := apex.Open(xmlFile, nil)
//	res, err := ix.Query("//actor/name")
//	...
//	err = ix.Adapt(0.005) // mine the logged queries, reshape the index
//
// The three supported query shapes follow the paper's experiments:
// partial-matching paths ("//act/scene/line", with "=>" dereferencing
// ID/IDREF attributes), descendant pairs ("//act//line"), and value
// queries ("//title[text()=\"Hamlet\"]").
package apex

import (
	"bufio"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"apex/internal/core"
	"apex/internal/metrics"
	"apex/internal/query"
	"apex/internal/storage"
	"apex/internal/xmlgraph"
)

// Options configures Open.
type Options struct {
	// IDAttrs names the attributes that declare element identifiers
	// (default: "id").
	IDAttrs []string
	// IDREFAttrs and IDREFSAttrs name reference attributes; they turn the
	// document into a graph exactly as the paper's Figure 1 does.
	IDREFAttrs  []string
	IDREFSAttrs []string
	// MinSup is the minimum support used by Adapt when called with no
	// explicit value (default 0.005, the paper's sweet spot).
	MinSup float64
	// DisableQueryLog turns off the built-in workload log (Query calls are
	// then not recorded for Adapt).
	DisableQueryLog bool
	// MaxWorkloadLog bounds the workload log. When the log is full, the
	// oldest entries are evicted first (recent queries are what the next
	// Adapt should mine anyway); evictions are counted on the
	// "apex.workload_log_evicted_total" metric. 0 applies a generous default
	// (see defaultMaxWorkloadLog); a negative value removes the bound.
	MaxWorkloadLog int
	// Parallelism bounds the worker pool the query processor uses to fan
	// out extent scans, join probes, and value validations inside a single
	// query, and equally the goroutines a maintenance pass (build, Adapt,
	// Insert, Delete) fans its data-graph scans and extent freezing out to
	// (0 = GOMAXPROCS, 1 = fully serial). The query pool is shared by all
	// concurrent queries on the index; maintenance parallelism never changes
	// the built structure — parallel builds are bit-identical to serial ones.
	Parallelism int
	// AllowLegacyDump re-enables the deprecated monolithic Save path.
	// Persist/RecoverDir (manifest + WAL + segment files) is the supported
	// way to put an index on disk; Save remains for one release behind this
	// flag so existing dump-based tooling can migrate. Load still reads old
	// dumps unconditionally — they are the migration input.
	AllowLegacyDump bool
	// NoSync disables the per-commit WAL fsync on a durable index. Writes
	// stay ordered and CRC-framed, but a crash may lose the buffered tail;
	// a throughput knob for bulk loads, never a correctness one.
	NoSync bool
	// CompressExtents publishes frozen extents as block-compressed
	// delta/bit-packed columns instead of flat sorted slices: ~3–5× less
	// extent memory (see the README's "Memory footprint" section) for a
	// small join-latency cost, with identical query results and logical
	// costs. The setting travels with the index — Save/Persist record it,
	// and recovery loads segments straight into the recorded form.
	CompressExtents bool
}

func (o *Options) minSup() float64 {
	if o == nil || o.MinSup <= 0 {
		return 0.005
	}
	return o.MinSup
}

// defaultMaxWorkloadLog is the workload-log bound when Options.MaxWorkloadLog
// is zero: one million logged paths, far beyond what one Adapt round needs,
// but a hard stop against unbounded growth on an index that serves queries
// for a long time without ever adapting.
const defaultMaxWorkloadLog = 1 << 20

// maxWorkloadLog resolves the configured log bound: 0 means unbounded.
func (o *Options) maxWorkloadLog() int {
	switch {
	case o == nil || o.MaxWorkloadLog == 0:
		return defaultMaxWorkloadLog
	case o.MaxWorkloadLog < 0:
		return 0
	default:
		return o.MaxWorkloadLog
	}
}

// buildOptions returns the reference-attribute names as the graph builder
// takes them.
func (o *Options) buildOptions() *xmlgraph.BuildOptions {
	return &xmlgraph.BuildOptions{IDAttrs: o.IDAttrs, IDREFAttrs: o.IDREFAttrs, IDREFSAttrs: o.IDREFSAttrs}
}

// buildWorkers resolves Options.Parallelism to the maintenance fan-out bound.
func (o *Options) buildWorkers() int {
	if o == nil || o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// mWorkloadEvicted counts workload-log entries dropped by the
// MaxWorkloadLog bound (oldest first).
var mWorkloadEvicted = metrics.Default.Counter("apex.workload_log_evicted_total")

// Index is an APEX index over one document, together with its data table
// and query processor. An Index is safe for arbitrary concurrent use:
// queries share a read lock and run fully in parallel, and maintenance
// (Adapt, AdaptTo, Insert, Delete) is off the critical path — it clones the
// published index, rebuilds the clone without holding the index lock, and
// swaps the finished structure in under a briefly-held write lock. A reader
// is therefore never stalled for longer than a pointer swap, and it always
// observes either the complete old index or the complete new one, never a
// blend. See README.md ("Concurrency model" and "The write path") for the
// exact guarantees.
type Index struct {
	// mu gates the published state below it: Query, Stats, Save, and the
	// cost accessors take the read side; publish takes the write side only
	// for the swap. Published structures are immutable — maintenance never
	// mutates them in place — so holding the read side is enough to use them
	// for arbitrarily long.
	mu   sync.RWMutex
	idx  *core.APEX
	dt   *storage.DataTable
	eval *query.APEXEvaluator

	// gen is the published-snapshot generation: 0 for the freshly built (or
	// loaded) index, bumped by every publication. Because published
	// structures are immutable, the generation is a complete identity for
	// the serving state — two reads seeing the same generation saw the very
	// same index, extents, and data table, which is what lets a result cache
	// key on it without any coherence protocol (see QueryGen).
	gen atomic.Uint64

	opts Options

	// maintMu serializes maintenance passes: one shadow rebuild at a time.
	// Readers never take it, so a long rebuild does not block queries.
	maintMu sync.Mutex

	// logMu guards the workload log separately: Query appends to it while
	// holding only the read side of mu, so concurrent readers need their
	// own serialization point for the log.
	logMu    sync.Mutex
	workload []xmlgraph.LabelPath

	// shadowHook, when non-nil, is called at the stages of a shadow
	// maintenance pass ("rebuild" after cloning, "publish" before the swap).
	// Test instrumentation only; set it before any concurrent use.
	shadowHook func(stage string)

	// dur is the persistence attachment (see durable.go): nil for a purely
	// in-memory index, set once by Persist or RecoverDir. Write paths append
	// to its WAL before publishing.
	dur *durableState
}

// Open parses an XML document and builds the initial index APEX⁰.
func Open(r io.Reader, opts *Options) (*Index, error) {
	if opts == nil {
		opts = &Options{}
	}
	g, err := xmlgraph.Build(r, opts.buildOptions())
	if err != nil {
		return nil, err
	}
	return fromGraph(g, *opts)
}

// OpenFile is Open over a file path.
func OpenFile(path string, opts *Options) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Open(f, opts)
}

// FromGraph builds the initial index over an already-parsed document graph.
// It is the in-module bridge for tools and benchmarks that construct graphs
// directly (the type lives in an internal package, so callers outside this
// module use Open instead).
func FromGraph(g *xmlgraph.Graph, opts *Options) (*Index, error) {
	if opts == nil {
		opts = &Options{}
	}
	return fromGraph(g, *opts)
}

func fromGraph(g *xmlgraph.Graph, opts Options) (*Index, error) {
	dt, err := storage.BuildDataTable(g, 0, 64)
	if err != nil {
		return nil, err
	}
	idx := core.BuildAPEX0Opts(g, opts.buildWorkers(), opts.CompressExtents)
	return &Index{
		idx:  idx,
		dt:   dt,
		eval: newEvaluator(idx, dt, opts),
		opts: opts,
	}, nil
}

// newEvaluator wires a query processor with the configured parallelism.
func newEvaluator(idx *core.APEX, dt *storage.DataTable, opts Options) *query.APEXEvaluator {
	ev := query.NewAPEXEvaluator(idx, dt)
	if opts.Parallelism != 0 {
		ev.SetParallelism(opts.Parallelism)
	}
	return ev
}

// FromCore wraps an already-built core index (the in-module bridge for the
// CLIs, which assemble indexes with explicit workloads before saving them).
func FromCore(idx *core.APEX, opts *Options) (*Index, error) {
	if opts == nil {
		opts = &Options{}
	}
	dt, err := storage.BuildDataTable(idx.Graph(), 0, 64)
	if err != nil {
		return nil, err
	}
	idx.SetWorkers(opts.buildWorkers())
	applyExtentForm(idx, *opts)
	return &Index{idx: idx, dt: dt, eval: newEvaluator(idx, dt, *opts), opts: *opts}, nil
}

// applyExtentForm republishes an already-built core index's extents when its
// frozen form disagrees with the options (a flat-built index opened with
// CompressExtents, or vice versa). A matching form costs one no-op freeze
// consideration, not a republication.
func applyExtentForm(idx *core.APEX, opts Options) {
	if idx.CompressExtents() != opts.CompressExtents {
		idx.SetCompressExtents(opts.CompressExtents)
		idx.FreezeExtents()
	}
}

// saveMagic versions the on-disk format: an envelope (magic + the Options
// the index was opened with) followed by the core index payload. Bump it
// when the envelope changes shape.
const saveMagic = "APEXIDXv2"

// saveEnvelope is the header record written before the index payload, so a
// loaded index keeps its configured parallelism, minimum support, and
// reference-attribute names.
type saveEnvelope struct {
	Magic   string
	Options Options
}

// Load reads an index previously written by Save. The restored index keeps
// the Options it was saved with (parallelism, minSup, reference attributes).
func Load(r io.Reader) (*Index, error) {
	// One shared buffered reader: the envelope and the core payload are
	// separate gob streams, and chaining decoders is only exact when they
	// all read from the same io.ByteReader.
	br, ok := r.(interface {
		io.Reader
		io.ByteReader
	})
	if !ok {
		br = bufio.NewReader(r)
	}
	var env saveEnvelope
	if err := gob.NewDecoder(br).Decode(&env); err != nil {
		return nil, fmt.Errorf("apex: load: %w (not an index file, or written by an incompatible version)", err)
	}
	if env.Magic != saveMagic {
		return nil, fmt.Errorf("apex: load: bad magic %q, want %q", env.Magic, saveMagic)
	}
	idx, err := core.Decode(br)
	if err != nil {
		return nil, err
	}
	dt, err := storage.BuildDataTable(idx.Graph(), 0, 64)
	if err != nil {
		return nil, err
	}
	idx.SetWorkers(env.Options.buildWorkers())
	applyExtentForm(idx, env.Options)
	return &Index{idx: idx, dt: dt, eval: newEvaluator(idx, dt, env.Options), opts: env.Options}, nil
}

// LoadFile is Load over a file path.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Save writes the index (including the parsed document graph and the Options
// it was opened with) so it can be reopened with Load without the original
// XML.
//
// Deprecated: the monolithic dump is superseded by the durable checkpoint
// directory (Persist / Checkpoint / RecoverDir), which restarts from frozen
// segments plus a WAL tail instead of re-deriving everything. Save now
// requires Options.AllowLegacyDump and will be removed next release; Load
// keeps reading existing dumps, and RecoverDir migrates them.
func (ix *Index) Save(w io.Writer) error {
	if !ix.opts.AllowLegacyDump {
		return fmt.Errorf("apex: Save is deprecated in favor of Persist/RecoverDir (manifest + WAL + segments); set Options.AllowLegacyDump to write a monolithic dump anyway")
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if err := gob.NewEncoder(w).Encode(saveEnvelope{Magic: saveMagic, Options: ix.opts}); err != nil {
		return fmt.Errorf("apex: save: %w", err)
	}
	return ix.idx.Encode(w)
}

// Evaluator returns the underlying query processor — the in-module bridge
// for CLIs and benchmarks that need traced or ad hoc evaluation (the type
// lives in an internal package, so external callers use Query/Explain).
// Direct evaluator use bypasses the index lock and the workload log, and the
// returned evaluator stays bound to the index state current at the call: a
// later Adapt/Insert/Delete publishes a new evaluator.
func (ix *Index) Evaluator() *query.APEXEvaluator {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eval
}

// Graph returns the parsed document graph (in-module bridge, like
// Evaluator). Like Evaluator, the returned graph is the published snapshot:
// a later Insert/Delete publishes a new one.
func (ix *Index) Graph() *xmlgraph.Graph {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.idx.Graph()
}

// snapshot returns the currently published state. Published structures are
// immutable — maintenance rebuilds clones and swaps — so callers may keep
// using the returned values after the lock is released; they just won't see
// later publications.
func (ix *Index) snapshot() (*core.APEX, *storage.DataTable, *query.APEXEvaluator) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.idx, ix.dt, ix.eval
}

// publish atomically swaps a rebuilt shadow in as the serving state. The
// write lock is held only for the swap and the O(1) cost carry-over —
// independent of how long the rebuild took — so this is the only moment a
// reader can be stalled by maintenance.
func (ix *Index) publish(idx *core.APEX, dt *storage.DataTable) {
	ev := newEvaluator(idx, dt, ix.opts)
	ix.hook("publish")
	ix.mu.Lock()
	ev.CarryCostFrom(ix.eval)
	ix.idx, ix.dt, ix.eval = idx, dt, ev
	// Stamp the evaluator with the generation it serves: its plan cache is
	// keyed by this identity (plus the core epoch), so plans can never cross
	// a publication boundary.
	ev.SetGeneration(int64(ix.gen.Add(1)))
	ix.mu.Unlock()
}

// Generation returns the generation of the currently published snapshot: 0
// for a freshly built index, +1 per Adapt/AdaptTo/Insert/Delete publication.
// Results cached under an older generation are never results of the current
// index — comparing generations is the whole invalidation protocol a
// snapshot-keyed cache needs.
func (ix *Index) Generation() uint64 { return ix.gen.Load() }

func (ix *Index) hook(stage string) {
	if ix.shadowHook != nil {
		ix.shadowHook(stage)
	}
}

// Node is a query-result node.
type Node struct {
	ID    int32  // node identifier (document order is by construction)
	Tag   string // element tag or attribute name
	Value string // character data, if any
}

// Result is the outcome of one query, in document order.
type Result struct {
	Nodes []Node
}

// Values returns the non-empty node values in document order.
func (r *Result) Values() []string {
	var vs []string
	for _, n := range r.Nodes {
		if n.Value != "" {
			vs = append(vs, n.Value)
		}
	}
	return vs
}

// Len returns the number of result nodes.
func (r *Result) Len() int { return len(r.Nodes) }

// Query parses and evaluates one query. Supported forms:
//
//	//a/b/c                  partial-matching path (QTYPE1)
//	//movie/@actor=>actor    dereference of an ID/IDREF attribute
//	//a//b                   descendant pair (QTYPE2)
//	//a/b[text()="v"]        path plus value predicate (QTYPE3)
//	//a/b//c/d//e            general mixed-axis path (extension)
//
// Path queries are recorded in the workload log for Adapt unless the index
// was opened with DisableQueryLog.
//
// Query is safe to call from any number of goroutines: it holds only the
// read side of the index lock, queries evaluate fully in parallel, and
// maintenance rebuilds off to the side — a query blocks only for the
// pointer swap that publishes an Adapt/Insert/Delete.
func (ix *Index) Query(q string) (*Result, error) {
	res, _, err := ix.queryGen(nil, q)
	return res, err
}

// QueryContext is Query under a cancellation context: the evaluation observes
// ctx at its internal checkpoints (between join positions and rewriting legs)
// and returns ctx.Err() once the context is done — the serving layer's
// per-request timeout, threaded all the way into the join loop.
func (ix *Index) QueryContext(ctx context.Context, q string) (*Result, error) {
	res, _, err := ix.queryGen(ctx, q)
	return res, err
}

// QueryGen is QueryContext plus the generation of the published snapshot the
// query actually evaluated against. The generation is read under the same
// read lock as the evaluation snapshot, so a result can never be attributed
// to a publication it did not see — the property a snapshot-keyed result
// cache relies on when it stores the result under the returned generation.
func (ix *Index) QueryGen(ctx context.Context, q string) (*Result, uint64, error) {
	return ix.queryGen(ctx, q)
}

func (ix *Index) queryGen(ctx context.Context, q string) (*Result, uint64, error) {
	parsed, err := query.Parse(q)
	if err != nil {
		return nil, 0, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	gen := ix.gen.Load()
	nids, err := ix.eval.EvaluateContext(ctx, parsed)
	if err != nil {
		return nil, gen, err
	}
	ix.logQuery(parsed)
	return ix.materialize(nids), gen, nil
}

// Explain evaluates q exactly like Query and additionally returns the
// structured evaluation trace (query class, matched H_APEX suffix, chosen
// strategy, per-stage cost deltas, wall time). The traced evaluation counts
// toward QueryCost and the workload log just like a plain Query; render the
// trace with its Text or JSON methods.
func (ix *Index) Explain(q string) (*Result, *query.Trace, error) {
	return ix.ExplainContext(nil, q)
}

// ExplainContext is Explain under a cancellation context, with
// QueryContext's checkpoint semantics.
func (ix *Index) ExplainContext(ctx context.Context, q string) (*Result, *query.Trace, error) {
	parsed, err := query.Parse(q)
	if err != nil {
		return nil, nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	nids, tr, err := ix.eval.EvaluateTraceContext(ctx, parsed)
	if err != nil {
		return nil, nil, err
	}
	ix.logQuery(parsed)
	return ix.materialize(nids), tr, nil
}

// RecordWorkload logs q in the workload log exactly as a served Query would,
// without evaluating it. The serving layer's result cache calls it on cache
// hits: a hit bypasses evaluation, but the query is still workload — exactly
// the frequent-path evidence the next Adapt should mine. Parse errors are
// returned; non-minable query classes are a silent no-op, as in Query.
func (ix *Index) RecordWorkload(q string) error {
	parsed, err := query.Parse(q)
	if err != nil {
		return err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.logQuery(parsed)
	return nil
}

// WorkloadSnapshot returns a copy of the pending workload log without
// consuming it. Adapt remains the only consumer; the background controller
// mines the snapshot every tick to score drift against the serving profile.
func (ix *Index) WorkloadSnapshot() []xmlgraph.LabelPath {
	ix.logMu.Lock()
	defer ix.logMu.Unlock()
	out := make([]xmlgraph.LabelPath, len(ix.workload))
	copy(out, ix.workload)
	return out
}

// logQuery records a path query in the workload log for Adapt, evicting the
// oldest entries when the MaxWorkloadLog bound is hit. Callers hold the read
// side of mu.
func (ix *Index) logQuery(parsed query.Query) {
	if ix.opts.DisableQueryLog || (parsed.Type != query.QTYPE1 && parsed.Type != query.QTYPE3) {
		return
	}
	ix.logMu.Lock()
	defer ix.logMu.Unlock()
	if max := ix.opts.maxWorkloadLog(); max > 0 && len(ix.workload) >= max {
		// Evict in batches of a quarter of the bound (at least one) so the
		// front-shift cost amortizes to O(1) per logged query at steady state.
		drop := max / 4
		if drop < 1 {
			drop = 1
		}
		if over := len(ix.workload) - max + 1; drop < over {
			drop = over
		}
		if drop > len(ix.workload) {
			drop = len(ix.workload)
		}
		ix.workload = append(ix.workload[:0], ix.workload[drop:]...)
		mWorkloadEvicted.Add(int64(drop))
	}
	ix.workload = append(ix.workload, parsed.Path)
}

// materialize builds the public result from node IDs. Callers hold the read
// side of mu.
func (ix *Index) materialize(nids []xmlgraph.NID) *Result {
	g := ix.idx.Graph()
	res := &Result{Nodes: make([]Node, len(nids))}
	for i, n := range nids {
		nd := g.Node(n)
		res.Nodes[i] = Node{ID: int32(n), Tag: nd.Tag, Value: nd.Value}
	}
	return res
}

// Adapt mines the logged query workload for frequently used paths at the
// given minimum support (pass 0 for the Options default), incrementally
// restructures the index, and clears the log. This is the paper's Figure 4
// maintenance cycle, run off the critical path: the restructuring happens on
// a clone of the published index (frozen extents are shared, not copied,
// until the rebuild actually touches them) and queries keep serving the old
// structure until the one-pointer-swap publication. Queries logged while the
// rebuild runs stay in the log for the next Adapt.
func (ix *Index) Adapt(minSup float64) error {
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	if minSup <= 0 {
		minSup = ix.opts.minSup()
	}
	ix.logMu.Lock()
	wl := ix.workload
	ix.workload = nil
	ix.logMu.Unlock()
	if len(wl) == 0 {
		return fmt.Errorf("apex: no logged queries to adapt to")
	}
	cur, dt, _ := ix.snapshot()
	shadow := cur.Clone()
	ix.hook("rebuild")
	shadow.ExtractFrequentPaths(wl, minSup)
	shadow.Update()
	if err := ix.journal(storage.WALRecord{Op: storage.WALAdapt, MinSup: minSup, Paths: wl}); err != nil {
		// The workload was consumed above; put it back so the queries are
		// not lost to the next Adapt just because journaling failed.
		ix.logMu.Lock()
		ix.workload = append(wl, ix.workload...)
		ix.logMu.Unlock()
		return err
	}
	ix.publish(shadow, dt)
	return nil
}

// AdaptTo is Adapt over an explicit workload of query strings instead of
// the internal log (QTYPE2 queries are rejected, as in the paper only path
// expressions are mined). Like Adapt, the restructuring runs on a shadow
// clone and publishes with one atomic swap.
func (ix *Index) AdaptTo(queries []string, minSup float64) error {
	var paths []xmlgraph.LabelPath
	for _, s := range queries {
		q, err := query.Parse(s)
		if err != nil {
			return err
		}
		if q.Type == query.QTYPE2 {
			return fmt.Errorf("apex: workload mining takes path expressions, got %q", s)
		}
		paths = append(paths, q.Path)
	}
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	if minSup <= 0 {
		minSup = ix.opts.minSup()
	}
	cur, dt, _ := ix.snapshot()
	shadow := cur.Clone()
	ix.hook("rebuild")
	shadow.ExtractFrequentPaths(paths, minSup)
	shadow.Update()
	if err := ix.journal(storage.WALRecord{Op: storage.WALAdapt, MinSup: minSup, Paths: paths}); err != nil {
		return err
	}
	ix.publish(shadow, dt)
	return nil
}

// Insert appends an XML fragment under the single element matched by
// parentQuery (a QTYPE1 path; it must match exactly one element node; "/"
// addresses the document root, which label paths cannot reach) and brings
// the index up to date under the current required-path set. Reference
// attributes in the fragment may point at IDs already in the document.
//
// The paper leaves data updates to future work; here a write is the paper's
// own ΔEdges propagation (core.ApplyInsert): the fragment's edges are seeded
// at the summary nodes that reach the parent and classified from there, so
// the cost follows the fragment, not the document. Extents the fragment does
// not reach stay frozen and shared with the published index, the data graph
// shares every adjacency row the append does not touch, and the value table
// shares its pages. The result equals re-deriving every extent from the data
// (core.RefreshData, kept as the tests' oracle) up to summary-node numbering.
//
// The mutation runs on copy-on-write clones of the document graph and index
// (node IDs are stable across the clone, so resolved positions stay valid);
// readers serve the pre-insert state until the atomic publication, and a
// failed insert publishes nothing.
func (ix *Index) Insert(parentQuery, fragment string) error {
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	cur, _, eval := ix.snapshot()
	g := cur.Graph()
	var parent xmlgraph.NID
	if parentQuery == "/" {
		parent = g.Root()
	} else {
		parsed, err := query.Parse(parentQuery)
		if err != nil {
			return err
		}
		if parsed.Type != query.QTYPE1 {
			return fmt.Errorf("apex: insert parent must be a path query, got %v", parsed.Type)
		}
		nids, err := eval.Evaluate(parsed)
		if err != nil {
			return err
		}
		if len(nids) != 1 {
			return fmt.Errorf("apex: insert parent %q matches %d nodes, want exactly 1", parentQuery, len(nids))
		}
		parent = nids[0]
	}
	return ix.insertLocked(parent, parentQuery, fragment)
}

// InsertAtNode is Insert with the parent already resolved to a node id — the
// in-module bridge the shard router uses to broadcast one insert to every
// shard index: node ids are aligned across shards (each shard keeps the full
// global node table), so the coordinator resolves the parent query once and
// applies the same fragment at the same NID everywhere, exactly as WAL
// replay re-applies a journaled insert. The parent must be a live element
// node; like Insert, the mutation runs on shadow clones and publishes
// atomically.
func (ix *Index) InsertAtNode(parent xmlgraph.NID, fragment string) error {
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	g := ix.Graph()
	if parent < 0 || int(parent) >= g.NumNodes() {
		return fmt.Errorf("apex: insert parent %d out of range", parent)
	}
	if g.Removed(parent) {
		return fmt.Errorf("apex: insert parent %d was removed", parent)
	}
	return ix.insertLocked(parent, "", fragment)
}

// insertLocked is the write half of Insert and InsertAtNode; callers hold
// maintMu.
func (ix *Index) insertLocked(parent xmlgraph.NID, parentQuery, fragment string) error {
	cur, dt, _ := ix.snapshot()
	shadowG := cur.Graph().Clone()
	shadow := cur.CloneWithGraph(shadowG)
	ix.hook("rebuild")
	if err := applyInsert(shadow, shadowG, parent, fragment, ix.opts.buildOptions()); err != nil {
		return err
	}
	dt, err := dt.Apply(shadowG, nil)
	if err != nil {
		return err
	}
	// Journal the resolved parent NID, not the query: node IDs are stable
	// across clones and deterministic under replay, so recovery re-applies
	// the fragment without needing an evaluator mid-replay.
	if err := ix.journal(storage.WALRecord{
		Op: storage.WALInsert, Parent: parent, ParentQuery: parentQuery, Fragment: fragment,
	}); err != nil {
		return err
	}
	ix.publish(shadow, dt)
	return nil
}

// applyInsert appends fragment under parent in g and maintains idx by the
// delta — the one way an insert is applied, by the facade on its shadow
// clones and by WAL replay on the recovering index alike, so summary-node
// ids evolve identically in both.
func applyInsert(idx *core.APEX, g *xmlgraph.Graph, parent xmlgraph.NID, fragment string, opts *xmlgraph.BuildOptions) error {
	first := xmlgraph.NID(g.NumNodes())
	if _, err := g.AppendFragment(parent, fragment, opts); err != nil {
		return err
	}
	idx.ApplyInsert(parent, first)
	return nil
}

// errNothingRemoved reports a delete whose every target was already gone.
var errNothingRemoved = errors.New("apex: delete removed nothing")

// applyDelete removes the targets' subtrees from g (targets nested inside an
// earlier one, or already removed, are skipped) and maintains idx by the
// delta, returning the removed nodes. Like applyInsert it is shared by the
// facade and WAL replay.
func applyDelete(idx *core.APEX, g *xmlgraph.Graph, targets []xmlgraph.NID) ([]xmlgraph.NID, error) {
	var rem xmlgraph.Removal
	for _, n := range targets {
		if g.Removed(n) {
			continue
		}
		r, err := g.RemoveSubtreeDelta(n)
		if err != nil {
			return nil, err
		}
		rem.Nodes = append(rem.Nodes, r.Nodes...)
		rem.Edges = append(rem.Edges, r.Edges...)
	}
	if len(rem.Nodes) == 0 {
		return nil, errNothingRemoved
	}
	idx.ApplyDelete(rem.Edges)
	return rem.Nodes, nil
}

// DeleteNodes removes the document subtrees rooted at the given node ids —
// the in-module bridge the shard router uses to apply one coordinated
// delete: the router unions the shards' match sets into the global target
// set and removes the same NIDs on every shard, mirroring how WAL replay
// re-applies a journaled delete by its resolved targets. Targets nested
// inside other targets (or already removed) are skipped; removing nothing at
// all is an error, as in Delete.
func (ix *Index) DeleteNodes(targets []xmlgraph.NID) error {
	if len(targets) == 0 {
		return fmt.Errorf("apex: delete with no targets")
	}
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	if err := ix.deleteLocked(targets, ""); err != nil {
		if errors.Is(err, errNothingRemoved) {
			return fmt.Errorf("apex: delete targets already removed")
		}
		return err
	}
	return nil
}

// Delete removes the document subtrees matched by targetQuery (a QTYPE1
// path; every matched element and its content disappears) and brings the
// index up to date under the current required-path set. References into the
// deleted subtrees stop dereferencing; their attribute values remain as data.
// Deleting zero nodes is an error, as is matching the document root.
//
// Like Insert, a delete is applied as a delta (core.ApplyDelete): the removed
// edges are retracted from the extents that hold them, summary nodes left
// empty are unlinked, and everything else stays shared with the published
// index. One case re-derives the whole index instead, decided from the data:
// a removed subtree holding reference edges into surviving nodes
// (core.write.rederived_total counts it). The removal runs on shadow clones
// and publishes atomically; a failed delete publishes nothing.
func (ix *Index) Delete(targetQuery string) error {
	parsed, err := query.Parse(targetQuery)
	if err != nil {
		return err
	}
	if parsed.Type != query.QTYPE1 {
		return fmt.Errorf("apex: delete target must be a path query, got %v", parsed.Type)
	}
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	_, _, eval := ix.snapshot()
	nids, err := eval.Evaluate(parsed)
	if err != nil {
		return err
	}
	if len(nids) == 0 {
		return fmt.Errorf("apex: delete target %q matches nothing", targetQuery)
	}
	if err := ix.deleteLocked(nids, targetQuery); err != nil {
		if errors.Is(err, errNothingRemoved) {
			return fmt.Errorf("apex: delete target %q removed nothing", targetQuery)
		}
		return err
	}
	return nil
}

// deleteLocked is the write half of Delete and DeleteNodes; callers hold
// maintMu.
func (ix *Index) deleteLocked(targets []xmlgraph.NID, targetQuery string) error {
	cur, dt, _ := ix.snapshot()
	shadowG := cur.Graph().Clone()
	shadow := cur.CloneWithGraph(shadowG)
	ix.hook("rebuild")
	dropped, err := applyDelete(shadow, shadowG, targets)
	if err != nil {
		return err
	}
	if dt, err = dt.Apply(shadowG, dropped); err != nil {
		return err
	}
	if err := ix.journal(storage.WALRecord{
		Op: storage.WALDelete, Targets: targets, TargetQuery: targetQuery,
	}); err != nil {
		return err
	}
	ix.publish(shadow, dt)
	return nil
}

// Stats describes the current index structure.
type Stats struct {
	// Nodes and Edges size the summary graph G_APEX (the paper's Table 2).
	Nodes, Edges int
	// ExtentEdges is the total extent volume.
	ExtentEdges int
	// RequiredPaths lists the label paths the index currently maintains
	// (all length-1 labels plus the mined frequent paths).
	RequiredPaths []string
	// LoggedQueries is the size of the pending workload log.
	LoggedQueries int
	// Extents counts the live frozen extents — with ExtentBytes it gives
	// the bytes-per-extent estimate the adaptation controller's memory-
	// budget projection uses.
	Extents int
	// ExtentBytes is the serving-form memory of every live extent column;
	// ExtentBlocks the packed blocks backing them and CompressedExtents the
	// extents in block-compressed form (both zero when CompressExtents is
	// off). BytesPerEdge = ExtentBytes / total extent pairs, the headline
	// footprint number (~20 flat, well under 12 compressed).
	ExtentBytes       int
	ExtentBlocks      int
	CompressedExtents int
	BytesPerEdge      float64
}

// Stats snapshots the index structure.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.logMu.Lock()
	logged := len(ix.workload)
	ix.logMu.Unlock()
	st := ix.idx.Stats()
	fp := ix.idx.Footprint()
	return Stats{
		Nodes:             st.Nodes,
		Edges:             st.Edges,
		ExtentEdges:       st.ExtentEdges,
		RequiredPaths:     ix.idx.RequiredPaths(),
		LoggedQueries:     logged,
		Extents:           fp.Extents,
		ExtentBytes:       fp.Bytes,
		ExtentBlocks:      fp.Blocks,
		CompressedExtents: fp.Compressed,
		BytesPerEdge:      fp.BytesPerEdge(),
	}
}

// PlanStats is the query planner's observability record: plan/leg cache
// behavior, the decision mix (forward vs backward executions, fallbacks,
// shared-prefix reuse), and the publication identities the caches are keyed
// under.
type PlanStats = query.PlanStats

// PlanStats snapshots the published evaluator's planner counters. The
// counters restart at zero on every maintenance publication (a fresh
// evaluator is published per generation), so deltas within one generation
// measure steady-state cache behavior.
func (ix *Index) PlanStats() PlanStats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eval.PlanStats()
}

// QueryCost snapshots the accumulated logical cost counters of the query
// processor (hash lookups, extent scans, join probes, data validations).
// The counters are cumulative across maintenance publications.
func (ix *Index) QueryCost() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eval.Cost().String()
}

// QueryCostTotal is the sum of those counters — one number whose deltas
// measure the logical work per evaluated query, machine-portably (the drift
// experiment compares it across controller-on/off runs).
func (ix *Index) QueryCostTotal() int64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.eval.Cost().Total()
}

// ResetQueryCost zeroes the cost counters.
func (ix *Index) ResetQueryCost() {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.eval.ResetCost()
}
