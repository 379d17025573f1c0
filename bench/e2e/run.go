package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"apex"
	"apex/internal/datagen"
	"apex/internal/metrics"
	"apex/internal/xmlgraph"
)

const (
	// numSetups is how often an untraced run sets its target up; setup_s is
	// the median, that is the mean of the two. Two, because a set-up takes
	// 3–5 s of a run that may take 35: a third would cost the write and
	// restart measurements their place.
	numSetups = 2
	// numRepeats is how many restructurings and how many restarts are timed
	// after the window. They take a fifth of a second each, a length at which
	// one call in three meets a burst from a neighbour; adapt_s and recover_s
	// are the least disturbed, that is the fastest, of the five. The one
	// write takes two seconds, and a second one does not fit the run.
	numRepeats = 5
	// maxClients caps the closed loop; below it there is one client per core.
	maxClients = 4
	// maxFailedShare is the share of failed operations a run tolerates
	// before it exits non-zero.
	maxFailedShare = 0.001
	// churnThink is the writer's pause between two writes.
	churnThink = 500 * time.Millisecond
	// churnFragment is what the writer inserts and deletes again; its label
	// occurs in no generated query, so every read stays oracle-checkable.
	churnFragment     = "<benchins><v>x</v></benchins>"
	churnDeleteTarget = "//benchins"
)

// config is the command line.
type config struct {
	workload workloadSpec
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	dataset  string
	outDir   string
}

// env is the generated input of one run and the places it may write to.
type env struct {
	cfg       config
	clients   int
	xml       string
	buildOpts *xmlgraph.BuildOptions
	opts      apex.Options
	graph     *xmlgraph.Graph // the oracle's own parse of the document
	pop       *population
	tmpRoot   string
	logf      func(format string, args ...any)

	datagenS, workloadS, oracleS float64
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the contract's result line.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of the result file: the outcome plus everything needed
// to judge whether two records may be compared.
type record struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Seconds  int          `json:"seconds"`
	Trace    bool         `json:"trace"`
	Dataset  string       `json:"dataset"`
	Scale    float64      `json:"scale"`
	Clients  int          `json:"clients"`
	SliceS   float64      `json:"slice_s"`
	Machine  machineFacts `json:"machine"`
	outcome
	SliceQPS []float64          `json:"slice_qps,omitempty"` // the throughput of each slice of the window, in order
	Notes    map[string]float64 `json:"notes,omitempty"`     // counts behind the metrics
	Warnings []string           `json:"warnings,omitempty"`  // noise guards that fired
}

// prepare generates the run's inputs from the seed: the document, the query
// population and the oracle's expected answers.
func prepare(cfg config, logf func(string, ...any)) (*env, error) {
	e := &env{cfg: cfg, logf: logf}
	e.clients = runtime.GOMAXPROCS(0)
	if e.clients > maxClients {
		e.clients = maxClients
	}
	// A zero-scale load resolves the dataset name (unknown names are an
	// error there) and yields the schema that names its reference attributes.
	ds, err := datagen.LoadDataset(cfg.dataset, 0)
	if err != nil {
		return nil, err
	}
	e.buildOpts = ds.Schema.BuildOptions()
	e.opts = apex.Options{IDAttrs: e.buildOpts.IDAttrs, IDREFAttrs: e.buildOpts.IDREFAttrs, IDREFSAttrs: e.buildOpts.IDREFSAttrs}

	t0 := time.Now()
	e.xml = datagen.RegenerateXML(cfg.dataset, cfg.scale)
	e.datagenS = time.Since(t0).Seconds()
	if e.graph, err = xmlgraph.BuildString(e.xml, e.buildOpts); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if e.pop, err = newPopulation(e.graph); err != nil {
		return nil, err
	}
	e.workloadS = time.Since(t0).Seconds()
	t0 = time.Now()
	bruteForce := bruteForceUntraced
	if cfg.trace {
		bruteForce = oracleSampleSize
	}
	if err := e.pop.fillOracle(e.graph, e.opts, cfg.seed, bruteForce, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	e.oracleS = time.Since(t0).Seconds()
	logf("inputs: %s scale %g: %d nodes, %d bytes of XML (%.2fs); %d draws over %d distinct queries, %d dropped (%.2fs); oracle sample %d (%.2fs)",
		cfg.dataset, cfg.scale, e.graph.NumNodes(), len(e.xml), e.datagenS,
		len(e.pop.draws), len(e.pop.distinct), e.pop.dropped, e.workloadS, len(e.pop.sample), e.oracleS)

	e.tmpRoot = filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(e.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// settledHeap is the live heap after two collections (the second frees what
// the first one's finalizers and pools released).
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUpRepeatedly builds the workload's target numSetups times over (once in
// a traced run, which does not report setup_s), closing all but the last.
// One set-up is apex.Open of the XML text, AdaptTo, target construction
// (partitioning or Persist included) and the listener, started from a
// collected heap; the heap reading before the kept target is returned with
// it.
func (e *env) setUpRepeatedly() (t *target, seconds []float64, heapBefore uint64, err error) {
	setups := numSetups
	if e.cfg.trace {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, nil, 0, err
			}
		}
		heapBefore = settledHeap()
		t0 := time.Now()
		if t, err = e.cfg.workload.build(e); err != nil {
			return nil, nil, 0, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
		e.logf("set-up %d/%d: %.3fs", i+1, setups, seconds[i])
	}
	return t, seconds, heapBefore, nil
}

// churn is serve-churn's write side: one writer alternating Insert and
// Delete with a pause between, for as long as the window is open, and one
// POST /adapt a third of the way in.
type churn struct {
	wg      sync.WaitGroup
	mu      sync.Mutex // guards errs, which both goroutines append to
	writeMS []float64
	adaptS  float64
	errs    []error
}

func startChurn(t *target, pop *population, window time.Duration) *churn {
	c := &churn{}
	start := time.Now()
	deadline := start.Add(window)
	c.wg.Add(2)
	go func() {
		defer c.wg.Done()
		// The write in flight when the window closes runs to its end:
		// readers must meet a rebuild at every moment of the window.
		for op := 0; time.Now().Before(deadline); op++ {
			t0 := time.Now()
			var err error
			if op%2 == 0 {
				err = t.ix.Insert("/", churnFragment)
			} else {
				err = t.ix.Delete(churnDeleteTarget)
			}
			if err != nil {
				c.fail(err)
			} else {
				c.writeMS = append(c.writeMS, time.Since(t0).Seconds()*1e3)
			}
			time.Sleep(churnThink)
		}
	}()
	go func() {
		defer c.wg.Done()
		time.Sleep(time.Until(start.Add(window / 3)))
		t0 := time.Now()
		if err := t.adapt(pop.adaptSets[1]); err != nil {
			c.fail(err)
			return
		}
		c.adaptS = time.Since(t0).Seconds()
	}()
	return c
}

// finish waits for the writer and the adapt, files their latencies under
// load in the notes and returns how many operations they made and how many
// failed.
func (c *churn) finish(notes map[string]float64) (attempted, failed int64, err error) {
	c.wg.Wait()
	attempted = int64(len(c.writeMS) + len(c.errs))
	if c.adaptS > 0 {
		attempted++
	}
	notes["churn_writes"] = float64(len(c.writeMS))
	notes["churn_write_p50_ms"] = median(c.writeMS)
	notes["churn_adapt_s"] = c.adaptS
	return attempted, int64(len(c.errs)), errors.Join(c.errs...)
}

func (c *churn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, err)
}

// tearDown measures, on the workload's own target with no load on it, the
// three things its operator does to it besides querying: restructure it (to
// query samples it was not adapted to before), write to it (one insert
// through journal and publication), and restart it from disk (a checkpoint
// once, then close and recover; every recovered index must have the
// fingerprint of the one closed). It returns the restarted target, which
// replaces t.
func (e *env) tearDown(t *target) (r *target, adaptS []float64, writeMS float64, recoverS []float64, err error) {
	for i := 0; i < numRepeats; i++ {
		t0 := time.Now()
		if err := t.adapt(e.pop.adaptSets[2+i%2]); err != nil {
			return t, nil, 0, nil, fmt.Errorf("adapt: %w", err)
		}
		adaptS = append(adaptS, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if err := t.insert(); err != nil {
		return t, nil, 0, nil, fmt.Errorf("insert: %w", err)
	}
	writeMS = time.Since(t0).Seconds() * 1e3
	if err := t.checkpoint(e.tmpRoot); err != nil {
		return t, nil, 0, nil, fmt.Errorf("checkpoint: %w", err)
	}
	want := t.fingerprint()
	for i := 0; i < numRepeats; i++ {
		r, s, err := t.restart()
		if err != nil {
			return t, nil, 0, nil, fmt.Errorf("restart: %w", err)
		}
		t, recoverS = r, append(recoverS, s)
		if t.fingerprint() != want {
			return t, nil, 0, nil, errors.New("restart: the recovered index differs from the one closed")
		}
	}
	return t, adaptS, writeMS, recoverS, nil
}

// run executes one workload once and returns its record.
func run(cfg config, logf func(string, ...any)) (rec *record, err error) {
	rec = &record{
		Workload: cfg.workload.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Dataset: cfg.dataset, Scale: cfg.scale, Machine: readMachineFacts(),
		Notes:   map[string]float64{},
		outcome: outcome{Metrics: map[string]metricValue{}},
	}
	// Where the run's wall time goes, phase by phase, in the record's notes.
	lapStart := time.Now()
	lap := func(phase string) {
		rec.Notes["phase_"+phase+"_s"] = time.Since(lapStart).Seconds()
		lapStart = time.Now()
	}
	e, err := prepare(cfg, logf)
	if err != nil {
		return nil, err
	}
	lap("inputs")
	defer os.Remove(e.tmpRoot) // only if the run left it empty
	rec.Clients = e.clients
	window := time.Duration(cfg.seconds) * time.Second
	slice := window / time.Duration(cfg.workload.slices)
	rec.SliceS = slice.Seconds()

	t, setupS, heapBefore, err := e.setUpRepeatedly()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	lap("setup")
	// t is whichever target is live: tear-down replaces it with the restarted
	// one, and closing twice is harmless.
	defer func() { err = errors.Join(err, t.close()) }()
	nodes := float64(e.graph.NumNodes())

	// One pass over every distinct query fills the target's caches; what the
	// warm target then holds is the memory metric.
	if err := warmUp(t, e.pop, e.clients); err != nil {
		return nil, err
	}
	var heap float64
	if after := settledHeap(); after > heapBefore {
		heap = float64(after - heapBefore)
	}
	logf("warm target holds %.1f MB", heap/(1<<20))
	lap("warmup")

	// Full answers before the window.
	checked, wrong, firstWrong := verify(t, e.pop, e.clients)
	lap("verify_before")

	var before counters
	if cfg.trace {
		before = readCounters(t)
	}
	var ch *churn
	if cfg.workload.churn {
		ch = startChurn(t, e.pop, window)
	}
	ticks0, stolen0, _ := cpuTicks()
	win := runWindow(t, e.pop, e.clients, cfg.seed, cfg.workload.zipf, slice, cfg.workload.slices)
	if ticks1, stolen1, ok := cpuTicks(); ok && ticks1 > ticks0 {
		share := float64(stolen1-stolen0) / float64(ticks1-ticks0)
		rec.Notes["window_cpu_stolen_share"] = share
		if share > 0.05 {
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("the hypervisor took %.0f%% of the window's CPU time", 100*share))
		}
	}
	attempted, failed := win.attempted, win.failed
	if firstWrong == nil {
		firstWrong = win.firstErr
	}
	if ch != nil {
		a, f, err := ch.finish(rec.Notes)
		attempted, failed = attempted+a, failed+f
		if firstWrong == nil {
			firstWrong = err
		}
	}
	var delta counters
	if cfg.trace {
		delta = readCounters(t).minus(before)
	}
	lap("window")

	// Full answers after the window (after the writes, on serve-churn).
	verifyAgain := func() {
		c, w, first := verify(t, e.pop, e.clients)
		checked, wrong = checked+c, wrong+w
		if firstWrong == nil {
			firstWrong = first
		}
	}
	verifyAgain()
	lap("verify_after")

	quiet, rest, quietS, quietSpread := win.quietHalf()
	stats := statsOf(quiet, quietS)
	for _, sl := range win.bySlice() {
		rec.SliceQPS = append(rec.SliceQPS, float64(len(sl))/slice.Seconds())
	}
	rec.Notes["p99_samples_beyond"] = float64(stats.beyond99)
	rec.Notes["quiet_s"] = quietS
	if qps, _ := endToEndByName("qps"); quietSpread > qps.bound {
		rec.Warnings = append(rec.Warnings, fmt.Sprintf("the quiet half of the window is not quiet: its slices differ by %.0f%% in throughput", 100*quietSpread))
	}
	rec.Notes["window_ops"] = float64(win.attempted)
	rec.Notes["distinct_queries"] = float64(len(e.pop.distinct))
	rec.Notes["dropped_queries"] = float64(e.pop.dropped)
	rec.Notes["data_nodes"] = nodes
	rec.Notes["oracle_s"] = e.oracleS
	if cfg.trace {
		layers, a, f, err := e.traceLayers(t, win, stats, delta, ch)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		// The traced pass is single-threaded direct calls: nothing there is
		// allowed to fail, so its failures are wrong answers.
		attempted, failed, wrong = attempted+a, failed+f, wrong+f
		lap("layers")
		for name := range layers {
			if _, ok := layerByName(name); !ok {
				return nil, fmt.Errorf("traced run measured %s, which the contract does not have", name)
			}
		}
		for _, m := range perLayer {
			rec.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		}
	} else {
		// Adapt, write and restart, then the full answers once more: from
		// the restructured, written-to and recovered target.
		var adaptS, recoverS []float64
		var writeMS float64
		if t, adaptS, writeMS, recoverS, err = e.tearDown(t); err != nil {
			return nil, fmt.Errorf("tear-down: %w", err)
		}
		attempted += 2*numRepeats + 2 // the adapts, the write, the checkpoint and the restarts
		lap("teardown")
		verifyAgain()
		lap("verify_restarted")

		e2e := map[string]float64{
			"setup_s": median(setupS), "qps": stats.qps,
			"query_p50_us": stats.p50US, "query_p99_us": stats.p99US,
			"heap_bytes_per_node": heap / nodes,
			"write_ms":            writeMS, "adapt_s": least(adaptS), "recover_s": least(recoverS),
		}
		for c, v := range classMeans(quiet, rest, e.pop, e.pop.weights(cfg.workload.zipf)) {
			e2e[classNames[c]+"_mean_us"] = v
		}
		for _, m := range endToEnd {
			rec.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	}
	rec.Notes["verified_answers"] = float64(checked)

	attempted, failed = attempted+checked, failed+wrong
	rec.Attempted, rec.Failed = attempted, failed
	rec.Correct = failed == 0 || float64(failed)/float64(attempted) <= maxFailedShare
	if wrong > 0 {
		rec.Correct = false // a wrong full answer is never tolerated
	}
	if firstWrong != nil {
		logf("first failure: %v", firstWrong)
	}
	for _, w := range rec.Warnings {
		logf("warning: %s", w)
	}
	return rec, nil
}

// appendRecord adds rec as one line of <outDir>/results.jsonl.
func appendRecord(outDir string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// counters are the program's own counts read from outside around a window:
// the process-wide metrics registry plus the per-shard evaluation counts.
type counters struct {
	reg          map[string]int64
	shardQueries int64
}

// readRegistry flattens the metrics registry: every counter by name, every
// histogram as name.count and name.sum.
func readRegistry() map[string]int64 {
	snap := metrics.Default.Snapshot()
	for name, h := range snap.Histograms {
		snap.Counters[name+".count"] = h.Count
		snap.Counters[name+".sum"] = h.Sum
	}
	return snap.Counters
}

func readCounters(t *target) counters {
	c := counters{reg: readRegistry()}
	for _, b := range t.shards {
		c.shardQueries += b.Index().Evaluator().Cost().Queries
	}
	return c
}

func (c counters) minus(o counters) counters {
	d := counters{reg: make(map[string]int64, len(c.reg)), shardQueries: c.shardQueries - o.shardQueries}
	for k, v := range c.reg {
		d.reg[k] = v - o.reg[k]
	}
	return d
}

// least is the smallest value of v, 0 for none.
func least(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printMetrics writes every metric by name with its unit, in contract order.
func printMetrics(buf io.Writer, rec *record) {
	fmt.Fprintf(buf, "workload %s seed %d seconds %d trace %v clients %d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Clients)
	line := func(name, unit string) {
		fmt.Fprintf(buf, "  %-36s %16.4f %s\n", name, rec.Metrics[name].Value, unit)
	}
	if rec.Trace {
		for _, m := range perLayer {
			line(m.name, m.unit)
		}
	} else {
		for _, m := range endToEnd {
			line(m.name, m.unit)
		}
	}
	fmt.Fprintf(buf, "  %-36s %16d\n  %-36s %16d\n", "ops", rec.Attempted, "failed", rec.Failed)
}
