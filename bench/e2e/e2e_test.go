package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"apex/internal/datagen"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.91, 10}, {0.1, 1}, {0, 1}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median of four = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

func TestQuietHalf(t *testing.T) {
	// Four one-second slices completing 4, 1, 3 and 2 requests: the quiet
	// half is slices 0 and 2, and the burst that hit slice 1 moves nothing.
	w := &windowResult{slice: 1e9, slices: 4}
	for k, n := range []int{4, 1, 3, 2} {
		for i := 0; i < n; i++ {
			lat := int64(1000 * (k + 1))
			w.samples = append(w.samples, sample{endNS: int64(k)*1e9 + int64(i), latNS: lat, id: int32(k)})
		}
	}
	w.samples = append(w.samples, sample{endNS: 4e9, latNS: 9000}) // after the window: no slice
	kept, rest, seconds, spread := w.quietHalf()
	if len(kept) != 7 || len(rest) != 3 || seconds != 2 {
		t.Fatalf("quiet half: %d samples over %v s and %d left, want 7 over 2 and 3", len(kept), seconds, len(rest))
	}
	for _, s := range kept {
		if s.id != 0 && s.id != 2 {
			t.Errorf("quiet half holds a sample of slice %d", s.id)
		}
	}
	if want := (4.0 - 3.0) / 3.0; spread != want {
		t.Errorf("spread = %v, want %v", spread, want)
	}
	st := statsOf(kept, seconds)
	if st.qps != 3.5 || st.p50US != 1 || st.p99US != 3 || st.beyond99 != 0 {
		t.Errorf("stats = %+v, want qps 3.5, p50 1, p99 3", st)
	}
	// One slice, as on serve-churn: the whole window.
	w.slices, w.slice = 1, 4e9
	if kept, rest, seconds, _ := w.quietHalf(); len(kept) != 10 || len(rest) != 0 || seconds != 4 {
		t.Errorf("one slice: %d samples over %v s, want 10 over 4", len(kept), seconds)
	}
}

func TestClassMeansFallBackOnTheRestOfTheWindow(t *testing.T) {
	pop := &population{distinct: []distinctQuery{{class: classQ2}, {class: classQ2}}}
	weight := []float64{0.25, 0.75}
	quiet := []sample{{latNS: 1000, id: 0}, {latNS: 3000, id: 0}}
	rest := []sample{{latNS: 9000, id: 0}, {latNS: 6000, id: 1}}
	// Query 0 at the median of its quiet samples (2 us), query 1, unseen in
	// the quiet half, at its sample from the rest (6 us).
	if got, want := classMeans(quiet, rest, pop, weight)[classQ2], 0.25*2+0.75*6; got != want {
		t.Errorf("class mean = %v, want %v", got, want)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spreadOf(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spreadOf = %v, want %v", got, want)
	}
}

func TestHeadField(t *testing.T) {
	body := []byte(`{"query":"//a[text()=\",\\\"count\\\":9\"]","generation":3,"cached":true,"count":42,"wall_ns":1234,"nodes":[{"id":1,"tag":"count"}]}`)
	for key, want := range map[string]int64{`,"count":`: 42, `,"wall_ns":`: 1234} {
		if got, ok := headField(body, key); !ok || got != want {
			t.Errorf("headField(%s) = %v %v, want %v", key, got, ok, want)
		}
	}
	if _, ok := headField(body, `,"missing":`); ok {
		t.Error("headField found a field that is not there")
	}
}

// smallPopulation generates the protocol's population over a 1%-scale
// document.
func smallPopulation(t *testing.T) *population {
	t.Helper()
	ds, err := datagen.LoadDataset("Ged03.xml", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := newPopulation(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func sequence(pop *population, seed int64, client int, zipf bool, n int) string {
	var b strings.Builder
	d := pop.drawer(seed, client, zipf)
	for i := 0; i < n; i++ {
		b.Write(pop.distinct[d.next()].body)
	}
	return b.String()
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b := smallPopulation(t), smallPopulation(t)
	for _, zipf := range []bool{false, true} {
		for client := 0; client < 2; client++ {
			if sequence(a, 7, client, zipf, 2000) != sequence(b, 7, client, zipf, 2000) {
				t.Errorf("zipf=%v client %d: same seed, different request sequence", zipf, client)
			}
		}
		if sequence(a, 7, 0, zipf, 2000) == sequence(a, 8, 0, zipf, 2000) {
			t.Errorf("zipf=%v: seeds 7 and 8 give the same request sequence", zipf)
		}
		if sequence(a, 7, 0, zipf, 2000) == sequence(a, 7, 1, zipf, 2000) {
			t.Errorf("zipf=%v: clients 0 and 1 send the same sequence", zipf)
		}
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestContractMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v, want [bench/e2e]", bj.Paths)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bj.Workloads), len(workloads))
	}
	known := map[string]bool{}
	for i, w := range workloads {
		known[w.name] = true
		if bj.Workloads[i].Name != w.name || !name.MatchString(w.name) || bj.Workloads[i].Why == "" {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, bj.Workloads[i].Name, w.name)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(bj.EndToEnd), len(endToEnd))
	}
	e2e := map[string]bool{}
	for i, m := range endToEnd {
		e2e[m.name] = true
		got := bj.EndToEnd[i]
		better := "lower"
		if m.higher {
			better = "higher"
		}
		if got.Name != m.name || got.Unit != m.unit || got.Better != better || got.Bound != m.bound || !name.MatchString(m.name) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %s [%s] %s bound %v", i, got, m.name, m.unit, better, m.bound)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, got.Bound)
		}
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		if got := bj.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || !name.MatchString(m.name) {
			t.Errorf("per-layer metric %d: %q [%s] in BENCHMARK.json, %q [%s] in the harness", i, got.Name, got.Unit, m.name, m.unit)
		}
		if seen[m.name] || e2e[m.name] {
			t.Errorf("%s: name used twice", m.name)
		}
		seen[m.name] = true
		if !e2e[m.moves] || !known[m.on] {
			t.Errorf("%s: predicts %q on %q, which the contract does not have", m.name, m.moves, m.on)
		}
	}
}

// mayReadZero are the per-layer counts a healthy traced run of the workload
// that measures them may report as 0.
var mayReadZero = map[string]bool{
	"query.backward_plans": true, "query.hash_stage_share": true, "query.pool_exhausted": true,
	"extentblock.block_skips_per_query": true, "server.cache_evictions": true, "server.shed": true,
	"controller.adapts": true, "trace.negative_self_layers": true,
}

// TestSmoke runs every workload, untraced and traced, on a small document
// with one-second windows, end to end through run().
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole harness")
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 1, trace: trace, scale: 0.02, dataset: "Ged03.xml", outDir: out}
			rec, err := run(cfg, t.Logf)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, rec.Correct, rec.Attempted, rec.Failed)
			}
			value := func(name, unit string) float64 {
				v, ok := rec.Metrics[name]
				if !ok || v.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q", w.name, trace, name, v.Unit)
				}
				return v.Value
			}
			if !trace {
				if len(rec.Metrics) != len(endToEnd) {
					t.Errorf("%s: %d metrics reported, contract has %d", w.name, len(rec.Metrics), len(endToEnd))
				}
				for _, m := range endToEnd {
					if value(m.name, m.unit) <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.name, rec.Metrics[m.name].Value)
					}
				}
				continue
			}
			if len(rec.Metrics) != len(perLayer) {
				t.Errorf("%s traced: %d metrics reported, contract has %d", w.name, len(rec.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if v := value(m.name, m.unit); m.on == w.name && v == 0 && !mayReadZero[m.name] {
					t.Errorf("%s traced: %s reads 0 on the workload it is predicted on", w.name, m.name)
				}
			}
			if _, err := os.Stat(out + "/spans-" + w.name + "-seed3.jsonl"); err != nil {
				t.Errorf("no span file: %v", err)
			}
			hit := rec.Metrics["server.cache_hit_rate"].Value
			switch w.name {
			case "embedded-mixed":
				for _, m := range perLayer {
					if layer, _, _ := strings.Cut(m.name, "."); (layer == "server" || layer == "shard") && rec.Metrics[m.name].Value != 0 {
						t.Errorf("embedded-mixed shows %s work: %s = %v", layer, m.name, rec.Metrics[m.name].Value)
					}
				}
			case "serve-hot":
				if hit < 0.95 {
					t.Errorf("serve-hot: cache hit rate %v, want at least 0.95", hit)
				}
			case "router-scatter":
				if hit != 0 || rec.Metrics["shard.backend_queries_per_op"].Value != numShards {
					t.Errorf("router-scatter: cache hit rate %v, %v backend queries per operation", hit, rec.Metrics["shard.backend_queries_per_op"].Value)
				}
			case "serve-churn":
				if rec.Metrics["storage.replayed_records"].Value != 2 {
					t.Errorf("serve-churn replayed %v records, want 2", rec.Metrics["storage.replayed_records"].Value)
				}
			}
		}
	}
	if err := appendRecord(out, &record{Workload: "serve-hot"}); err != nil {
		t.Fatal(err)
	}
	recs, err := readRecords(out + "/results.jsonl")
	if err != nil || len(recs["serve-hot"]) != 1 {
		t.Errorf("result file round trip: %v, %d records", err, len(recs["serve-hot"]))
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(scale float64, n int) map[string][]*record {
		out := map[string][]*record{}
		for _, w := range workloads {
			for i := 0; i < n; i++ {
				r := &record{Workload: w.name}
				r.Correct = true
				r.Metrics = map[string]metricValue{}
				for _, m := range endToEnd {
					v := 100.0 + float64(i) // a 1% ladder: spread well inside every bound
					if m.name == "query_p50_us" {
						v *= scale
					}
					r.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
				}
				out[w.name] = append(out[w.name], r)
			}
		}
		return out
	}
	var buf bytes.Buffer
	if code := compareRecords(&buf, mk(1, 5), mk(1, 5)); code != 0 || strings.Contains(buf.String(), "regressed") {
		t.Errorf("identical sets: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareRecords(&buf, mk(1, 5), mk(1.5, 5)); code != 1 || strings.Count(buf.String(), "regressed") != len(workloads) {
		t.Errorf("a 50%% slower p50 must regress once per workload: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	wide := mk(1, 5)
	wide["serve-hot"][0].Metrics["qps"] = metricValue{Value: 10}
	wide["serve-hot"][1].Metrics["qps"] = metricValue{Value: 20}
	if code := compareRecords(&buf, wide, mk(1, 5)); code != 1 || strings.Count(buf.String(), "unresolved") != 1 {
		t.Errorf("a spread wider than the bound must be unresolved: exit %d\n%s", code, buf.String())
	}
}

func TestUnknownNamesAreErrors(t *testing.T) {
	if code := realMain([]string{"-workload", "serve-hott"}); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := realMain([]string{"-workload", "serve-hot", "-dataset", "Ged99.xml", "-out", t.TempDir()}); code == 0 {
		t.Error("unknown dataset: exit 0")
	}
}
