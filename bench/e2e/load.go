package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// steadySlices is how many consecutive slices the window of a steady workload
// is cut into. Whatever else runs on the box can only slow a slice down, so
// the half of the slices with the highest throughput is the quiet half of the
// window, and every windowed metric is computed from the requests that
// completed in it: a disturbance that covers up to half of the window cannot
// move a number. (Ten runs of one commit spread half as far this way as with
// whole-window numbers or the median slice; README.md, Noise.) serve-churn's
// window is one slice: its slices would not be alike (a rebuild runs in one,
// a publication empties the cache in the next), and the quiet ones would be
// the ones without the writer.
const steadySlices = 16

// sample is one successful, count-verified request.
type sample struct {
	endNS int64 // completion time since the window opened
	latNS int64
	id    int32 // the distinct query sent
}

// windowResult is everything one measured window observed.
type windowResult struct {
	slice     time.Duration // the window is slices × slice long
	slices    int
	samples   []sample
	attempted int64
	failed    int64
	firstErr  error
}

// runWindow drives the closed loop: clients goroutines, each sending its next
// request only after the previous answer was read, for slices × slice.
// An answer counts only if it arrived with status 200 and the count the
// oracle expects; anything else is a failed operation.
func runWindow(t *target, pop *population, clients int, seed int64, zipf bool, slice time.Duration, slices int) *windowResult {
	res := &windowResult{slice: slice, slices: slices}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(slices) * slice)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(t)
			defer cl.close()
			draw := pop.drawer(seed, c, zipf)
			local := make([]sample, 0, 1<<16)
			var attempted, failed int64
			var firstErr error
			for {
				id := draw.next()
				d := &pop.distinct[id]
				begin := time.Now()
				if !begin.Before(deadline) {
					break
				}
				r, err := cl.query(d)
				end := time.Now()
				attempted++
				if err == nil && r.count != d.wantCount {
					err = fmt.Errorf("%s: count %d, oracle %d", d.text, r.count, d.wantCount)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				local = append(local, sample{endNS: end.Sub(start).Nanoseconds(), latNS: end.Sub(begin).Nanoseconds(), id: id})
			}
			mu.Lock()
			defer mu.Unlock()
			res.samples = append(res.samples, local...)
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
		}(c)
	}
	wg.Wait()
	return res
}

// windowStats are the windowed end-to-end metrics over a set of samples.
type windowStats struct {
	qps      float64
	p50US    float64
	p99US    float64
	beyond99 int // samples beyond the p99
}

// statsOf computes the windowed metrics of the requests that completed
// within seconds of measuring.
func statsOf(samples []sample, seconds float64) windowStats {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.latNS) / 1e3
	}
	sort.Float64s(lat)
	return windowStats{
		qps:      float64(len(lat)) / seconds,
		p50US:    percentile(lat, 0.50),
		p99US:    percentile(lat, 0.99),
		beyond99: len(lat) - int(math.Ceil(0.99*float64(len(lat)))),
	}
}

// bySlice files the samples under the slice they completed in. One that
// completed after the window closed belongs to none (it still counts as
// attempted).
func (w *windowResult) bySlice() [][]sample {
	out := make([][]sample, w.slices)
	for _, s := range w.samples {
		if k := int(s.endNS / w.slice.Nanoseconds()); k < w.slices {
			out[k] = append(out[k], s)
		}
	}
	return out
}

// quietHalf splits the samples into those of the half of the slices (rounded
// up) that completed the most requests and the rest. seconds is how long the
// kept slices are together; spread is how far they differ from one another:
// the range of their sample counts as a share of the median.
func (w *windowResult) quietHalf() (kept, rest []sample, seconds, spread float64) {
	slices := w.bySlice()
	sort.SliceStable(slices, func(i, j int) bool { return len(slices[i]) > len(slices[j]) })
	half := (len(slices) + 1) / 2
	for k, s := range slices {
		if k < half {
			kept = append(kept, s...)
		} else {
			rest = append(rest, s...)
		}
	}
	if mid := len(slices[half/2]); mid > 0 {
		spread = float64(len(slices[0])-len(slices[half-1])) / float64(mid)
	}
	return kept, rest, float64(half) * w.slice.Seconds(), spread
}

// classMeans is the latency per operation type: for each class, the mean over
// its distinct queries of the query's median latency, weighted by how often
// the workload draws the query. Taking each query at its own median and at
// its known weight leaves out the two things that make a plain per-class mean
// unsteady — a burst that slows whatever happened to be in flight, and which
// of a class's few heavy queries a short window happened to draw — and keeps
// what a change to the program can move. A query's median is taken over its
// samples in the quiet half, or over those in the rest of the window when the
// quiet half has none of it: at router-scatter's rate four seconds reach one
// QMIXED query in two.
func classMeans(quiet, rest []sample, pop *population, weight []float64) [numClasses]float64 {
	byQuery := make([][]float64, len(pop.distinct))
	for _, s := range quiet {
		byQuery[s.id] = append(byQuery[s.id], float64(s.latNS)/1e3)
	}
	seen := make([]bool, len(byQuery))
	for id := range byQuery {
		seen[id] = len(byQuery[id]) > 0
	}
	for _, s := range rest {
		if !seen[s.id] {
			byQuery[s.id] = append(byQuery[s.id], float64(s.latNS)/1e3)
		}
	}
	var total, mass [numClasses]float64
	for id, lat := range byQuery {
		if len(lat) > 0 {
			c := pop.distinct[id].class
			total[c] += weight[id] * median(lat)
			mass[c] += weight[id]
		}
	}
	var means [numClasses]float64
	for c := range means {
		means[c] = ratio(total[c], mass[c])
	}
	return means
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least q of the sample at or below it. 0 for an
// empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of v and returns its middle value, or the mean of the
// two middle values. 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// warmUp sends every distinct query once, spread over the clients, so the
// window opens on filled result, plan and leg caches — the same state on
// every run, which a timed warm-up would not give.
func warmUp(t *target, pop *population, clients int) error {
	var wg sync.WaitGroup
	var failures atomic.Int64
	var firstErr atomic.Value
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(t)
			defer cl.close()
			for i := c; i < len(pop.distinct); i += clients {
				d := &pop.distinct[i]
				if d.wantCount < 0 {
					continue
				}
				if r, err := cl.query(d); err != nil || r.count != d.wantCount {
					if failures.Add(1) == 1 {
						firstErr.Store(fmt.Errorf("%s: got %d (err %v), oracle %d", d.text, r.count, err, d.wantCount))
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d wrong answers, first: %v", n, firstErr.Load())
	}
	return nil
}

// verify asks the target for the full answer of every query in the oracle
// sample and compares the id lists, element by element and in order.
func verify(t *target, pop *population, clients int) (checked, wrong int64, first error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(t)
			defer cl.close()
			for k := c; k < len(pop.sample); k += clients {
				d := &pop.distinct[pop.sample[k]]
				got, err := cl.queryIDs(d)
				if err == nil && !equalIDs(got, d.wantIDs) {
					err = fmt.Errorf("%s: %d ids, oracle %d, or same length and different ids", d.text, len(got), len(d.wantIDs))
				}
				mu.Lock()
				checked++
				if err != nil {
					wrong++
					if first == nil {
						first = err
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return checked, wrong, first
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
