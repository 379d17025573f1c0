package main

import (
	"fmt"
	"math/rand"
	"sync"

	"apex"
	"apex/internal/query"
	"apex/internal/xmlgraph"
)

// oracleSampleSize is how many distinct queries are held to a full expected
// id list (the rest to an expected count). bruteForceUntraced is how many of
// those lists an untraced run also derives with the brute-force data-graph
// evaluators; a traced run derives all of them. The evaluators walk the whole
// graph per query — 512 of them take 4–5 s of a run that may last 35 — and
// the driver makes ten untraced runs for every traced one.
const (
	oracleSampleSize   = 512
	bruteForceUntraced = 128
)

// fillOracle computes what every answer must be, without the code under
// test's adapted structures, servers, shards or caches: the expected count of
// every distinct query, and for a seeded sample covering all four classes
// the expected id list, from an un-adapted APEX⁰ index over g. The first
// bruteForce queries of the sample are evaluated a second time by the
// index-independent brute-force graph evaluators, and the two id lists must
// be equal, or the oracle itself is broken. A query APEX⁰ cannot evaluate is
// removed from the population.
func (p *population) fillOracle(g *xmlgraph.Graph, opts apex.Options, seed int64, bruteForce, workers int) error {
	opts.DisableQueryLog = true
	base, err := apex.FromGraph(g, &opts)
	if err != nil {
		return err
	}
	bad := make([]bool, len(p.distinct))
	answers := make([]*apex.Result, len(p.distinct))
	parallelFor(len(p.distinct), workers, func(i int) {
		res, err := base.Query(p.distinct[i].text)
		if err != nil {
			bad[i] = true
			return
		}
		p.distinct[i].wantCount, answers[i] = res.Len(), res
	})
	p.dropBad(bad)

	// Stratified sample: a quarter of the budget per class first, then the
	// remainder in shuffled order, so a rare class cannot be missed.
	perm := rand.New(rand.NewSource(seed ^ 0x0a11ce)).Perm(len(p.distinct))
	chosen := make([]bool, len(p.distinct))
	var perClass [numClasses]int
	for pass := 0; pass < 2 && len(p.sample) < oracleSampleSize; pass++ {
		for _, i := range perm {
			if len(p.sample) == oracleSampleSize {
				break
			}
			d := &p.distinct[i]
			if chosen[i] || bad[i] || (pass == 0 && perClass[d.class] >= oracleSampleSize/int(numClasses)) {
				continue
			}
			chosen[i] = true
			perClass[d.class]++
			p.sample = append(p.sample, int32(i))
		}
	}
	for _, i := range p.sample {
		d := &p.distinct[i]
		d.wantIDs = make([]int32, len(answers[i].Nodes))
		for k, n := range answers[i].Nodes {
			d.wantIDs[k] = n.ID
		}
	}
	if bruteForce > len(p.sample) {
		bruteForce = len(p.sample)
	}
	disagree := make([]bool, bruteForce)
	parallelFor(bruteForce, workers, func(k int) {
		d := &p.distinct[p.sample[k]]
		disagree[k] = !equalIDs(graphAnswer(g, d.parsed), d.wantIDs)
	})
	for k, wrong := range disagree {
		if wrong {
			return fmt.Errorf("oracle: %s: the graph evaluator and APEX0 disagree", p.distinct[p.sample[k]].text)
		}
	}
	return nil
}

// graphAnswer evaluates q by brute force over the data graph.
func graphAnswer(g *xmlgraph.Graph, q query.Query) []int32 {
	var nids []xmlgraph.NID
	switch q.Type {
	case query.QTYPE2:
		nids = g.EvalDescendantPair(q.Path[0], q.Path[1], true)
	case query.QMIXED:
		nids = g.EvalMixed(q.Segments, true)
	default:
		nids = g.EvalPartialPath(q.Path)
	}
	ids := make([]int32, 0, len(nids))
	for _, n := range nids {
		if q.Type == query.QTYPE3 && g.Value(n) != q.Value {
			continue
		}
		ids = append(ids, int32(n))
	}
	return ids
}

// dropBad removes the flagged distinct queries from the draw sequences.
func (p *population) dropBad(bad []bool) {
	filter := func(s []int32) []int32 {
		out := s[:0]
		for _, id := range s {
			if !bad[id] {
				out = append(out, id)
			}
		}
		return out
	}
	before := len(p.draws)
	p.draws, p.order = filter(p.draws), filter(p.order)
	p.dropped += before - len(p.draws)
}

// parallelFor runs fn(0..n-1) over a fixed set of workers.
func parallelFor(n, workers int, fn func(i int)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
