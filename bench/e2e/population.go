package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"apex/internal/query"
	"apex/internal/workload"
	"apex/internal/xmlgraph"
)

// The paper's protocol (Section 6.1, as internal/workload implements it):
// 5000 QTYPE1, 500 QTYPE2, 1000 QTYPE3 and 500 QMIXED queries, a 20% sample
// of the QTYPE1 queries handed to frequent-path extraction at minSup 0.005.
const (
	numQ1, numQ2, numQ3, numQMixed = 5000, 500, 1000, 500
	adaptEvery                     = 5
	adaptMinSup                    = 0.005
	// populationSeed generates the population and its popularity ranking.
	// They are part of the workload's definition, like the document: under
	// Zipf(1.1) the ten most popular queries take 45% of the traffic, and
	// with a population drawn from --seed serve-hot's qps ranged from 2 485
	// to 6 494 over seeds 1–9 according to how large the answers of those ten
	// happened to be. --seed drives the request sequences and the oracle
	// sample instead.
	populationSeed = 1
)

// class is the operation type a latency sample is filed under: the query
// class the program's own parser assigns to the text it receives.
type class uint8

const (
	classQ1 class = iota
	classQ2
	classQ3
	classQMixed
	numClasses
)

var classNames = [numClasses]string{"q1", "q2", "q3", "qmixed"}

func classOf(t query.Type) class {
	switch t {
	case query.QTYPE2:
		return classQ2
	case query.QTYPE3:
		return classQ3
	case query.QMIXED:
		return classQMixed
	}
	return classQ1
}

// distinctQuery is one distinct query text with everything the harness needs
// to send it and to judge the answer.
type distinctQuery struct {
	text      string
	body      []byte // the POST /query request body
	parsed    query.Query
	class     class
	wantCount int     // from the un-adapted APEX⁰ index
	wantIDs   []int32 // from the data-graph evaluators; nil outside the oracle sample
}

// population is the generated query population: the distinct texts and the
// protocol's draws over them (duplicates kept, so a frequent text is drawn
// more often, as in the paper's replay).
type population struct {
	distinct []distinctQuery
	draws    []int32 // one entry per generated query, in protocol order
	order    []int32 // fixed shuffle of draws; rank r of a Zipf draw is order[r]
	sample   []int32 // the oracle sample: distinct ids with wantIDs set
	dropped  int     // generated texts that do not round-trip through query.Parse

	// adaptSets[k] is every 5th QTYPE1 query from the k-th on, a 20% sample
	// each: set 0 is what set-up adapts every index to, set 1 what
	// serve-churn's mid-window adapt shifts to, sets 2 and 3 what the
	// adaptations timed after the window alternate between.
	adaptSets [adaptEvery - 1][]string
}

// newPopulation generates the protocol's population for g. Texts
// that the program's parser would read differently from what was generated
// (a value containing a bracket or quote, say) are dropped here, so no
// request can fail by construction of the input.
func newPopulation(g *xmlgraph.Graph) (*population, error) {
	gen := workload.New(g, populationSeed)
	q1 := gen.QType1(numQ1)
	all := append(append(append(append([]query.Query(nil), q1...),
		gen.QType2(numQ2)...), gen.QType3(numQ3)...), gen.QMixed(numQMixed)...)

	p := &population{}
	ids := make(map[string]int32)
	for _, q := range all {
		text := q.String()
		id, ok := ids[text]
		if !ok {
			parsed, err := query.Parse(text)
			if err != nil || parsed.String() != text {
				p.dropped++
				continue
			}
			body, err := json.Marshal(map[string]string{"query": text})
			if err != nil {
				return nil, err
			}
			id = int32(len(p.distinct))
			ids[text] = id
			p.distinct = append(p.distinct, distinctQuery{
				text: text, body: body, parsed: parsed, class: classOf(parsed.Type), wantCount: -1,
			})
		}
		p.draws = append(p.draws, id)
	}
	if len(p.draws) == 0 {
		return nil, fmt.Errorf("population: no usable queries")
	}
	for k := range p.adaptSets {
		for i := k; i < len(q1); i += adaptEvery {
			p.adaptSets[k] = append(p.adaptSets[k], q1[i].String())
		}
	}
	p.order = append([]int32(nil), p.draws...)
	rand.New(rand.NewSource(populationSeed)).Shuffle(len(p.order), func(i, j int) {
		p.order[i], p.order[j] = p.order[j], p.order[i]
	})
	return p, nil
}

// drawer yields one client's request sequence: a deterministic function of
// (seed, client) and the workload's distribution. Uniform draws are without
// replacement: the client walks a shuffle of the whole population and
// reshuffles when it reaches the end, so every pass sends exactly the
// protocol's mix and no query goes unsampled for long — a window of
// independent draws would leave one query in eight of a small class unseen
// and the class's latency to whichever of its heavy queries came up.
type drawer struct {
	order []int32
	rng   *rand.Rand
	zipf  *rand.Zipf // nil = uniform
	perm  []int      // the current shuffle of order's positions
	pos   int
}

// zipfS is serve-hot's skew.
const zipfS = 1.1

func (p *population) drawer(seed int64, client int, zipf bool) *drawer {
	d := &drawer{order: p.order, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client) + 1))}
	if zipf {
		d.zipf = rand.NewZipf(d.rng, zipfS, 1, uint64(len(p.order)-1))
	}
	return d
}

func (d *drawer) next() int32 {
	if d.zipf != nil {
		return d.order[d.zipf.Uint64()]
	}
	if d.pos == len(d.perm) {
		d.perm, d.pos = d.rng.Perm(len(d.order)), 0
	}
	d.pos++
	return d.order[d.perm[d.pos-1]]
}

// weights is the probability that one draw of the workload's distribution
// yields each distinct query.
func (p *population) weights(zipf bool) []float64 {
	w := make([]float64, len(p.distinct))
	var norm float64
	for rank, id := range p.order {
		pr := 1.0
		if zipf {
			pr = math.Pow(1+float64(rank), -zipfS) // rand.Zipf with v = 1
		}
		w[id] += pr
		norm += pr
	}
	for id := range w {
		w[id] /= norm
	}
	return w
}
