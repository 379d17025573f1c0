package core

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"apex/internal/xmlgraph"
)

// sortedModel flattens a naive map model into the (From, To) order Sorted
// promises.
func sortedModel(model map[xmlgraph.EdgePair]bool) []xmlgraph.EdgePair {
	out := make([]xmlgraph.EdgePair, 0, len(model))
	for p := range model {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return lessFromTo(out[i], out[j]) })
	return out
}

// checkAgainstModel asserts every observable of s against the naive model:
// Len, Contains (hits and a near-miss per pair), Sorted order, Pairs as a
// set, the Ends invariants, and String.
func checkAgainstModel(s *EdgeSet, model map[xmlgraph.EdgePair]bool) error {
	if s.Len() != len(model) {
		return fmt.Errorf("Len = %d, model has %d", s.Len(), len(model))
	}
	for p := range model {
		if !s.Contains(p) {
			return fmt.Errorf("missing pair %v", p)
		}
		if miss := (xmlgraph.EdgePair{From: p.To + 1000, To: p.From + 1000}); !model[miss] && s.Contains(miss) {
			return fmt.Errorf("phantom pair %v", miss)
		}
	}
	want := sortedModel(model)
	got := s.Sorted()
	if len(got) != len(want) {
		return fmt.Errorf("Sorted has %d pairs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("Sorted[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	seen := make(map[xmlgraph.EdgePair]bool)
	for _, p := range s.Pairs() {
		if !model[p] || seen[p] {
			return fmt.Errorf("Pairs yields %v (in model: %v, duplicate: %v)", p, model[p], seen[p])
		}
		seen[p] = true
	}
	if len(seen) != len(model) {
		return fmt.Errorf("Pairs yields %d distinct pairs, want %d", len(seen), len(model))
	}
	wantEnds := make(map[xmlgraph.NID]bool)
	for p := range model {
		wantEnds[p.To] = true
	}
	ends := s.Ends()
	if len(ends) != len(wantEnds) {
		return fmt.Errorf("Ends has %d ids, want %d", len(ends), len(wantEnds))
	}
	for i, n := range ends {
		if !wantEnds[n] {
			return fmt.Errorf("Ends contains %d not in model", n)
		}
		if s.Frozen() && i > 0 && ends[i-1] >= n {
			return fmt.Errorf("frozen Ends not strictly ascending at %d: %v", i, ends)
		}
	}
	return nil
}

// TestEdgeSetFreezeThawRoundTrip drives a full life cycle —
// build → freeze → re-add (auto-thaw) → freeze again — and checks at every
// step that the set behaves exactly like a naive map of pairs, and that the
// frozen observables (Sorted, String, Ends order) are unchanged by the state
// transitions.
func TestEdgeSetFreezeThawRoundTrip(t *testing.T) {
	f := func(first, second [][2]int16) bool {
		s := NewEdgeSet()
		model := make(map[xmlgraph.EdgePair]bool)
		add := func(batch [][2]int16) bool {
			for _, q := range batch {
				p := pair(xmlgraph.NID(q[0]), xmlgraph.NID(q[1]))
				if s.Add(p) == model[p] {
					return false // Add's newness must mirror set semantics
				}
				model[p] = true
			}
			return true
		}
		if !add(first) {
			return false
		}
		mutableString := s.String()
		s.Freeze()
		if !s.Frozen() || s.String() != mutableString {
			return false
		}
		s.Freeze() // idempotent
		if checkAgainstModel(s, model) != nil {
			return false
		}
		// Re-adding thaws; duplicates of frozen pairs must still be refused.
		if !add(second) {
			return false
		}
		if s.Frozen() && len(second) > 0 {
			return false
		}
		if checkAgainstModel(s, model) != nil {
			return false
		}
		s.Freeze()
		return checkAgainstModel(s, model) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeSetFrozenColumns pins the frozen layout the merge-join kernel
// consumes: PairsByFrom sorted by (From, To) and deduplicated, Contains via
// the (To, From) column, Ends strictly ascending.
func TestEdgeSetFrozenColumns(t *testing.T) {
	s := NewEdgeSet()
	for _, q := range [][2]int{{5, 1}, {2, 9}, {2, 3}, {5, 1}, {1, 9}, {3, 3}} {
		s.Add(pair(xmlgraph.NID(q[0]), xmlgraph.NID(q[1])))
	}
	sortedBefore := s.Sorted()
	byFromBefore := s.PairsByFrom()
	s.Freeze()

	byFrom := s.PairsByFrom()
	if len(byFrom) != 5 {
		t.Fatalf("frozen PairsByFrom has %d pairs, want 5 (dup dropped)", len(byFrom))
	}
	for i := 1; i < len(byFrom); i++ {
		if !lessFromTo(byFrom[i-1], byFrom[i]) {
			t.Fatalf("PairsByFrom not strictly (From,To)-ascending at %d: %v", i, byFrom)
		}
	}
	for i := range sortedBefore {
		if byFrom[i] != sortedBefore[i] || byFrom[i] != byFromBefore[i] {
			t.Fatalf("frozen column diverges from mutable Sorted/PairsByFrom at %d", i)
		}
	}
	if got, want := fmt.Sprint(s.Ends()), "[1 3 9]"; got != want {
		t.Fatalf("frozen Ends = %s, want %s", got, want)
	}
	if !s.Contains(pair(5, 1)) || s.Contains(pair(1, 5)) {
		t.Fatal("frozen Contains wrong")
	}
	if got, want := s.String(), "{<1,9>, <2,3>, <2,9>, <3,3>, <5,1>}"; got != want {
		t.Fatalf("frozen String = %q, want %q", got, want)
	}
}

// TestEdgeSetFreezeEmpty covers the degenerate states.
func TestEdgeSetFreezeEmpty(t *testing.T) {
	s := NewEdgeSet()
	s.Freeze()
	if !s.Frozen() || s.Len() != 0 || s.Contains(pair(0, 0)) || len(s.Ends()) != 0 {
		t.Fatal("frozen empty set misbehaves")
	}
	if !s.Add(pair(1, 2)) {
		t.Fatal("Add after freezing empty set should report new")
	}
	var nilSet *EdgeSet
	nilSet.Freeze() // must not panic
	if nilSet.Frozen() {
		t.Fatal("nil set reports frozen")
	}
}

// FuzzEdgeSetModel drives an EdgeSet through an arbitrary interleaving of
// Add and Freeze operations decoded from the fuzz input and checks every
// observable against a naive map model after each step batch.
func FuzzEdgeSetModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 255, 9, 9, 9})
	f.Add([]byte{255, 0, 0, 0, 255, 255, 1, 1, 1, 255})
	f.Add([]byte{7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewEdgeSet()
		model := make(map[xmlgraph.EdgePair]bool)
		for i := 0; i+2 < len(data); i += 3 {
			if data[i] == 255 {
				s.Freeze()
				i -= 2 // consumed one byte only
				continue
			}
			if data[i] == 254 {
				s.FreezeAs(true) // block-compressed form
				i -= 2
				continue
			}
			p := pair(xmlgraph.NID(data[i+1]), xmlgraph.NID(data[i+2]))
			if s.Add(p) == model[p] {
				t.Fatalf("Add(%v) newness mismatch (model has it: %v)", p, model[p])
			}
			model[p] = true
		}
		if err := checkAgainstModel(s, model); err != nil {
			t.Fatalf("mutable-state check: %v", err)
		}
		s.Freeze()
		if err := checkAgainstModel(s, model); err != nil {
			t.Fatalf("frozen-state check: %v", err)
		}
	})
}

// BenchmarkEdgeSetEnds shows what freezing buys the fast path: a frozen set
// serves its precomputed distinct-ends column for free, while a mutable set
// pays a full map-and-slice rebuild on every call (the per-query cost the
// old representation charged).
func BenchmarkEdgeSetEnds(b *testing.B) {
	build := func() *EdgeSet {
		s := NewEdgeSet()
		for i := 0; i < 10000; i++ {
			s.Add(pair(xmlgraph.NID(i), xmlgraph.NID(i%4000)))
		}
		return s
	}
	b.Run("mutable", func(b *testing.B) {
		s := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(s.Ends()) != 4000 {
				b.Fatal("wrong ends")
			}
		}
	})
	b.Run("frozen", func(b *testing.B) {
		s := build()
		s.Freeze()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(s.Ends()) != 4000 {
				b.Fatal("wrong ends")
			}
		}
	})
}

// BenchmarkEdgeSetFreeze times the publication step itself: sorting a
// mutable set's staging pairs into the two serving columns. The pairs arrive
// in the scrambled order a delta-propagating build stages them in.
func BenchmarkEdgeSetFreeze(b *testing.B) {
	for _, n := range []int{100, 10000, 200000} {
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			pairs := make([]xmlgraph.EdgePair, n)
			for i := range pairs {
				pairs[i] = pair(xmlgraph.NID((i*7919)%n), xmlgraph.NID((i*104729)%(n/2+1)))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewEdgeSet()
				for _, p := range pairs {
					s.Add(p)
				}
				b.StartTimer()
				s.Freeze()
			}
		})
	}
}
