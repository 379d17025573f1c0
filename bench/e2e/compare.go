package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads the untraced records of a result file by workload.
func readRecords(path string) (map[string][]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		rec := &record{}
		if err := json.Unmarshal(sc.Bytes(), rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// spreadOf is the distance between the first and third quartile as a share
// of the median, by the same exclusive method as Python's
// statistics.quantiles(n=4); with fewer than four values it is the full
// range over the median, and a single value has no spread.
func spreadOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := quantile(s, 0.5)
	if len(s) < 2 || med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / med
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / med
}

// quantile interpolates at position q·(n+1) of an ascending sample.
func quantile(s []float64, q float64) float64 {
	pos := q*float64(len(s)+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	i := int(pos)
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// runCompare prints one row per (metric, workload): ok when b's median is no
// worse than a's by more than the bound, regressed when it is, unresolved
// when either side's own spread is wider than the bound, so the two medians
// cannot be told apart at that resolution.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, errA := readRecords(pathA)
	b, errB := readRecords(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: compare:", err)
		return 2
	}
	return compareRecords(w, a, b)
}

func compareRecords(w io.Writer, a, b map[string][]*record) int {
	values := func(recs []*record, metric string) []float64 {
		var v []float64
		for _, r := range recs {
			if r.Correct {
				v = append(v, r.Metrics[metric].Value)
			}
		}
		return v
	}
	bad := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "a.median", "b.median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := values(a[wl.name], m.name), values(b[wl.name], m.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %8s %6s  %s\n", wl.name, m.name, "-", "-", "-", "-", "-", "missing")
				bad++
				continue
			}
			ma, mb := quantile(sorted(va), 0.5), quantile(sorted(vb), 0.5)
			worse := (mb - ma) / ma // share of a's median by which b is worse
			if m.higher {
				worse = -worse
			}
			spread := spreadOf(va)
			if s := spreadOf(vb); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > m.bound:
				verdict = "unresolved"
				bad++
			case worse > m.bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n", wl.name, m.name, ma, mb, 100*worse, 100*spread, 100*m.bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
