// Command e2e is the repository's benchmark: four named workloads on the
// paper's largest document at full size, driven closed-loop on real cores,
// each answer checked against an oracle, with a separate traced run that
// times every module's public functions from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed of the request sequences and the oracle sample")
		seconds  = fs.Int("seconds", 8, "length of the measured window")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics; 1 = the traced run's per-layer metrics")
		scale    = fs.Float64("scale", 1.0, "document scale (1.0 = the paper's size; other values are outside the contract)")
		dataset  = fs.String("dataset", "Ged03.xml", "Table 1 document (others than the default are outside the contract)")
		outDir   = fs.String("out", "bench/e2e/out", "directory for results.jsonl, span files and temporary durable directories")
		compare  = fs.Bool("compare", false, "compare two result files (the two arguments) under the contract's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "e2e: -compare takes two result files")
			return 2
		}
		return runCompare(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	spec, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "e2e: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2e: bad arguments")
		fs.Usage()
		return 2
	}
	if runtime.GOMAXPROCS(0) < 2 {
		fmt.Fprintln(os.Stderr, "e2e: GOMAXPROCS < 2: generator and target share one process and need a core each")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 2
	}
	cfg := config{workload: spec, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: *scale, dataset: *dataset, outDir: *outDir}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", a...) }
	rec, err := run(cfg, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	if err := appendRecord(*outDir, rec); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	line, err := json.Marshal(rec.outcome)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	printMetrics(os.Stdout, rec)
	fmt.Printf("%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
