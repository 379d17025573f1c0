package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"apex/internal/bench"
	"apex/internal/metrics"
)

// RunBench implements apexbench: regenerate the paper's tables and figures.
func RunBench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("apexbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		scale    = fs.Float64("scale", 0.05, "data set scale relative to the paper's sizes")
		q1       = fs.Int("q1", 1000, "number of QTYPE1 queries")
		q2       = fs.Int("q2", 100, "number of QTYPE2 queries")
		q3       = fs.Int("q3", 200, "number of QTYPE3 queries")
		seed     = fs.Int64("seed", 1, "random seed")
		exps     = fs.String("experiments", "table1,table2,fig13,fig14,fig15", "comma-separated experiment list (also: ablations, adapt-stall, asr, concurrency, drift, explain, footprint, join-kernel, planner, recovery, serve, shard)")
		paper    = fs.Bool("paper", false, "run the full-size paper protocol (slow)")
		csvDir   = fs.String("csv", "", "also write figure series as CSV files into this directory")
		concJSON = fs.String("concurrency-json", "", "write the concurrency sweep report to this JSON file")
		adptJSON = fs.String("adapt-json", "", "write the adapt-stall report to this JSON file")
		joinJSON = fs.String("join-json", "", "write the join-kernel ablation report to this JSON file")
		planJSON = fs.String("planner-json", "", "write the planner ablation report to this JSON file")
		srvJSON  = fs.String("serve-json", "", "write the serving-layer report to this JSON file")
		shrdJSON = fs.String("shard-json", "", "write the sharded-serving report to this JSON file")
		recJSON  = fs.String("recovery-json", "", "write the crash-recovery report to this JSON file")
		drftJSON = fs.String("drift-json", "", "write the workload-shift drift report to this JSON file")
		drftPh   = fs.Duration("drift-phase", 6*time.Second, "drift experiment: duration of each workload phase (raise for soak runs)")
		ftpJSON  = fs.String("footprint-json", "", "write the extent-footprint report to this JSON file")
		ftpFast  = fs.Bool("footprint-skip-max", false, "skip the footprint experiment's 10x max-dataset measurement")
		metJSON  = fs.String("metrics-json", "", "write a process metrics snapshot (counters/gauges/histograms) to this JSON file after the run")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file after the run")
		traceOut = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		defer stop()
	}
	if *traceOut != "" {
		stop, err := startTrace(*traceOut)
		if err != nil {
			return err
		}
		defer stop()
	}
	cfg := bench.DefaultConfig()
	cfg.Scale, cfg.NumQ1, cfg.NumQ2, cfg.NumQ3, cfg.Seed = *scale, *q1, *q2, *q3, *seed
	if *paper {
		cfg = bench.PaperConfig()
	}
	env := bench.NewEnv(cfg)

	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	// Experiments register here in the order they run; nothing runs until
	// every requested name is known to be one of them.
	type experiment struct {
		name string
		fn   func() error
	}
	var experiments []experiment
	run := func(name string, fn func() error) {
		experiments = append(experiments, experiment{name, fn})
	}

	run("table1", func() error {
		rows, err := env.Table1()
		if err != nil {
			return err
		}
		fprintf(stdout, "%s", bench.RenderTable1(rows))
		return nil
	})
	csvOut := func(name string, write func(io.Writer) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	run("table2", func() error {
		rows, err := env.Table2()
		if err != nil {
			return err
		}
		fprintf(stdout, "%s", bench.RenderTable2(rows, cfg.MinSups))
		return csvOut("table2.csv", func(w io.Writer) error {
			return bench.WriteTable2CSV(w, rows, cfg.MinSups)
		})
	})
	run("fig13", func() error {
		for _, fam := range bench.Families() {
			rows, err := env.Fig13(fam)
			if err != nil {
				return err
			}
			fprintf(stdout, "%s\n", bench.RenderFig13(fam, rows, cfg.MinSups))
			if err := csvOut("fig13_"+fam+".csv", func(w io.Writer) error {
				return bench.WriteFig13CSV(w, rows, cfg.MinSups)
			}); err != nil {
				return err
			}
		}
		return nil
	})
	run("fig14", func() error {
		rows, err := env.Fig14()
		if err != nil {
			return err
		}
		fprintf(stdout, "%s", bench.RenderFig14(rows))
		return csvOut("fig14.csv", func(w io.Writer) error {
			return bench.WriteFig14CSV(w, rows)
		})
	})
	run("fig15", func() error {
		rows, err := env.Fig15()
		if err != nil {
			return err
		}
		fprintf(stdout, "%s", bench.RenderFig15(rows))
		return csvOut("fig15.csv", func(w io.Writer) error {
			return bench.WriteFig15CSV(w, rows)
		})
	})
	run("ablations", func() error {
		on, off, err := env.AblationFastPath("Flix02.xml")
		if err != nil {
			return err
		}
		fprintf(stdout, "%s", bench.RenderAblation("hash-tree fast path (Flix02, QTYPE1)", on, off))
		refined, plain, err := env.AblationRefinement("Flix02.xml")
		if err != nil {
			return err
		}
		fprintf(stdout, "%s", bench.RenderAblation("workload-refined joins (Flix02, QTYPE1)", refined, plain))
		paperQ2, product, err := env.AblationQ2Rewriting("Ged02.xml")
		if err != nil {
			return err
		}
		fprintf(stdout, "%s", bench.RenderAblation("SDG QTYPE2 procedure (Ged02)", paperQ2, product))
		full, layered, err := env.AblationFabricScan("Ged02.xml")
		if err != nil {
			return err
		}
		fprintf(stdout, "%s", bench.RenderAblation("fabric partial matching (Ged02, QTYPE3)", full, layered))
		inc, reb, err := env.AblationUpdate("Flix02.xml")
		if err != nil {
			return err
		}
		fprintf(stdout, "adaptation (Flix02): incremental=%v rebuild=%v\n", inc, reb)
		stored, naive, err := env.AblationExtentStorage("Ged02.xml")
		if err != nil {
			return err
		}
		fprintf(stdout, "extent storage (Ged02): T^R stored=%d edges, naive ΣT(p)=%d edges\n", stored, naive)
		return nil
	})
	run("concurrency", func() error {
		rep, err := env.Concurrency("Flix02.xml", []int{1, 2, 4, 8}, 4*cfg.NumQ1)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderConcurrency(rep))
		if *concJSON != "" {
			f, err := os.Create(*concJSON)
			if err != nil {
				return err
			}
			if err := bench.WriteConcurrencyJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("concurrency.json", func(w io.Writer) error {
			return bench.WriteConcurrencyJSON(w, rep)
		})
	})
	run("adapt-stall", func() error {
		rep, err := env.AdaptStall("shakes_all.xml", 4, 8)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderAdaptStall(rep))
		if *adptJSON != "" {
			f, err := os.Create(*adptJSON)
			if err != nil {
				return err
			}
			if err := bench.WriteAdaptStallJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("adaptstall.json", func(w io.Writer) error {
			return bench.WriteAdaptStallJSON(w, rep)
		})
	})
	run("join-kernel", func() error {
		rep, err := env.JoinKernel(nil)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderJoinKernel(rep))
		if *joinJSON != "" {
			f, err := os.Create(*joinJSON)
			if err != nil {
				return err
			}
			if err := bench.WriteJoinKernelJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("joinkernel.json", func(w io.Writer) error {
			return bench.WriteJoinKernelJSON(w, rep)
		})
	})
	run("planner", func() error {
		rep, err := env.Planner(nil)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderPlanner(rep))
		if *planJSON != "" {
			f, err := os.Create(*planJSON)
			if err != nil {
				return err
			}
			if err := bench.WritePlannerJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("planner.json", func(w io.Writer) error {
			return bench.WritePlannerJSON(w, rep)
		})
	})
	run("serve", func() error {
		rep, err := env.Serve("Flix02.xml", 4, 8, 32)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderServe(rep))
		if *srvJSON != "" {
			f, err := os.Create(*srvJSON)
			if err != nil {
				return err
			}
			if err := bench.WriteServeJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("serve.json", func(w io.Writer) error {
			return bench.WriteServeJSON(w, rep)
		})
	})
	run("shard", func() error {
		rep, err := env.Shard("shakes_all.xml", []int{1, 2, 4, 8}, 4, 8, 32)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderShard(rep))
		if *shrdJSON != "" {
			f, err := os.Create(*shrdJSON)
			if err != nil {
				return err
			}
			if err := bench.WriteShardJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("shard.json", func(w io.Writer) error {
			return bench.WriteShardJSON(w, rep)
		})
	})
	run("recovery", func() error {
		rep, err := env.Recovery("shakes_all.xml", 2)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderRecovery(rep))
		if *recJSON != "" {
			f, err := os.Create(*recJSON)
			if err != nil {
				return err
			}
			if err := bench.WriteRecoveryJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("recovery.json", func(w io.Writer) error {
			return bench.WriteRecoveryJSON(w, rep)
		})
	})
	run("drift", func() error {
		rep, err := env.Drift("Ged02.xml", 4, *drftPh)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderDrift(rep))
		if *drftJSON != "" {
			f, err := os.Create(*drftJSON)
			if err != nil {
				return err
			}
			if err := bench.WriteDriftJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("drift.json", func(w io.Writer) error {
			return bench.WriteDriftJSON(w, rep)
		})
	})
	run("footprint", func() error {
		rep, err := env.Footprint(nil, *ftpFast)
		if err != nil {
			return err
		}
		fprintf(stdout, "%s\n", bench.RenderFootprint(rep))
		if *ftpJSON != "" {
			f, err := os.Create(*ftpJSON)
			if err != nil {
				return err
			}
			if err := bench.WriteFootprintJSON(f, rep); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return csvOut("footprint.json", func(w io.Writer) error {
			return bench.WriteFootprintJSON(w, rep)
		})
	})
	run("explain", func() error {
		traces, err := env.ExplainTraces("Flix02.xml")
		if err != nil {
			return err
		}
		for _, tr := range traces {
			fprintf(stdout, "%s\n", tr.Text())
		}
		return nil
	})
	run("asr", func() error {
		for _, ds := range []string{"shakes_11.xml", "Flix02.xml", "Ged02.xml"} {
			cmp, err := env.CompareASR(ds)
			if err != nil {
				return err
			}
			fprintf(stdout, "%-18s ASR(relations=%d tuples=%d cost=%d fallbacks=%d %v)  APEX(cost=%d %v)  agreed=%v\n",
				cmp.Dataset, cmp.Relations, cmp.Tuples, cmp.ASRCost, cmp.ASRFallbacks,
				cmp.ASRElapsed.Round(time.Millisecond), cmp.APEXCost,
				cmp.APEXElapsed.Round(time.Millisecond), cmp.ResultsAgreed)
		}
		return nil
	})
	var firstErr error
	valid := make([]string, len(experiments))
	for i, e := range experiments {
		valid[i] = e.name
	}
	for name := range want {
		if !slices.Contains(valid, name) {
			return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(valid, ", "))
		}
	}
	fprintf(stdout, "apexbench: scale=%g q1=%d q2=%d q3=%d seed=%d\n\n",
		cfg.Scale, cfg.NumQ1, cfg.NumQ2, cfg.NumQ3, cfg.Seed)
	for _, e := range experiments {
		if !want[e.name] {
			continue
		}
		start := time.Now()
		if firstErr = e.fn(); firstErr != nil {
			break
		}
		fprintf(stdout, "[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if firstErr == nil && *metJSON != "" {
		f, err := os.Create(*metJSON)
		if err != nil {
			return err
		}
		if err := metrics.Default.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fprintf(stdout, "wrote metrics snapshot to %s\n", *metJSON)
	}
	if firstErr == nil && *memProf != "" {
		if err := writeMemProfile(*memProf); err != nil {
			return err
		}
	}
	return firstErr
}
