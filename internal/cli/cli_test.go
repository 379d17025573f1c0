package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunGenList(t *testing.T) {
	var out bytes.Buffer
	if err := RunGen([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Ged03.xml") {
		t.Fatalf("list output:\n%s", out.String())
	}
}

func TestRunGenUnknownDataset(t *testing.T) {
	var out bytes.Buffer
	if err := RunGen([]string{"-dataset", "nope.xml"}, &out); err == nil {
		t.Fatal("want error")
	}
}

// TestEndToEnd drives gen → build → query through temp files, the full
// CLI pipeline.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := RunGen([]string{
		"-dataset", "Flix01.xml", "-scale", "0.05", "-out", dir,
		"-q1", "50", "-q2", "10", "-q3", "10",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	xmlPath := filepath.Join(dir, "Flix01.xml")
	for _, p := range []string{xmlPath, xmlPath + ".q1", xmlPath + ".q2", xmlPath + ".q3"} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing output %s", p)
		}
	}

	idxPath := filepath.Join(dir, "flix.apex")
	out.Reset()
	err = RunBuild([]string{
		"-in", xmlPath, "-idref", "remake,sequel,actor",
		"-workload", xmlPath + ".q1", "-minsup", "0.01",
		"-out", idxPath, "-compare",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"APEX0:", "strong DataGuide:", "1-index:", "2-index:", "Index Fabric:", "saved index"} {
		if !strings.Contains(s, want) {
			t.Fatalf("build output missing %q:\n%s", want, s)
		}
	}

	out.Reset()
	err = RunQuery([]string{"-index", idxPath, "-q", "//movie/title", "-cost"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s = out.String()
	if !strings.Contains(s, "# //movie/title") || !strings.Contains(s, "# cost:") {
		t.Fatalf("query output:\n%s", s)
	}

	// Batch from the generated query file, quiet mode.
	out.Reset()
	err = RunQuery([]string{"-index", idxPath, "-f", xmlPath + ".q1", "-quiet"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "50 queries") {
		t.Fatalf("batch output:\n%s", out.String())
	}
}

func TestRunBuildErrors(t *testing.T) {
	var out bytes.Buffer
	if err := RunBuild(nil, &out); err == nil {
		t.Fatal("missing -in should fail")
	}
	if err := RunBuild([]string{"-in", "/nonexistent.xml"}, &out); err == nil {
		t.Fatal("missing file should fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.xml")
	os.WriteFile(bad, []byte("<a><b></a>"), 0o644)
	if err := RunBuild([]string{"-in", bad}, &out); err == nil {
		t.Fatal("malformed XML should fail")
	}
}

func TestRunQueryEngines(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "d.xml")
	os.WriteFile(xmlPath, []byte(`<db>
	  <movie id="m1" director="d1"><title>T1</title></movie>
	  <director id="d1"><name>N1</name></director>
	</db>`), 0o644)
	var outputs []string
	for _, engine := range []string{"apex", "apex0", "sdg", "1index", "2index"} {
		var out bytes.Buffer
		err := RunQuery([]string{
			"-xml", xmlPath, "-idref", "director", "-engine", engine,
			"-q", "//movie/title", "-cost",
		}, &out)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if !strings.Contains(out.String(), "T1") {
			t.Fatalf("engine %s missed the result:\n%s", engine, out.String())
		}
		outputs = append(outputs, out.String())
	}
	// Unknown engine fails cleanly.
	var out bytes.Buffer
	if err := RunQuery([]string{"-xml", xmlPath, "-engine", "nope", "-q", "//a"}, &out); err == nil {
		t.Fatal("unknown engine accepted")
	}
	// -index and -xml are mutually exclusive.
	if err := RunQuery([]string{"-xml", xmlPath, "-index", "x", "-q", "//a"}, &out); err == nil {
		t.Fatal("both inputs accepted")
	}
}

func TestRunQueryXMLWithWorkload(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "d.xml")
	os.WriteFile(xmlPath, []byte(`<db><a><b>v</b></a><a><b>w</b></a></db>`), 0o644)
	wlPath := filepath.Join(dir, "w.q1")
	os.WriteFile(wlPath, []byte("//a/b\n//a/b\n"), 0o644)
	var out bytes.Buffer
	err := RunQuery([]string{
		"-xml", xmlPath, "-workload", wlPath, "-minsup", "0.5",
		"-q", "//a/b", "-quiet", "-cost",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// The adapted index answers via the fast path: no joins.
	if !strings.Contains(out.String(), "join=0") {
		t.Fatalf("expected fast-path answer:\n%s", out.String())
	}
}

func TestRunQueryErrors(t *testing.T) {
	var out bytes.Buffer
	if err := RunQuery(nil, &out); err == nil {
		t.Fatal("missing flags should fail")
	}
	if err := RunQuery([]string{"-index", "/nonexistent.apex", "-q", "//a"}, &out); err == nil {
		t.Fatal("missing index should fail")
	}
	junk := filepath.Join(t.TempDir(), "junk.apex")
	os.WriteFile(junk, []byte("not an index"), 0o644)
	if err := RunQuery([]string{"-index", junk, "-q", "//a"}, &out); err == nil {
		t.Fatal("corrupt index should fail")
	}
}

func TestRunBenchSmall(t *testing.T) {
	var out bytes.Buffer
	err := RunBench([]string{
		"-scale", "0.01", "-q1", "40", "-q2", "8", "-q3", "10",
		"-experiments", "table1,fig14,asr",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Table 1:", "Figure 14:", "agreed=true", "[table1 completed"} {
		if !strings.Contains(s, want) {
			t.Fatalf("bench output missing %q:\n%s", want, s)
		}
	}
}

// A misspelt experiment used to be skipped in silence, exit 0; it must fail
// and name the valid ones before anything runs.
func TestRunBenchUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := RunBench([]string{"-experiments", "table1,tabel2"}, &out)
	if err == nil || !strings.Contains(err.Error(), `"tabel2"`) || !strings.Contains(err.Error(), "table2") {
		t.Fatalf("want an error naming the typo and the valid experiments, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("ran before validating: %q", out.String())
	}
}

func TestRunBenchCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := RunBench([]string{
		"-scale", "0.01", "-q1", "30", "-q2", "6", "-q3", "8",
		"-experiments", "table2,fig13,fig14,fig15", "-csv", dir,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table2.csv", "fig13_plays.csv", "fig13_flixml.csv",
		"fig13_gedml.csv", "fig14.csv", "fig15.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if !strings.Contains(string(data), "dataset,") {
			t.Fatalf("%s lacks header:\n%s", name, data)
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 3 {
			t.Fatalf("%s has too few rows", name)
		}
	}
}

func TestRunBenchBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := RunBench([]string{"-nosuchflag"}, &out); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestReadWorkloadSkipsQ2AndComments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.q1")
	os.WriteFile(path, []byte("# comment\n//a/b\n\n//a//b\n//c\n"), 0o644)
	wl, err := readWorkload(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl) != 2 || wl[0].String() != "a.b" || wl[1].String() != "c" {
		t.Fatalf("workload = %v", wl)
	}
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Fatalf("empty -> %v", got)
	}
	got := splitList("a, b ,c")
	if len(got) != 3 || got[1] != "b" {
		t.Fatalf("split = %v", got)
	}
}

func TestRunBenchShardJSON(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "BENCH_SHARD.json")
	var out bytes.Buffer
	err := RunBench([]string{
		"-scale", "0.01", "-q1", "40", "-q2", "8", "-q3", "10",
		"-experiments", "shard", "-shard-json", outPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hit-rate@4") {
		t.Fatalf("shard experiment output missing headline:\n%s", out.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "hit_rate_4shards") {
		t.Fatalf("artifact lacks the headline field:\n%s", data)
	}
}

func TestRunServeBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := RunServe([]string{"-nosuchflag"}, &out); err == nil {
		t.Fatal("bad flag should fail")
	}
}
