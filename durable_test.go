package apex

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apex/internal/storage"
)

// durableDoc is a small document with reference structure, enough to make
// Insert/Delete/Adapt all meaningful.
const durableDoc = `<site>
  <people>
    <person id="p1"><name>Ann</name><watches ref="i1"/></person>
    <person id="p2"><name>Bob</name><watches ref="i2"/></person>
  </people>
  <items>
    <item id="i1"><title>clock</title></item>
    <item id="i2"><title>lamp</title></item>
  </items>
</site>`

func openDurableDoc(t *testing.T) *Index {
	t.Helper()
	ix, err := Open(strings.NewReader(durableDoc), &Options{IDREFAttrs: []string{"ref"}})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// allOps is the length of applyOps' full history.
const allOps = 10

// applyOps drives a fixed write history through the facade; both the
// durable index and the reference rebuild use it, so fingerprints compare
// identical histories.
func applyOps(t *testing.T, ix *Index, upTo int) {
	t.Helper()
	ops := []func() error{
		func() error { return ix.Insert("//people", `<person id="p3"><name>Cyd</name></person>`) },
		func() error { return ix.AdaptTo([]string{"//people/person/name", "//people/person/name"}, 0.4) },
		func() error { return ix.Insert("//items", `<item id="i3"><title>chair</title></item>`) },
		func() error { return ix.Delete("//items/item/title") },
		func() error {
			return ix.Insert("/", `<extra><note>tail</note></extra>`)
		},
		// Past the five ops most tests drive: the cases delta maintenance
		// treats differently, for the crash harness to replay. A fragment
		// with a reference to a pre-existing ID, a fragment-local ID with a
		// reference to it, and a label the document has never seen.
		func() error {
			return ix.Insert("//people", `<person id="p9"><name>Eve</name><watches ref="i2"/><pal ref="p9"/></person>`)
		},
		// A delete of reference targets (the watches attributes stop
		// dereferencing): retracted as a delta.
		func() error { return ix.Delete("//items/item") },
		func() error { return ix.Insert("//items", `<item id="i7"><title>desk</title></item>`) },
		func() error { return ix.Insert("//people", `<person id="p7"><watches ref="i7"/></person>`) },
		// A delete of subtrees one of which holds a reference out to a
		// surviving node (p7's watches points at i7): the data-decided
		// re-derivation.
		func() error { return ix.Delete("//people/person/watches") },
	}
	if upTo > len(ops) {
		upTo = len(ops)
	}
	for i := 0; i < upTo; i++ {
		if err := ops[i](); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
}

// referenceIndex rebuilds the same state from scratch: fresh parse, same
// facade ops. Recovery must be indistinguishable from this.
func referenceIndex(t *testing.T, upTo int) *Index {
	t.Helper()
	ref := openDurableDoc(t)
	applyOps(t, ref, upTo)
	return ref
}

func mustQueryLen(t *testing.T, ix *Index, q string) int {
	t.Helper()
	res, err := ix.Query(q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	return res.Len()
}

// TestPersistRecoverCleanRestart: checkpoint with an empty tail reopens to
// the identical structure.
func TestPersistRecoverCleanRestart(t *testing.T) {
	dir := t.TempDir()
	ix := openDurableDoc(t)
	applyOps(t, ix, 2)
	if err := ix.Persist(dir); err != nil {
		t.Fatal(err)
	}
	want := ix.Fingerprint()
	gen := ix.Generation()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := RecoverDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint differs from persisted index:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if re.Generation() != gen {
		t.Fatalf("generation = %d, want %d", re.Generation(), gen)
	}
	st, ok := re.DurabilityStats()
	if !ok {
		t.Fatal("recovered index not durable")
	}
	if st.ReplayedRecords != 0 {
		t.Fatalf("clean restart replayed %d records, want 0", st.ReplayedRecords)
	}
	if got := mustQueryLen(t, re, "//people/person/name"); got != 3 {
		t.Fatalf("//people/person/name = %d nodes, want 3", got)
	}
}

// TestPersistRecoverCompressed: a checkpoint written under CompressExtents
// stores packed segments, recovery loads them straight into the compressed
// serving form, and the recovered index is indistinguishable from the
// persisted one — including a WAL tail replayed on top.
func TestPersistRecoverCompressed(t *testing.T) {
	dir := t.TempDir()
	// Enough repeated structure that the hot extents clear the pack
	// threshold and actually serve compressed.
	var doc strings.Builder
	doc.WriteString("<site><people>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&doc, `<person id="q%d"><name>n%d</name></person>`, i, i)
	}
	doc.WriteString("</people><items>")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&doc, `<item id="j%d"><title>t%d</title></item>`, i, i)
	}
	doc.WriteString("</items></site>")
	ix, err := Open(strings.NewReader(doc.String()),
		&Options{IDREFAttrs: []string{"ref"}, CompressExtents: true})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, 2)
	if err := ix.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert("//items", `<item id="i3"><title>chair</title></item>`); err != nil {
		t.Fatal(err)
	}
	want := ix.Fingerprint()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest's recorded options must select the packed decode path.
	st, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Packed) == 0 || len(st.Segments) != 0 {
		t.Fatalf("recovered state: %d packed, %d flat segments; want packed only",
			len(st.Packed), len(st.Segments))
	}

	re, err := RecoverDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint differs:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	rs := re.Stats()
	if rs.CompressedExtents == 0 || rs.ExtentBytes == 0 {
		t.Fatalf("recovered index not serving compressed extents: %+v", rs)
	}
	if got := mustQueryLen(t, re, "//people/person/name"); got != 51 {
		t.Fatalf("//people/person/name = %d nodes, want 51", got)
	}
}

// TestRecoverReplaysWALTail: writes after the checkpoint are journaled and
// replayed; the recovered index is byte-identical to a reference rebuild of
// the full history.
func TestRecoverReplaysWALTail(t *testing.T) {
	dir := t.TempDir()
	ix := openDurableDoc(t)
	if err := ix.Persist(dir); err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, 5) // all journaled on top of the checkpoint
	want := ix.Fingerprint()
	gen := ix.Generation()
	ix.Close() // flushes; a real crash is exercised in crash_test.go

	re, err := RecoverDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Fingerprint(); got != want {
		t.Fatalf("recovered fingerprint differs from pre-crash index")
	}
	if got := referenceIndex(t, 5).Fingerprint(); got != want {
		t.Fatalf("reference rebuild fingerprint differs from pre-crash index")
	}
	if re.Generation() != gen {
		t.Fatalf("generation = %d, want %d", re.Generation(), gen)
	}
	st, _ := re.DurabilityStats()
	if st.ReplayedRecords != 5 {
		t.Fatalf("replayed %d records, want 5", st.ReplayedRecords)
	}
	// Recovery rotates the tail into a fresh WAL rather than paying for a
	// full checkpoint: a second recovery replays the same records onto the
	// same checkpoint and lands on the same state.
	re.Close()
	re2, err := RecoverDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := re2.DurabilityStats()
	if st2.ReplayedRecords != 5 {
		t.Fatalf("second recovery replayed %d records, want 5 (rotated tail)", st2.ReplayedRecords)
	}
	if re2.Fingerprint() != want {
		t.Fatal("second recovery fingerprint differs")
	}
	// An explicit checkpoint folds the tail; only then does a restart
	// replay nothing.
	if err := re2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	re2.Close()
	re3, err := RecoverDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re3.Close()
	st3, _ := re3.DurabilityStats()
	if st3.ReplayedRecords != 0 {
		t.Fatalf("post-checkpoint recovery replayed %d records, want 0", st3.ReplayedRecords)
	}
	if re3.Fingerprint() != want {
		t.Fatal("post-checkpoint recovery fingerprint differs")
	}
}

// TestRecoverAnyWALPrefix: every prefix of the journaled history is a valid
// recovery point — truncating the WAL at each record boundary yields
// exactly the state of the reference rebuild with that many ops, and the
// result is publishable (serves queries, accepts further writes).
func TestRecoverAnyWALPrefix(t *testing.T) {
	dir := t.TempDir()
	ix := openDurableDoc(t)
	if err := ix.Persist(dir); err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, 5)
	ix.Close()

	m, err := storage.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, m.WAL)
	walData, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	info, err := storage.ReplayWALFile(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 5 || info.Truncated {
		t.Fatalf("full wal: %d records truncated=%v, want 5 clean", info.Records, info.Truncated)
	}

	// Offsets[i] is the boundary after record i; prepend the header-only
	// prefix (8 bytes of magic) for the zero-op case.
	boundaries := append([]int64{8}, info.Offsets...)
	for k, end := range boundaries {
		prefixDir := t.TempDir()
		copyDir(t, dir, prefixDir)
		if err := os.WriteFile(filepath.Join(prefixDir, m.WAL), walData[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := RecoverDir(prefixDir, "", nil)
		if err != nil {
			t.Fatalf("prefix %d (%d bytes): %v", k, end, err)
		}
		want := referenceIndex(t, k).Fingerprint()
		if got := re.Fingerprint(); got != want {
			t.Fatalf("prefix %d: recovered fingerprint differs from %d-op reference", k, k)
		}
		// Publishable: serves queries and accepts a further journaled write.
		if got := mustQueryLen(t, re, "//people/person"); got < 2 {
			t.Fatalf("prefix %d: //people/person = %d nodes", k, got)
		}
		if err := re.Insert("//people", `<person id="px"><name>Zed</name></person>`); err != nil {
			t.Fatalf("prefix %d: insert after recovery: %v", k, err)
		}
		re.Close()
	}
}

// TestSaveRequiresLegacyFlag: the monolithic dump is gated; Load still
// reads dumps written with the flag set.
func TestSaveRequiresLegacyFlag(t *testing.T) {
	ix := openDurableDoc(t)
	if err := ix.Save(os.Stdout); err == nil {
		t.Fatal("Save without AllowLegacyDump should fail")
	} else if !strings.Contains(err.Error(), "AllowLegacyDump") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestLegacyDumpMigration: RecoverDir on a fresh directory with a dump
// migrates it; reopening with the same dump agrees; a diverged dump or an
// unknown dump is a hard error, not a fallback.
func TestLegacyDumpMigration(t *testing.T) {
	base := t.TempDir()
	dump := filepath.Join(base, "index.apex")
	ix, err := Open(strings.NewReader(durableDoc), &Options{
		IDREFAttrs: []string{"ref"}, AllowLegacyDump: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want := ix.Fingerprint()

	dir := filepath.Join(base, "durable")
	mig, err := RecoverDir(dir, dump, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mig.Fingerprint(); got != want {
		t.Fatal("migrated index fingerprint differs from dump")
	}
	mig.Close()

	// Reopen with the same dump: lineage agrees, proceeds from the manifest.
	re, err := RecoverDir(dir, dump, nil)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()

	// Diverge the dump: recovery must refuse, not pick a side.
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dump, append(data, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverDir(dir, dump, nil); err == nil {
		t.Fatal("diverged dump should be rejected")
	} else if !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("unhelpful divergence error: %v", err)
	}

	// A dump the manifest has never heard of is equally an error.
	other := filepath.Join(base, "other.apex")
	if err := os.WriteFile(other, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dir2 := filepath.Join(base, "durable2")
	mig2, err := RecoverDir(dir2, other, nil)
	if err != nil {
		t.Fatal(err)
	}
	mig2.Close()
	// dir2's manifest records other.apex; point it at the original dump,
	// which has diverged (extra byte) — same refusal.
	if _, err := RecoverDir(dir2, dump, nil); err == nil {
		t.Fatal("foreign dump should be rejected")
	}
}

// TestRecoverDirMissing: no manifest and no dump is ErrNoManifest, so
// callers can fall back to building from source.
func TestRecoverDirMissing(t *testing.T) {
	if _, err := RecoverDir(t.TempDir(), "", nil); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("err = %v, want ErrNoManifest", err)
	}
}

// TestCheckpointCollapsesTail: an explicit Checkpoint folds journaled
// writes into the manifest and rotates the WAL.
func TestCheckpointCollapsesTail(t *testing.T) {
	dir := t.TempDir()
	ix := openDurableDoc(t)
	if err := ix.Persist(dir); err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, 3)
	st, _ := ix.DurabilityStats()
	if st.WALRecords != 3 {
		t.Fatalf("wal records = %d, want 3", st.WALRecords)
	}
	if err := ix.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, _ = ix.DurabilityStats()
	if st.WALRecords != 0 {
		t.Fatalf("wal records after checkpoint = %d, want 0", st.WALRecords)
	}
	if st.CheckpointSeq != 2 {
		t.Fatalf("checkpoint seq = %d, want 2", st.CheckpointSeq)
	}
	want := ix.Fingerprint()
	ix.Close()
	re, err := RecoverDir(dir, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Fingerprint() != want {
		t.Fatal("post-checkpoint recovery fingerprint differs")
	}
	// The old checkpoint's files are swept: only the current generation
	// remains on disk.
	m, err := storage.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	alive := m.Files()
	for _, e := range entries {
		if !alive[e.Name()] {
			t.Fatalf("orphan %s survived checkpoint sweep", e.Name())
		}
	}
}

// copyDir clones the flat durable directory for prefix experiments.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
