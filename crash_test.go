package apex

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"apex/internal/storage"
)

// TestCrashInjection is the kill-at-random-offset harness the CI crash job
// runs: it damages a durable directory the way a crash can (torn WAL tail,
// interrupted checkpoint, torn manifest rename) and asserts recovery lands
// on a state byte-identical to a reference rebuild of the surviving write
// prefix — or fails loudly when the damage is real corruption a crash
// cannot cause. The RNG is seeded deterministically so failures reproduce.
func TestCrashInjection(t *testing.T) {
	// One durable directory with the whole write history as its WAL tail —
	// inserts and deletes that replay as deltas, one delete that re-derives,
	// one adapt — built once and cloned per trial.
	srcDir := t.TempDir()
	ix := openDurableDoc(t)
	if err := ix.Persist(srcDir); err != nil {
		t.Fatal(err)
	}
	applyOps(t, ix, allOps)
	if !ix.idx.LastWrite().Rederived {
		t.Fatal("setup: the history's last delete was meant to re-derive")
	}
	ix.Close()

	m, err := storage.LoadManifest(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	walData, err := os.ReadFile(filepath.Join(srcDir, m.WAL))
	if err != nil {
		t.Fatal(err)
	}
	info, err := storage.ReplayWALFile(filepath.Join(srcDir, m.WAL), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != allOps {
		t.Fatalf("setup: wal has %d records, want %d", info.Records, allOps)
	}

	// Fingerprints of every reference prefix, computed once.
	refFP := make([]string, allOps+1)
	for k := 0; k <= allOps; k++ {
		refFP[k] = referenceIndex(t, k).Fingerprint()
	}

	// survivingOps maps a WAL byte length to the number of ops replay will
	// keep: the longest record-boundary prefix at or below it.
	survivingOps := func(walLen int64) int {
		k := 0
		for i, off := range info.Offsets {
			if off <= walLen {
				k = i + 1
			}
		}
		return k
	}

	// recoverAndCheck recovers dir and asserts it equals the k-op
	// reference, stays queryable, and accepts further writes.
	recoverAndCheck := func(t *testing.T, dir string, k int) {
		re, err := RecoverDir(dir, "", nil)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer re.Close()
		if got := re.Fingerprint(); got != refFP[k] {
			t.Fatalf("recovered state differs from %d-op reference rebuild", k)
		}
		if got := mustQueryLen(t, re, "//people/person"); got < 2 {
			t.Fatalf("recovered index unqueryable: //people/person = %d", got)
		}
		if err := re.Insert("//people", `<person id="pz"><name>Liv</name></person>`); err != nil {
			t.Fatalf("recovered index rejects writes: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(0x5eed))

	t.Run("truncated-wal-tail", func(t *testing.T) {
		for trial := 0; trial < 12; trial++ {
			cut := int64(rng.Intn(len(walData) + 1)) // 0..full, header included
			dir := t.TempDir()
			copyDir(t, srcDir, dir)
			if err := os.WriteFile(filepath.Join(dir, m.WAL), walData[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			recoverAndCheck(t, dir, survivingOps(cut))
		}
	})

	t.Run("corrupted-wal-tail", func(t *testing.T) {
		for trial := 0; trial < 12; trial++ {
			// Flip one bit past the header: every record from the one
			// containing the flipped byte on must be dropped by its CRC.
			pos := 8 + rng.Intn(len(walData)-8)
			dir := t.TempDir()
			copyDir(t, srcDir, dir)
			damaged := append([]byte(nil), walData...)
			damaged[pos] ^= 1 << uint(rng.Intn(8))
			if err := os.WriteFile(filepath.Join(dir, m.WAL), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			// The record containing pos is the first one whose end offset
			// is past it; all before survive.
			k := 0
			for i, off := range info.Offsets {
				if off <= int64(pos) {
					k = i + 1
				}
			}
			recoverAndCheck(t, dir, k)
		}
	})

	t.Run("interrupted-checkpoint-orphans", func(t *testing.T) {
		// A crash mid-checkpoint leaves partially written next-generation
		// files while the old manifest still reigns. Recovery must ignore
		// them, and the next checkpoint must sweep them.
		dir := t.TempDir()
		copyDir(t, srcDir, dir)
		gname, sname, segname, wname := storage.CheckpointFileNames(99)
		junk := []byte("partial write, never fsynced")
		for _, n := range []string{gname, sname + ".tmp", segname, wname} {
			if err := os.WriteFile(filepath.Join(dir, n), junk, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re, err := RecoverDir(dir, "", nil)
		if err != nil {
			t.Fatalf("orphans broke recovery: %v", err)
		}
		if re.Fingerprint() != refFP[allOps] {
			t.Fatal("recovered state differs from the full-history reference")
		}
		// The tail replay collapsed into a checkpoint, which sweeps.
		for _, n := range []string{gname, sname + ".tmp", segname, wname} {
			if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
				t.Fatalf("orphan %s survived the post-recovery checkpoint", n)
			}
		}
		re.Close()
	})

	t.Run("torn-manifest-rename", func(t *testing.T) {
		// A crash between temp-write and rename leaves MANIFEST.json.tmp
		// (possibly garbage); the published manifest must win.
		dir := t.TempDir()
		copyDir(t, srcDir, dir)
		if err := os.WriteFile(filepath.Join(dir, storage.ManifestName+".tmp"),
			[]byte(`{"torn":`), 0o644); err != nil {
			t.Fatal(err)
		}
		recoverAndCheck(t, dir, allOps)
	})

	t.Run("corrupted-segment-fails-loudly", func(t *testing.T) {
		// Checkpoint files are fsynced before the manifest references them,
		// so damage here is disk corruption, not a crash artifact: recovery
		// must refuse with a CRC error rather than serve a wrong index.
		for _, victim := range []string{m.Segments[0].Name, m.Graph.Name, m.Structure.Name} {
			dir := t.TempDir()
			copyDir(t, srcDir, dir)
			path := filepath.Join(dir, victim)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[rng.Intn(len(data))] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = RecoverDir(dir, "", nil)
			if err == nil {
				t.Fatalf("corrupted %s recovered silently", victim)
			}
			if !strings.Contains(err.Error(), "CRC") && !strings.Contains(err.Error(), "mismatch") {
				t.Fatalf("corrupted %s: unhelpful error: %v", victim, err)
			}
		}
	})
}
