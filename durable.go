package apex

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"apex/internal/core"
	"apex/internal/metrics"
	"apex/internal/storage"
	"apex/internal/xmlgraph"
)

// Durable persistence replaces the monolithic Save/Load dump with a
// checkpoint directory:
//
//	MANIFEST.json          durability root, swapped atomically
//	graph-%08d.bin         the data graph (xmlgraph binary wire form)
//	structure-%08d.gob     G_APEX nodes/edges + H_APEX, extents elided
//	extents-%08d.seg       frozen extent columns, delta-encoded
//	wal-%08d.log           writes journaled since the checkpoint
//
// Every Insert/Delete/Adapt/AdaptTo on a durable index appends one WAL
// record (fsynced, group-committed) before the in-memory publication, so
// RecoverDir can rebuild the exact published state: open the last
// checkpoint, replay the WAL tail onto it, publish by pointer swap. The
// burst of journaled writes costs one shadow-decoded rebuild on replay, not
// one full dump per write. See DESIGN.md's file-format appendix.

// ErrNoManifest reports that RecoverDir found no manifest in the directory.
var ErrNoManifest = errors.New("apex: no manifest in directory")

var (
	mJournaledWrites = metrics.Default.Counter("apex.durable.journaled_writes_total")
	mCheckpoints     = metrics.Default.Counter("apex.durable.checkpoints_total")
	mCheckpointNS    = metrics.Default.Histogram("apex.durable.checkpoint_ns")
	mSegmentBytes    = metrics.Default.Gauge("apex.durable.segment_bytes")
	mCheckpointBytes = metrics.Default.Gauge("apex.durable.checkpoint_bytes")
	mReplayedWrites  = metrics.Default.Counter("apex.durable.replayed_writes_total")
	mWALRotations    = metrics.Default.Counter("apex.durable.wal_rotations_total")
)

// durableState is the persistence attachment of an Index. The WAL pointer
// and sequence fields are mutated only under the index's maintMu;
// statsMu additionally guards them for concurrent DurabilityStats readers.
type durableState struct {
	dir string

	statsMu          sync.Mutex
	wal              *storage.WAL
	seq              int64 // checkpoint sequence, embedded in file names
	manifest         *storage.Manifest
	checkpointBytes  int64 // graph + structure + segment bytes of the last checkpoint
	segmentBytes     int64 // segment-file bytes of the last checkpoint
	lastCheckpointNS int64
	replayed         int64 // WAL records replayed when this index was recovered
	tailTruncated    bool  // recovery found (and dropped) a torn WAL tail
	closed           bool
}

// DurabilityStats describes the persistence attachment of a durable index.
type DurabilityStats struct {
	Dir              string `json:"dir"`
	Generation       uint64 `json:"generation"`
	CheckpointSeq    int64  `json:"checkpoint_seq"`
	LastCheckpointNS int64  `json:"last_checkpoint_unix_ns"`
	CheckpointBytes  int64  `json:"checkpoint_bytes"`
	SegmentBytes     int64  `json:"segment_bytes"`
	WALRecords       int64  `json:"wal_records"`
	WALBytes         int64  `json:"wal_bytes"`
	ReplayedRecords  int64  `json:"replayed_records"`
	WALTailTruncated bool   `json:"wal_tail_truncated"`
}

// Durable reports whether the index journals to a checkpoint directory.
func (ix *Index) Durable() bool { return ix.dur != nil }

// DurabilityStats snapshots the persistence state; ok is false for an index
// without a durability attachment.
func (ix *Index) DurabilityStats() (DurabilityStats, bool) {
	d := ix.dur
	if d == nil {
		return DurabilityStats{}, false
	}
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	st := DurabilityStats{
		Dir:              d.dir,
		Generation:       ix.gen.Load(),
		CheckpointSeq:    d.seq,
		LastCheckpointNS: d.lastCheckpointNS,
		CheckpointBytes:  d.checkpointBytes,
		SegmentBytes:     d.segmentBytes,
		ReplayedRecords:  d.replayed,
		WALTailTruncated: d.tailTruncated,
	}
	if d.wal != nil {
		st.WALRecords, st.WALBytes = d.wal.Stats()
	}
	return st, true
}

// journal appends one WAL record and waits for it to be durable. Called on
// the write path under maintMu, after the shadow rebuild succeeded and
// before publication — a journaling failure aborts the write unpublished,
// so the log never trails the published state.
func (ix *Index) journal(rec storage.WALRecord) error {
	d := ix.dur
	if d == nil {
		return nil
	}
	d.statsMu.Lock()
	w, closed := d.wal, d.closed
	d.statsMu.Unlock()
	if closed || w == nil {
		return errors.New("apex: index closed")
	}
	if err := w.Append(rec); err != nil {
		return fmt.Errorf("apex: journal %s: %w", rec.Op, err)
	}
	mJournaledWrites.Inc()
	return nil
}

// Persist attaches a durability directory to the index and writes the
// initial checkpoint. Subsequent writes are journaled; call Checkpoint to
// fold them into a new checkpoint, and RecoverDir to reopen after a crash.
func (ix *Index) Persist(dir string) error {
	return ix.persist(dir, nil)
}

func (ix *Index) persist(dir string, legacy *storage.FileRef) error {
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	if ix.dur != nil {
		return fmt.Errorf("apex: already durable in %s", ix.dur.dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ix.dur = &durableState{dir: dir}
	if err := ix.checkpointLocked(legacy); err != nil {
		ix.dur = nil
		return err
	}
	return nil
}

// Checkpoint folds the journaled writes into a fresh checkpoint: the
// published state is serialized next to the live one, a new WAL is started,
// and the manifest swap publishes both atomically. The old checkpoint's
// files are deleted only after the swap is durable; a crash anywhere leaves
// either checkpoint fully intact.
func (ix *Index) Checkpoint() error {
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	if ix.dur == nil {
		return errors.New("apex: index has no durability directory (call Persist)")
	}
	if ix.dur.closed {
		return errors.New("apex: index closed")
	}
	// Carry the recorded legacy-dump lineage across checkpoints.
	var legacy *storage.FileRef
	if ix.dur.manifest != nil {
		legacy = ix.dur.manifest.LegacyDump
	}
	return ix.checkpointLocked(legacy)
}

// checkpointLocked does the work of Checkpoint; callers hold maintMu.
func (ix *Index) checkpointLocked(legacy *storage.FileRef) error {
	start := time.Now()
	d := ix.dur
	idx, _, _ := ix.snapshot()
	gen := ix.gen.Load()
	seq := d.seq + 1
	graphName, structName, segName, walName := storage.CheckpointFileNames(seq)

	var gbuf bytes.Buffer
	if err := idx.Graph().Encode(&gbuf); err != nil {
		return fmt.Errorf("apex: checkpoint: graph: %w", err)
	}
	var sbuf bytes.Buffer
	if err := idx.EncodeStructure(&sbuf); err != nil {
		return fmt.Errorf("apex: checkpoint: structure: %w", err)
	}
	// Stream the extents one at a time: EachFrozenExtent decodes (or hands
	// over) a single extent's columns per call, so a compressed index never
	// materializes more than one flat extent while checkpointing.
	var segbuf bytes.Buffer
	sw, err := storage.NewSegmentWriter(&segbuf)
	if err != nil {
		return fmt.Errorf("apex: checkpoint: segment: %w", err)
	}
	err = idx.EachFrozenExtent(func(c core.ExtentColumns) error {
		return sw.Append(storage.SegmentExtent{ID: c.ID, ByFrom: c.ByFrom, ByTo: c.ByTo, Ends: c.Ends})
	})
	if err != nil {
		return fmt.Errorf("apex: checkpoint: %w", err)
	}
	if _, err := sw.Close(); err != nil {
		return fmt.Errorf("apex: checkpoint: segment: %w", err)
	}

	files := []struct {
		name string
		data []byte
	}{
		{graphName, gbuf.Bytes()},
		{structName, sbuf.Bytes()},
		{segName, segbuf.Bytes()},
	}
	refs := make([]storage.FileRef, len(files))
	for i, f := range files {
		if err := storage.WriteFileDurable(d.dir, f.name, f.data); err != nil {
			return fmt.Errorf("apex: checkpoint: %s: %w", f.name, err)
		}
		if refs[i], err = storage.RefFile(filepath.Join(d.dir, f.name)); err != nil {
			return fmt.Errorf("apex: checkpoint: %s: %w", f.name, err)
		}
	}

	newWAL, err := storage.CreateWAL(filepath.Join(d.dir, walName), ix.opts.NoSync)
	if err != nil {
		return fmt.Errorf("apex: checkpoint: wal: %w", err)
	}
	optsJSON, err := json.Marshal(ix.opts)
	if err != nil {
		newWAL.Close()
		return err
	}
	m := &storage.Manifest{
		Generation: gen,
		Checkpoint: seq,
		Graph:      refs[0],
		Structure:  refs[1],
		Segments:   []storage.FileRef{refs[2]},
		WAL:        walName,
		LegacyDump: legacy,
		Options:    optsJSON,
	}
	if err := storage.WriteManifest(d.dir, m); err != nil {
		newWAL.Close()
		return err
	}

	// The swap is durable: retire the previous checkpoint's files.
	d.statsMu.Lock()
	if d.wal != nil {
		d.wal.Close()
	}
	d.wal = newWAL
	d.seq = seq
	d.manifest = m
	d.checkpointBytes = refs[0].Bytes + refs[1].Bytes + refs[2].Bytes
	d.segmentBytes = refs[2].Bytes
	d.lastCheckpointNS = time.Now().UnixNano()
	d.statsMu.Unlock()
	if _, err := storage.SweepOrphans(d.dir, m); err != nil {
		return fmt.Errorf("apex: checkpoint: sweep: %w", err)
	}
	mCheckpoints.Inc()
	mCheckpointNS.Observe(time.Since(start).Nanoseconds())
	mSegmentBytes.Set(refs[2].Bytes)
	mCheckpointBytes.Set(refs[0].Bytes + refs[1].Bytes + refs[2].Bytes)
	return nil
}

// rotateWAL re-journals a replayed WAL tail into a fresh log file owned by
// this process and swaps the manifest to it, leaving the checkpoint files
// untouched. This is the cheap alternative to a full checkpoint on the
// recovery path: restart cost stays O(tail) instead of O(index), and the
// new log is appendable for subsequent journaled writes. The rotation
// consumes a sequence number so a later checkpoint can never collide with
// the live log's file name. Crash-safe like a checkpoint: until the
// manifest rename lands, the old manifest and old WAL still reign.
func (ix *Index) rotateWAL(tail []storage.WALRecord, noSync bool) error {
	ix.maintMu.Lock()
	defer ix.maintMu.Unlock()
	d := ix.dur
	seq := d.seq + 1
	_, _, _, walName := storage.CheckpointFileNames(seq)
	newWAL, err := storage.CreateWAL(filepath.Join(d.dir, walName), noSync)
	if err != nil {
		return fmt.Errorf("apex: recover: rotate wal: %w", err)
	}
	for _, rec := range tail {
		if err := newWAL.Append(rec); err != nil {
			newWAL.Close()
			return fmt.Errorf("apex: recover: rotate wal: %w", err)
		}
	}
	m := *d.manifest
	m.Generation = ix.gen.Load()
	m.Checkpoint = seq
	m.WAL = walName
	if err := storage.WriteManifest(d.dir, &m); err != nil {
		newWAL.Close()
		return fmt.Errorf("apex: recover: rotate wal: %w", err)
	}
	d.statsMu.Lock()
	if d.wal != nil {
		d.wal.Close()
	}
	d.wal = newWAL
	d.seq = seq
	d.manifest = &m
	d.statsMu.Unlock()
	// The old WAL is no longer referenced; sweep it with any other orphans.
	if _, err := storage.SweepOrphans(d.dir, &m); err != nil {
		return fmt.Errorf("apex: recover: sweep: %w", err)
	}
	mWALRotations.Inc()
	return nil
}

// Close releases the durability attachment (flushing and closing the WAL).
// A non-durable index closes as a no-op. The index itself remains queryable;
// further journaled writes fail.
func (ix *Index) Close() error {
	d := ix.dur
	if d == nil {
		return nil
	}
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.wal != nil {
		return d.wal.Close()
	}
	return nil
}

// Fingerprint renders a deterministic structural identity of the published
// index — summary graph, extents, and hash tree — for equality checks
// between a recovered index and a reference rebuild. Two indexes with equal
// fingerprints answer every query identically.
func (ix *Index) Fingerprint() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.idx.DumpGraph() + "\n--hash-tree--\n" + ix.idx.DumpHashTree()
}

// RecoverDir reopens a durable index directory: it loads the last published
// manifest, verifies every checkpoint file by size and CRC, decodes the
// graph, structure, and segment files, replays the WAL tail (each journaled
// write applied exactly as the original call was), and publishes the result.
// A torn WAL tail — the normal residue of a crash — is truncated and
// reported in DurabilityStats; corruption of any checkpoint file is an
// error.
//
// legacyDump optionally points at a monolithic Save dump. If the directory
// has no manifest yet, the dump is migrated: loaded, persisted as the first
// checkpoint, and recorded in the manifest lineage. If the directory HAS a
// manifest, the dump must be the recorded ancestor — a dump the manifest
// does not know, or one whose content diverged, is an error, never a silent
// fallback to either side.
//
// opts overrides the Options recorded in the manifest (nil keeps them).
func RecoverDir(dir, legacyDump string, opts *Options) (*Index, error) {
	st, err := storage.OpenDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			if legacyDump == "" {
				return nil, fmt.Errorf("%w: %s", ErrNoManifest, dir)
			}
			return migrateLegacyDump(dir, legacyDump)
		}
		return nil, err
	}
	if legacyDump != "" {
		if err := checkLegacyAgreement(st.Manifest, legacyDump); err != nil {
			return nil, err
		}
	}

	var o Options
	if opts != nil {
		o = *opts
	} else if len(st.Manifest.Options) > 0 {
		if err := json.Unmarshal(st.Manifest.Options, &o); err != nil {
			return nil, fmt.Errorf("apex: recover: manifest options: %w", err)
		}
	}

	ix, err := rebuildFromState(st, o)
	if err != nil {
		return nil, err
	}

	d := &durableState{
		dir:      dir,
		seq:      st.Manifest.Checkpoint,
		manifest: st.Manifest,
		replayed: int64(len(st.Tail)),
		segmentBytes: func() int64 {
			var n int64
			for _, s := range st.Manifest.Segments {
				n += s.Bytes
			}
			return n
		}(),
		tailTruncated: st.TailInfo.Truncated,
	}
	d.checkpointBytes = st.Manifest.Graph.Bytes + st.Manifest.Structure.Bytes + d.segmentBytes
	ix.dur = d
	if len(st.Tail) > 0 {
		// Rotate the WAL: re-journal the surviving tail into a fresh log
		// this process owns and swap the manifest to it. Log files are
		// written once and never appended to across process lifetimes (the
		// old file may end in a torn record), and rewriting a handful of
		// records keeps restart O(tail) — folding the tail into a full
		// checkpoint is deferred to the next explicit Checkpoint.
		if err := ix.rotateWAL(st.Tail, o.NoSync); err != nil {
			return nil, err
		}
	} else {
		// Nothing journaled since the checkpoint: recreate the (empty or
		// torn-to-empty) WAL in place and keep the manifest as-is.
		wal, err := storage.CreateWAL(st.WALPath(), o.NoSync)
		if err != nil {
			return nil, err
		}
		d.statsMu.Lock()
		d.wal = wal
		d.statsMu.Unlock()
	}
	return ix, nil
}

// OpenDirIndex is RecoverDir for callers with no legacy dump.
func OpenDirIndex(dir string, opts *Options) (*Index, error) {
	return RecoverDir(dir, "", opts)
}

// migrateLegacyDump seeds a fresh durability directory from a monolithic
// dump, recording the dump's identity in the manifest lineage so later
// opens can detect divergence.
func migrateLegacyDump(dir, legacyDump string) (*Index, error) {
	ref, err := storage.RefFile(legacyDump)
	if err != nil {
		return nil, fmt.Errorf("apex: recover: legacy dump: %w", err)
	}
	ix, err := LoadFile(legacyDump)
	if err != nil {
		return nil, err
	}
	if err := ix.persist(dir, &ref); err != nil {
		return nil, err
	}
	return ix, nil
}

// checkLegacyAgreement fails when the pointed-at dump is not the manifest's
// recorded ancestor, byte for byte.
func checkLegacyAgreement(m *storage.Manifest, legacyDump string) error {
	n, crc, err := storage.FileCRC(legacyDump)
	if err != nil {
		return fmt.Errorf("apex: recover: legacy dump %s: %w", legacyDump, err)
	}
	ld := m.LegacyDump
	if ld == nil {
		return fmt.Errorf("apex: recover: directory has a manifest but legacy dump %s is not in its lineage; refusing to guess which is current — open the directory without the dump, or remove the directory to re-migrate", legacyDump)
	}
	if ld.Bytes != n || ld.CRC != crc {
		return fmt.Errorf("apex: recover: manifest and legacy dump %s disagree (dump is %d bytes crc %08x, manifest recorded %d bytes crc %08x); refusing to guess which is current", legacyDump, n, crc, ld.Bytes, ld.CRC)
	}
	return nil
}

// rebuildFromState decodes the checkpoint files and replays the WAL tail,
// returning a published (but not yet durability-attached) index.
func rebuildFromState(st *storage.RecoveredState, o Options) (*Index, error) {
	gf, err := os.Open(st.GraphPath())
	if err != nil {
		return nil, err
	}
	g, err := xmlgraph.DecodeGraph(bufio.NewReader(gf))
	gf.Close()
	if err != nil {
		return nil, fmt.Errorf("apex: recover: %s: %w", st.Manifest.Graph.Name, err)
	}

	// Segments arrive flat or block-compressed depending on the options the
	// manifest recorded (storage.OpenDir decoded them accordingly); either
	// way each becomes a frozen EdgeSet served as-is. If the caller's
	// options override the recorded form, the decode's publication pass
	// converts every extent once.
	extents := make(map[int]*core.EdgeSet, len(st.Segments)+len(st.Packed))
	for _, seg := range st.Segments {
		if _, dup := extents[seg.ID]; dup {
			return nil, fmt.Errorf("apex: recover: duplicate extent %d across segments", seg.ID)
		}
		extents[seg.ID] = core.NewFrozenEdgeSet(seg.ByFrom, seg.ByTo, seg.Ends)
	}
	for _, seg := range st.Packed {
		if _, dup := extents[seg.ID]; dup {
			return nil, fmt.Errorf("apex: recover: duplicate extent %d across segments", seg.ID)
		}
		extents[seg.ID] = core.NewCompressedEdgeSet(seg.ByFrom, seg.ByTo, seg.Ends)
	}

	sf, err := os.Open(st.StructurePath())
	if err != nil {
		return nil, err
	}
	idx, err := core.DecodeStructureCompress(bufio.NewReader(sf), g, extents, o.CompressExtents)
	sf.Close()
	if err != nil {
		return nil, fmt.Errorf("apex: recover: %s: %w", st.Manifest.Structure.Name, err)
	}
	idx.SetWorkers(o.buildWorkers())

	// Replay the journaled writes exactly as the facade applied them — the
	// same per-operation delta (applyInsert/applyDelete) or Update, so
	// summary-node identity evolves identically to the original process and
	// a replayed record costs what the original write did. The data table,
	// evaluator and publication happen once after the whole tail.
	buildOpts := o.buildOptions()
	for i, rec := range st.Tail {
		if err := applyWALRecord(idx, g, rec, buildOpts); err != nil {
			return nil, fmt.Errorf("apex: recover: wal record %d (%s): %w", i, rec.Op, err)
		}
		mReplayedWrites.Inc()
	}

	dt, err := storage.BuildDataTable(g, 0, 64)
	if err != nil {
		return nil, err
	}
	ix := &Index{idx: idx, dt: dt, eval: newEvaluator(idx, dt, o), opts: o}
	ix.gen.Store(st.Manifest.Generation + uint64(len(st.Tail)))
	return ix, nil
}

// applyWALRecord applies one journaled write to a not-yet-published index.
// A record that fails to apply is corruption — it applied cleanly when it
// was journaled — so the caller surfaces the error instead of skipping.
func applyWALRecord(idx *core.APEX, g *xmlgraph.Graph, rec storage.WALRecord, buildOpts *xmlgraph.BuildOptions) error {
	switch rec.Op {
	case storage.WALInsert:
		return applyInsert(idx, g, rec.Parent, rec.Fragment, buildOpts)
	case storage.WALDelete:
		_, err := applyDelete(idx, g, rec.Targets)
		return err
	case storage.WALAdapt:
		idx.ExtractFrequentPaths(rec.Paths, rec.MinSup)
		idx.Update()
	default:
		return fmt.Errorf("unknown op %d", rec.Op)
	}
	return nil
}
