package tla

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
)

// Checkpoint/resume: a long exploration sealed to disk at a BFS level
// boundary and continued later — across an interrupt (^C writes a
// checkpoint when Options.CheckpointDir is set), or periodically every
// Options.CheckpointEvery levels. A checkpoint is a directory holding one
// generation of files plus MANIFEST.json:
//
//	g000000-arena.meta     fixed-width per-state records (parent, depth,
//	                       action, encoding location) — the arena's meta
//	g000000-arena.data     every arena segment's encoding bytes, in order
//	g000000-arena.edges    the arena's graph-edge records (RecordGraph
//	                       runs only): fixed 10-byte (from, action, to)
//	                       rows in append order, segment by segment
//	MANIFEST.json          counters, the frontier's ids, fingerprints of
//	                       the spec and options, and the file list
//
// The visited set is not written: it is derived state, rebuilt on resume
// from the arena's encodings, which hold every state.
//
// The manifest is written last, to a temp name, and renamed into place:
// a crash mid-checkpoint leaves the previous manifest (and its generation
// of files) intact, and a torn manifest is detected as invalid JSON and
// rejected with ErrBadCheckpoint. Each new checkpoint bumps the generation
// prefix and removes the superseded generation only after its manifest
// rename succeeded.
//
// Resume (Options.ResumeFrom) restores the counters (the degraded-memory
// flag included) and the arena, then rebuilds the visited set — each
// state's stored plain encoding, canonicalised under symmetry, under its
// id — and decodes the frontier's live states from their encodings
// (checkpointing implies the arena, which requires a BinaryDecoder spec
// state). A version-1 manifest also lists g000000-visited files, which are
// not read. The checkpoint directory itself is never modified by a resume,
// so one checkpoint can seed any number of runs. A checkpointed
// RecordGraph run also restores its edge records, so the resumed run's
// graph covers the whole exploration; resuming a graph run from a manifest
// written before edge recording existed is rejected with ErrBadCheckpoint.
//
// Because the engine checkpoints only level boundaries (a mid-expansion
// interrupt discards the level's candidates, whose side effects are
// confined to the merge phase that never ran), a resumed run re-expands
// the interrupted level from scratch and its verdict, Distinct,
// Transitions, Depth and Terminal counts are byte-identical to an
// uninterrupted run's — the property the resume tests pin down.

// ErrBadCheckpoint is the named error every checkpoint validation failure
// wraps: a torn or missing manifest, a spec/options mismatch, or data
// files inconsistent with the manifest.
var ErrBadCheckpoint = errors.New("tla: invalid or incompatible checkpoint")

// ckVersion is the manifest version this build writes: 2 since the visited
// file went. It reads version 1 too; builds that persisted the visited set
// reject version 2, where they would resume with an empty set.
const (
	ckVersion      = 2
	ckManifestName = "MANIFEST.json"
	ckMetaRecSize  = 22 // parent(4) depth(4) act(2) seg(4) off(4) n(4)
)

// ckManifest is the JSON manifest of one checkpoint generation. The 64-bit
// fingerprints are hex strings: JSON numbers are float64s and would
// silently lose their high bits.
type ckManifest struct {
	Version        int               `json:"version"`
	Spec           string            `json:"spec"`
	SpecFP         string            `json:"spec_fp"`
	OptionsFP      string            `json:"options_fp"`
	Meta           map[string]string `json:"meta,omitempty"`
	Gen            int               `json:"gen"`
	Levels         int               `json:"levels"`
	Distinct       int               `json:"distinct"`
	Transitions    int               `json:"transitions"`
	Depth          int               `json:"depth"`
	Terminal       int               `json:"terminal"`
	ConstraintCuts int               `json:"constraint_cuts"`
	Degraded       bool              `json:"degraded_memory,omitempty"`
	Frontier       []int             `json:"frontier"`
	Actions        []string          `json:"actions"`
	SegSizes       []int             `json:"seg_sizes"`
	MetaFile       string            `json:"meta_file"`
	DataFile       string            `json:"data_file"`
	// Graph-edge records of a RecordGraph run; absent (EdgesFile empty) in
	// manifests of non-graph runs and in manifests written before edge
	// recording existed.
	EdgeSegSizes []int    `json:"edge_seg_sizes,omitempty"`
	EdgesFile    string   `json:"edges_file,omitempty"`
	EdgeCount    int      `json:"edge_count,omitempty"`
	Inits        []int    `json:"inits,omitempty"`
	Files        []string `json:"files"`
}

// checkpointer tracks one run's checkpoint directory and generation
// sequence; prev holds the superseded generation's files, removed after
// the next manifest rename lands.
type checkpointer struct {
	fsys FS
	em   *engineMetrics // nil-safe observability sink
	dir  string
	gen  int
	prev []string
}

func newCheckpointer(opts Options) *checkpointer {
	return &checkpointer{fsys: resolveFS(opts.FS), dir: opts.CheckpointDir}
}

// specFingerprint hashes the spec's checkable shape — name, action and
// invariant names, constraint and symmetry presence — so a resume against
// a structurally different spec is rejected instead of replayed into
// nonsense. (Callback bodies cannot be hashed; renaming-preserving edits
// to a spec's logic are the user's responsibility, as with TLC.)
func specFingerprint[S State](spec *Spec[S]) uint64 {
	var b []byte
	add := func(s string) {
		b = append(b, s...)
		b = append(b, 0)
	}
	add(spec.Name)
	for _, a := range spec.Actions {
		add("a:" + a.Name)
	}
	for _, inv := range spec.Invariants {
		add("i:" + inv.Name)
	}
	if spec.Constraint != nil {
		add("constraint")
	}
	if spec.SymmetryVisitor != nil {
		add("symmetry")
	}
	return fnv1a64(b)
}

// optionsFingerprint hashes the options that change what a run explores or
// how states are encoded; worker counts and budgets may differ
// between the checkpointing and the resuming run without affecting the
// result, so they are deliberately not hashed. PartialOrder is: a pruned
// run's frontier and visited set describe the reduced space, and resuming
// them unpruned (or vice versa) would silently explore neither space. The
// constants maxdepth=0 and forcekey=false are the slots of the retired
// MaxDepth and ForceKeyEncoding options, kept so checkpoints and verdict
// caches written before their removal keep their fingerprints.
func optionsFingerprint(o Options) uint64 {
	return fnv1a64([]byte(fmt.Sprintf("maxstates=%d;maxdepth=0;forcekey=false;por=%t", o.MaxStates, o.PartialOrder)))
}

// Fingerprint hashes the result-shaping options — the exact hash checkpoint
// manifests record as options_fp, so two option sets with equal
// fingerprints produce interchangeable verdicts (and resumable
// checkpoints) for the same spec. Worker counts, budgets and
// checkpoint paths deliberately do not contribute; see the manifest
// validation in resumeRun. Exported for verdict caches keyed on
// (spec, config, options) — see internal/checkd.
func (o Options) Fingerprint() uint64 { return optionsFingerprint(o) }

// writeCheckpoint seals the run's state at a level boundary into ck's
// directory as a fresh generation. On any failure this generation's files
// are removed and the previous checkpoint stays valid.
func writeCheckpoint[S State](ck *checkpointer, spec *Spec[S], opts Options, ret *retainer[S], res *Result[S], frontier []int, level int) (string, error) {
	a := ret.arena // checkpointing implies the arena
	fsys := ck.fsys
	if err := ck.em.retry("checkpoint", func() error { return fsys.MkdirAll(ck.dir) }); err != nil {
		return "", err
	}
	prefix := fmt.Sprintf("g%06d-", ck.gen)
	var files []string
	cleanup := func() {
		for _, f := range files {
			fsys.Remove(filepath.Join(ck.dir, f))
		}
	}

	metaName := prefix + "arena.meta"
	if err := ck.em.retry("checkpoint", func() error { return writeArenaMeta(fsys, filepath.Join(ck.dir, metaName), a) }); err != nil {
		return "", err
	}
	files = append(files, metaName)

	dataName := prefix + "arena.data"
	if err := ck.em.retry("checkpoint", func() error { return writeArenaSegs(fsys, filepath.Join(ck.dir, dataName), a, a.segs) }); err != nil {
		cleanup()
		return "", err
	}
	files = append(files, dataName)

	var edgesName string
	if res.Graph != nil {
		edgesName = prefix + "arena.edges"
		if err := ck.em.retry("checkpoint", func() error { return writeArenaSegs(fsys, filepath.Join(ck.dir, edgesName), a, a.edgeSegs) }); err != nil {
			cleanup()
			return "", err
		}
		files = append(files, edgesName)
	}

	m := ckManifest{
		Version:        ckVersion,
		Spec:           spec.Name,
		SpecFP:         fmt.Sprintf("%016x", specFingerprint(spec)),
		OptionsFP:      fmt.Sprintf("%016x", optionsFingerprint(opts)),
		Meta:           opts.CheckpointMeta,
		Gen:            ck.gen,
		Levels:         level,
		Distinct:       ret.len(),
		Transitions:    res.Transitions,
		Depth:          res.Depth,
		Terminal:       res.Terminal,
		ConstraintCuts: res.ConstraintCuts,
		Degraded:       res.DegradedMemory || ret.degradedMemory(),
		Frontier:       append([]int(nil), frontier...),
		Actions:        append([]string(nil), ret.acts...),
		SegSizes:       segSizes(a.segs),
		MetaFile:       metaName,
		DataFile:       dataName,
		Files:          files,
	}
	if res.Graph != nil {
		m.EdgeSegSizes = segSizes(a.edgeSegs)
		m.EdgesFile = edgesName
		m.EdgeCount = a.edgeCount
		m.Inits = append([]int(nil), res.Graph.Inits...)
	}
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		cleanup()
		return "", err
	}
	blob = append(blob, '\n')
	tmp := filepath.Join(ck.dir, ckManifestName+".tmp")
	if err := ck.em.retry("checkpoint", func() error { return writeFileFS(fsys, tmp, blob) }); err != nil {
		cleanup()
		return "", err
	}
	// The rename is the commit point: before it the old manifest (and its
	// generation) is the checkpoint, after it the new one is.
	if err := ck.em.retry("checkpoint", func() error { return fsys.Rename(tmp, filepath.Join(ck.dir, ckManifestName)) }); err != nil {
		fsys.Remove(tmp)
		cleanup()
		return "", err
	}
	for _, f := range ck.prev {
		fsys.Remove(filepath.Join(ck.dir, f)) // superseded generation; best-effort
	}
	ck.prev = files
	ck.gen++
	return ck.dir, nil
}

// writeArenaMeta writes the arena's per-state records as fixed-width
// ckMetaRecSize rows, removing the partial file on any failure.
func writeArenaMeta(fsys FS, path string, a *stateArena) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		fsys.Remove(path)
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var buf [ckMetaRecSize]byte
	for id := range a.len() {
		m := a.rec(id)
		binary.LittleEndian.PutUint32(buf[0:], uint32(m.parent))
		binary.LittleEndian.PutUint32(buf[4:], uint32(m.depth))
		binary.LittleEndian.PutUint16(buf[8:], m.act)
		binary.LittleEndian.PutUint32(buf[10:], m.seg)
		binary.LittleEndian.PutUint32(buf[14:], m.off)
		binary.LittleEndian.PutUint32(buf[18:], m.n)
		if _, err := w.Write(buf[:]); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(path)
		return err
	}
	return nil
}

// readArenaMeta loads a checkpoint's per-state meta records. A missing
// file makes the checkpoint unusable, which no retry can mend, so it is
// reported as ErrBadCheckpoint; any other read error is left as it is.
func readArenaMeta(fsys FS, path string) ([]arenaMeta, error) {
	blob, err := readFileFS(fsys, path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: arena meta file %s: %v", ErrBadCheckpoint, path, err)
	}
	if err != nil {
		return nil, err
	}
	if len(blob)%ckMetaRecSize != 0 {
		return nil, fmt.Errorf("%w: arena meta file %s is torn (%d bytes)", ErrBadCheckpoint, path, len(blob))
	}
	meta := make([]arenaMeta, len(blob)/ckMetaRecSize)
	for i := range meta {
		rec := blob[i*ckMetaRecSize:]
		meta[i] = arenaMeta{
			parent: int32(binary.LittleEndian.Uint32(rec[0:])),
			depth:  int32(binary.LittleEndian.Uint32(rec[4:])),
			act:    binary.LittleEndian.Uint16(rec[8:]),
			seg:    binary.LittleEndian.Uint32(rec[10:]),
			off:    binary.LittleEndian.Uint32(rec[14:]),
			n:      binary.LittleEndian.Uint32(rec[18:]),
		}
	}
	return meta, nil
}

// segSizes lists the byte sizes of a segment list, in order.
func segSizes(segs []arenaSeg) []int {
	sizes := make([]int, len(segs))
	for i := range segs {
		sizes[i] = segs[i].size
	}
	return sizes
}

// writeArenaSegs streams the bytes of one of a's segment lists — the
// encodings or the edge records — in segment order into one file; the
// manifest's SegSizes or EdgeSegSizes delimit them on the way back in.
func writeArenaSegs(fsys FS, path string, a *stateArena, segs []arenaSeg) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		fsys.Remove(path)
		return err
	}
	var scratch []byte
	for i := range segs {
		scratch, err = a.readSeg(&segs[i], 0, segs[i].size, scratch[:0])
		if err != nil {
			return fail(err)
		}
		if _, err := f.Write(scratch); err != nil {
			return fail(err)
		}
	}
	if err := f.Close(); err != nil {
		fsys.Remove(path)
		return err
	}
	return nil
}

// readManifest loads and minimally validates dir's manifest, retrying
// transient read faults through em. Every failure — missing file, torn
// JSON, unknown version — wraps ErrBadCheckpoint.
func readManifest(fsys FS, em *engineMetrics, dir string) (*ckManifest, error) {
	var blob []byte
	err := em.retry("checkpoint", func() error {
		var rerr error
		blob, rerr = readFileFS(fsys, filepath.Join(dir, ckManifestName))
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrBadCheckpoint, ckManifestName, err)
	}
	var m ckManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("%w: torn or corrupt %s: %v", ErrBadCheckpoint, ckManifestName, err)
	}
	if m.Version != 1 && m.Version != ckVersion {
		return nil, fmt.Errorf("%w: manifest version %d, this build reads 1 and %d", ErrBadCheckpoint, m.Version, ckVersion)
	}
	return &m, nil
}

// CheckpointInfo is the caller-visible summary of a checkpoint directory:
// enough for a CLI to validate what it is resuming and to rebuild the spec
// from the Meta blob it stored when checkpointing.
type CheckpointInfo struct {
	Spec        string            // Spec.Name of the checkpointing run
	Meta        map[string]string // Options.CheckpointMeta, verbatim
	Distinct    int               // distinct states at the checkpoint
	Transitions int               // transitions examined at the checkpoint
	Depth       int               // BFS depth reached at the checkpoint
	Levels      int               // fully merged BFS levels
}

// ReadCheckpointInfo summarizes the checkpoint in dir without resuming it.
func ReadCheckpointInfo(dir string) (*CheckpointInfo, error) {
	m, err := readManifest(OSFS, nil, dir)
	if err != nil {
		return nil, err
	}
	return &CheckpointInfo{
		Spec:        m.Spec,
		Meta:        m.Meta,
		Distinct:    m.Distinct,
		Transitions: m.Transitions,
		Depth:       m.Depth,
		Levels:      m.Levels,
	}, nil
}

// restoreArena rebuilds the arena from a checkpoint: the meta records are
// checked against the manifest and loaded wholesale, and the data file —
// plus the edges file, when this run records a graph — is copied into a
// fresh spill file (the checkpoint directory is never written to by a
// resume), with every segment marked spilled at its cumulative offset. The
// copies run in fixed chunks at explicit offsets so transient read faults
// retry idempotently, through the arena's metrics sink.
func restoreArena(a *stateArena, fsys FS, dir string, m *ckManifest, graph bool) error {
	meta, err := readArenaMeta(fsys, filepath.Join(dir, m.MetaFile))
	if err != nil {
		return err
	}
	if len(meta) != m.Distinct {
		return fmt.Errorf("%w: arena meta holds %d states, manifest says %d", ErrBadCheckpoint, len(meta), m.Distinct)
	}
	if slices.ContainsFunc(m.SegSizes, func(sz int) bool { return sz < 0 }) {
		return fmt.Errorf("%w: negative arena segment size", ErrBadCheckpoint)
	}
	a.setLen(len(meta))
	for id, r := range meta {
		// An encoding must lie inside its segment, a parent must precede
		// its child, and an action must be one the manifest interned.
		inSeg := r.n == 0 || int(r.seg) < len(m.SegSizes) && uint64(r.off)+uint64(r.n) <= uint64(m.SegSizes[r.seg])
		if !inSeg || r.parent < -1 || int(r.parent) >= id || int(r.act) >= len(m.Actions) {
			return fmt.Errorf("%w: arena meta record %d (parent %d, action %d, %d bytes at segment %d offset %d) does not fit the checkpoint",
				ErrBadCheckpoint, id, r.parent, r.act, r.n, r.seg, r.off)
		}
		*a.rec(id) = r
	}
	dataTotal := int64(0)
	for _, sz := range m.SegSizes {
		a.segs = append(a.segs, arenaSeg{fileOff: dataTotal, size: sz, spilled: true})
		dataTotal += int64(sz)
	}
	edgeTotal := int64(0)
	if graph {
		for _, sz := range m.EdgeSegSizes {
			a.edgeSegs = append(a.edgeSegs, arenaSeg{fileOff: dataTotal + edgeTotal, size: sz, spilled: true})
			edgeTotal += int64(sz)
		}
		a.edgeCount = m.EdgeCount
	}
	if dataTotal+edgeTotal == 0 {
		return nil
	}
	if err := a.createFile("checkpoint"); err != nil {
		return err
	}
	if err := copyIntoSpill(a, fsys, dir, m.DataFile, 0, dataTotal); err != nil {
		return err
	}
	if edgeTotal > 0 {
		if err := copyIntoSpill(a, fsys, dir, m.EdgesFile, dataTotal, edgeTotal); err != nil {
			return err
		}
	}
	a.fileSize = dataTotal + edgeTotal
	return nil
}

// copyIntoSpill copies length bytes of dir/name into the arena's spill file
// starting at dstOff, in 1MB chunks at explicit offsets.
func copyIntoSpill(a *stateArena, fsys FS, dir, name string, dstOff, length int64) error {
	if length == 0 {
		return nil
	}
	src, err := fsys.Open(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("%w: opening %s: %v", ErrBadCheckpoint, name, err)
	}
	defer src.Close()
	buf := make([]byte, 1<<20)
	for off := int64(0); off < length; {
		n := int64(len(buf))
		if length-off < n {
			n = length - off
		}
		err := a.em.retry("checkpoint", func() error {
			rn, rerr := src.ReadAt(buf[:n], off)
			if int64(rn) != n {
				if rerr == nil || errors.Is(rerr, io.EOF) {
					return fmt.Errorf("%w: checkpoint file %s is %d bytes short", ErrBadCheckpoint, name, length-off-int64(rn))
				}
				return rerr
			}
			_, werr := a.file.WriteAt(buf[:n], dstOff+off)
			return werr
		})
		if err != nil {
			return fmt.Errorf("%w: restoring %s: %v", ErrBadCheckpoint, name, err)
		}
		off += n
	}
	return nil
}

// restoreStates rebuilds from the restored arena what a checkpoint does
// not store, reading the encodings one stored segment at a time
// (stateArena.encodings): the visited set — each state's key (codec.key of its encoding) under its
// id, sealed by EndLevel after each segment once it charges past a budget,
// so it is fully resident without one and stays near one — and the live
// values of the frontier's states, decoded into the retainer's pages (the
// pages below the first stay nil, as dropBelow leaves the pages of
// expanded states) and queued on fr in the manifest's order. Two states
// with one key (one fingerprint, unkeyed) are a bad checkpoint. Runs spec
// callbacks; the caller brackets it with a guard.
func restoreStates[S State](cod *codec[S], ret *retainer[S], vs *visitedSet, frontier []int, fr *levelFrontier) error {
	a := ret.arena
	want := slices.Clone(frontier) // the frontier's ids left to decode, ascending
	slices.Sort(want)
	if len(want) > 0 {
		if lo, hi := want[0], want[len(want)-1]; lo < 0 || hi >= a.len() {
			return fmt.Errorf("%w: frontier references states %d..%d of %d", ErrBadCheckpoint, lo, hi, a.len())
		}
		ret.live = make(pages[S], want[0]>>pageBits)
		ret.reserve(a.len())
	}
	cur := -1 // the segment of the encodings being restored
	_, err := a.encodings(a.len(), func(id int) int { return id }, nil, func(id int, enc []byte) error {
		if m := a.rec(id); m.n > 0 && int(m.seg) != cur {
			if err := vs.EndLevel(); err != nil {
				return err
			}
			cur = int(m.seg)
		}
		for ; len(want) > 0 && want[0] == id; want = want[1:] {
			s, err := cod.dec(enc)
			if err != nil {
				return fmt.Errorf("%w: decoding state %d: %v", ErrBadCheckpoint, id, err)
			}
			*ret.live.at(id) = s
		}
		key, err := cod.key(enc)
		if err != nil {
			return fmt.Errorf("%w: decoding state %d: %v", ErrBadCheckpoint, id, err)
		}
		if prev, isNew := vs.own(stateFP(key), key, id); !isNew {
			return fmt.Errorf("%w: states %d and %d have the same key", ErrBadCheckpoint, prev, id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, id := range frontier {
		fr.Push(id)
	}
	return vs.EndLevel()
}

// resume restores the checkpoint at Options.ResumeFrom into the fresh run:
// validates the manifest against the spec and options, seeds the counters
// and the arena, rebuilds the visited set, and re-enqueues the frontier
// with reconstructed live values. Spec callbacks run under worker 0's
// guard: Init, which rebinds the decoder, as Init, and the rebuild's and
// the frontier's decoding as state encoding. Returns the BFS level the
// resumed loop continues from.
func (l *levelSync[S]) resume() (int, error) {
	spec, ret, res := l.spec, l.ret, l.res
	fsys := resolveFS(l.opts.FS)
	dir := l.opts.ResumeFrom
	m, err := readManifest(fsys, l.em, dir)
	if err != nil {
		return 0, err
	}
	switch {
	case m.Spec != spec.Name:
		return 0, fmt.Errorf("%w: checkpoint is of spec %q, resuming %q", ErrBadCheckpoint, m.Spec, spec.Name)
	case m.SpecFP != fmt.Sprintf("%016x", specFingerprint(spec)):
		return 0, fmt.Errorf("%w: spec %q changed shape since the checkpoint (actions/invariants/constraint/symmetry differ)", ErrBadCheckpoint, spec.Name)
	case m.OptionsFP != fmt.Sprintf("%016x", optionsFingerprint(l.opts)):
		return 0, fmt.Errorf("%w: MaxStates/PartialOrder differ from the checkpointing run", ErrBadCheckpoint)
	case len(m.Actions) != len(ret.acts):
		return 0, fmt.Errorf("%w: checkpoint interned %d action names, this spec %d", ErrBadCheckpoint, len(m.Actions), len(ret.acts))
	}
	for i, name := range m.Actions {
		if ret.acts[i] != name {
			return 0, fmt.Errorf("%w: action table mismatch at %d: %q vs %q", ErrBadCheckpoint, i, name, ret.acts[i])
		}
	}
	if res.Graph != nil && m.EdgesFile == "" {
		return 0, fmt.Errorf("%w: checkpoint predates arena edge recording, so RecordGraph cannot be served from it; resume without RecordGraph, or re-run the checkpointing run with it", ErrBadCheckpoint)
	}
	res.Transitions = m.Transitions
	res.Depth = m.Depth
	res.Terminal = m.Terminal
	res.ConstraintCuts = m.ConstraintCuts
	// A run that degraded before the checkpoint stays degraded: the
	// finalize defer only ever sets the flag, so later hops keep it too.
	res.DegradedMemory = m.Degraded
	if res.Graph != nil {
		res.Graph.Inits = append([]int(nil), m.Inits...)
	}
	if err := restoreArena(ret.arena, fsys, dir, m, res.Graph != nil); err != nil {
		return 0, err
	}
	// Rebind the decoder to a real initial state before decoding anything
	// (see BinaryDecoder).
	g := &l.xs[0].g
	g.enter(opInit, "", -1)
	inits := spec.Init()
	g.exit()
	if len(inits) > 0 {
		l.cod.bindDecoder(inits[0])
	}
	g.enter(opEncode, "", -1)
	err = restoreStates(l.cod, ret, l.vs, m.Frontier, &l.fr)
	g.exit()
	if err != nil {
		return 0, err
	}
	if ck := l.ck; ck != nil && ck.dir == dir {
		// Continuing to checkpoint into the same directory: pick up the
		// generation sequence, and let the next write supersede this one.
		ck.gen = m.Gen + 1
		ck.prev = m.Files
	}
	return m.Levels, nil
}
