package checkpoint

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"jarvis/internal/wire"
)

// manifestName is the append-only index of snapshots in a store
// directory. Each line records one fully written snapshot:
//
//	v4 <id> <file> <seq> <watermark> <base> <f|d>       (full or delta)
//
// The version names the encoding of the listed files: lines of any other
// version ("v3" files hold float columns this build's decoder would
// misread, "v2" files integer columns it cannot read, "v1" lines predate
// deltas) are skipped like torn ones, so such a
// directory restores as empty and its files are overwritten as ids
// restart.
// A snapshot's manifest line is appended only after its file is fully
// written and closed, so every listed entry is complete; Latest still
// verifies by decoding and walks backwards past any entry (or
// base+delta chain) that fails.
const manifestName = "MANIFEST"

// Store is a durable append-only snapshot store rooted at one directory.
// Snapshots form a linear history: a delta snapshot extends the
// snapshot saved immediately before it (its BaseID), and restoring
// reconstructs the newest base + delta chain that decodes.
//
// Methods are safe for concurrent use: the HA publisher reads the
// newest chain (LatestWithID) from a replication-accept goroutine while
// the recovery manager's writer saves and compacts, and without the
// internal lock a concurrent Compact could unlink chain files mid-read.
type Store struct {
	mu  sync.Mutex
	dir string
	// Sync forces fsync on every save, surviving machine crashes at a
	// latency cost. Off by default: snapshots then survive process
	// crashes and restarts (the recovery subsystem's target fault model).
	Sync bool

	nextID uint64
	// enc is reused across saves so the frame writer's megabyte-scale
	// scratch is grown once, not per snapshot.
	enc encoder
	// fr is the store's one frame reader, and with it one columnar
	// decoder: strings repeated across the files of a chain and across
	// the snapshots Decode is handed (group keys, tenants) decode to one
	// allocation.
	fr  *wire.FrameReader
	src bytes.Reader
	// mf is the manifest held open for appending: at every-epoch
	// snapshot cadence, reopening it per save would double the save's
	// fixed syscall cost.
	mf *os.File
	// chain owns the base + delta policy of saves that go through it.
	chain Chain
}

// OpenStore opens (creating if needed) a snapshot store directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open store: %w", err)
	}
	s := &Store{dir: dir, nextID: 1, fr: wire.NewFrameReader(nil)}
	s.chain.store, s.chain.retain = s, DefaultRetain
	entries, err := s.entries()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.id >= s.nextID {
			s.nextID = e.id + 1
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Chain returns the store's base + delta chain.
func (s *Store) Chain() *Chain { return &s.chain }

// SetRetention sets how many base + delta chains the chain keeps when it
// compacts at a new base (default DefaultRetain; 0 disables pruning).
func (s *Store) SetRetention(n int) {
	s.chain.mu.Lock()
	s.chain.retain = n
	s.chain.mu.Unlock()
}

// SnapshotFileName returns the file name a snapshot id is stored under.
func SnapshotFileName(id uint64) string { return fmt.Sprintf("snap-%08d.ckpt", id) }

type manifestEntry struct {
	id    uint64
	file  string
	seq   uint64
	wm    int64
	base  uint64
	delta bool
}

func (s *Store) entries() ([]manifestEntry, error) {
	f, err := os.Open(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read manifest: %w", err)
	}
	defer f.Close()
	var out []manifestEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e manifestEntry
		var version string
		switch {
		case strings.HasPrefix(line, "v4 "):
			var kind string
			if _, err := fmt.Sscanf(line, "%s %d %s %d %d %d %s", &version, &e.id, &e.file, &e.seq, &e.wm, &e.base, &kind); err != nil {
				continue
			}
			if kind != "f" && kind != "d" {
				continue // torn line merged with a later append: skip
			}
			e.delta = kind == "d"
		default:
			continue // unknown version: skip
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// Save writes a snapshot durably and returns the id the store assigned
// it. The snapshot is encoded in memory — or not at all, when it still
// carries the bytes an earlier Save or Decode gave it — and remembers the
// bytes written, so replicating it does not encode it again. The file is
// written under its final name with one write and its manifest line is
// appended only after a successful close — a listed entry is therefore
// always a fully written file (a crash mid-write leaves an unlisted
// orphan, overwritten by the next incarnation since ids resume past the
// manifest's maximum). Delta snapshots record snap.BaseID in the manifest
// so restores can rebuild the chain.
func (s *Store) Save(snap *Snapshot) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := s.enc.encode(snap)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: encode snapshot: %w", err)
	}
	id := s.nextID
	name := SnapshotFileName(id)
	if err := s.writeFile(name, data); err != nil {
		return 0, fmt.Errorf("checkpoint: save: %w", err)
	}
	kind := "f"
	if snap.Delta {
		kind = "d"
	}
	if s.mf == nil {
		s.mf, err = s.openManifest()
		if err != nil {
			return 0, err
		}
	}
	if _, err := fmt.Fprintf(s.mf, "v4 %d %s %d %d %d %s\n", id, name, snap.Seq, snap.Watermark, snap.BaseID, kind); err != nil {
		// A short write may have left an unterminated line; reopen (with
		// tail repair) before the next attempt rather than appending onto
		// the torn tail.
		_ = s.mf.Close()
		s.mf = nil
		return 0, err
	}
	if s.Sync {
		if err := s.mf.Sync(); err != nil {
			return 0, err
		}
	}
	s.nextID++
	return id, nil
}

// writeFile writes one snapshot file in full, or leaves none.
func (s *Store) writeFile(name string, data []byte) error {
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && s.Sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path)
	}
	return err
}

// openManifest opens the manifest for appending, first terminating any
// torn tail line a crash mid-append left behind — otherwise the next
// entry would merge into it and both would be lost to the parser.
func (s *Store) openManifest() (*os.File, error) {
	path := filepath.Join(s.dir, manifestName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err != nil {
			_ = f.Close()
			return nil, err
		}
		if last[0] != '\n' {
			if _, err := f.WriteAt([]byte{'\n'}, st.Size()); err != nil {
				_ = f.Close()
				return nil, err
			}
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// Close releases the store's open file handles (the manifest). Saves
// after Close reopen it transparently.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mf != nil {
		err := s.mf.Close()
		s.mf = nil
		return err
	}
	return nil
}

// decodeFile decodes one snapshot file through the store's reader.
func (s *Store) decodeFile(name string) (*Snapshot, error) {
	f, err := os.Open(filepath.Join(s.dir, filepath.Base(name)))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s.fr.Reset(f)
	return decodeSnapshot(s.fr)
}

// Decode decodes a snapshot some store's Save encoded — the HA standby
// is handed the primary's over the replication stream — through this
// store's reader. The snapshot remembers data, which the caller must
// leave alone from here on: saving it here writes those bytes, not a
// second encoding of the rows just decoded.
func (s *Store) Decode(data []byte) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Reset(data)
	s.fr.Reset(&s.src)
	snap, err := decodeSnapshot(s.fr)
	if err != nil {
		return nil, err
	}
	snap.enc.data = data
	return snap, nil
}

// chain returns the base + delta chain ending at entry (base first), or
// ok == false when a base link is missing or malformed.
func chain(entry manifestEntry, byID map[uint64]manifestEntry) ([]manifestEntry, bool) {
	out := []manifestEntry{entry}
	for e := entry; e.delta; {
		b, ok := byID[e.base]
		if !ok || b.id >= e.id {
			return nil, false
		}
		out = append(out, b)
		e = b
	}
	slices.Reverse(out)
	if out[0].delta {
		return nil, false
	}
	return out, true
}

// Latest loads the newest consistent snapshot: the last manifest entry
// whose full base + delta chain exists and decodes, reconstructed by
// folding each delta into its base. It returns ok == false when the
// store holds no usable snapshot.
func (s *Store) Latest() (*Snapshot, bool, error) {
	snap, _, ok, err := s.LatestWithID()
	return snap, ok, err
}

// LatestWithID is Latest plus the store id of the chain's newest entry —
// the id later delta snapshots name as their base, which the HA primary
// needs when resyncing a standby (the folded state stands in for that id
// so the live delta feed chains onto it).
func (s *Store) LatestWithID() (*Snapshot, uint64, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.entries()
	if err != nil {
		return nil, 0, false, err
	}
	byID := make(map[uint64]manifestEntry, len(entries))
	for _, e := range entries {
		byID[e.id] = e
	}
next:
	for i := len(entries) - 1; i >= 0; i-- {
		ch, ok := chain(entries[i], byID)
		if !ok {
			continue
		}
		var snap *Snapshot
		for _, e := range ch {
			d, derr := s.decodeFile(e.file)
			if derr != nil {
				continue next // corrupt/torn link: fall back to an older entry
			}
			if snap == nil {
				snap = d
			} else {
				snap = ApplyDelta(snap, d)
			}
		}
		return snap, entries[i].id, true, nil
	}
	return nil, 0, false, nil
}

// Snapshots returns how many manifest entries the store records.
func (s *Store) Snapshots() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.entries()
	return len(entries), err
}

// Compact prunes the store down to the snapshots belonging to the
// `retain` newest chains: every entry from the retain-th newest full
// snapshot onward survives (snapshot history is linear, so that suffix
// contains exactly the newest chains, including every replay-buffer
// epoch embedded in them). Older snapshot files are deleted and the
// manifest is rewritten atomically. retain < 1 is a no-op.
func (s *Store) Compact(retain int) error {
	if retain < 1 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := s.entries()
	if err != nil {
		return err
	}
	var bases []uint64
	for _, e := range entries {
		if !e.delta {
			bases = append(bases, e.id)
		}
	}
	if len(bases) <= retain {
		return nil
	}
	cut := bases[len(bases)-retain]
	var kept, dropped []manifestEntry
	for _, e := range entries {
		if e.id >= cut {
			kept = append(kept, e)
		} else {
			dropped = append(dropped, e)
		}
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: compact: %w", err)
	}
	for _, e := range kept {
		kind := "f"
		if e.delta {
			kind = "d"
		}
		if _, err := fmt.Fprintf(f, "v4 %d %s %d %d %d %s\n", e.id, e.file, e.seq, e.wm, e.base, kind); err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
			return err
		}
	}
	if s.Sync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	// The open append handle would keep pointing at the unlinked old
	// manifest after the rename; drop it so the next Save reopens.
	if s.mf != nil {
		_ = s.mf.Close()
		s.mf = nil
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	// Only after the manifest no longer references them may the files go.
	for _, e := range dropped {
		_ = os.Remove(filepath.Join(s.dir, filepath.Base(e.file)))
	}
	return nil
}
