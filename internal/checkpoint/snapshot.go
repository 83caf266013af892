// Package checkpoint is Jarvis' fault-tolerance subsystem (§IV-E): a
// snapshot codec over the wire frame format, a durable append-only
// snapshot store with an epoch-sequence manifest, an exactly-once result
// log, and recovery managers that take epoch-aligned snapshots of a
// source pipeline (agent side) or SP engine (stream-processor side) and
// restore the newest consistent one on startup.
//
// Together with transport's sequenced shipping (DurableShipper hello/
// epoch-end/ack protocol, bounded replay buffer, receiver-side sequence
// dedup) this gives end-to-end exactly-once epoch application across
// agent and SP restarts: every epoch an agent produces is applied to SP
// state exactly once, and every result row reaches the durable result
// log exactly once.
//
// Durability model: snapshots are written atomically (temp file + rename
// after a full write) and recorded in an append-only manifest; the store
// survives process crashes and restarts. Fsync is optional (Store.Sync)
// for deployments that must also survive machine crashes.
package checkpoint

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
)

// SourceState is one source's progress inside an SP snapshot.
type SourceState struct {
	// Watermark is the source's observed event-time watermark.
	Watermark int64
	// AppliedSeq is the last epoch sequence applied for the source.
	AppliedSeq uint64
}

// Snapshot is one epoch-aligned capture of recoverable state. Agent
// snapshots carry Stages/Factors/Pending (+ Seq/Acked from the shipper);
// SP snapshots carry Stages/Sources/EmittedWM.
type Snapshot struct {
	// Checkpoint is the engine's captured cut: the low watermark, the
	// stage rows (partial aggregates, buffered join misses) and, for an
	// incremental snapshot, Delta and the per-stage Meta saying how the
	// rows apply to the snapshot BaseID names. The scalar fields below
	// (Seq, Sources, Factors, Pending) are complete in every snapshot —
	// only stage rows are incremental.
	stream.Checkpoint

	// Seq is the epoch sequence the snapshot covers: the agent's last
	// shipped epoch, or the sum of per-source applied sequences on the SP
	// (a monotone progress measure used for cadence).
	Seq uint64
	// EmittedWM is the watermark through which results were already
	// emitted to the durable result log (SP side).
	EmittedWM int64
	// Acked is the newest epoch the SP had acknowledged durable (agent
	// side).
	Acked uint64
	// Sources maps source id → progress (SP side).
	Sources map[uint32]SourceState
	// Factors are the pipeline's per-proxy load factors (agent side).
	Factors []float64
	// Pending is the agent's replay buffer: encoded unacked epochs.
	Pending []transport.PendingEpoch

	// Term is the newest HA fencing term the node had observed when the
	// snapshot was taken; restoring it keeps a restarted node from
	// trusting a primary the cluster already moved past.
	Term uint64

	// BaseID is the store id of the snapshot a delta extends.
	BaseID uint64

	// enc is the byte form Store.Save last wrote, or Store.Decode read,
	// this snapshot in. Encode and Save reuse it — verbatim while the
	// header fields still match, a fresh header frame over the same body
	// otherwise — so a replicated snapshot's rows are encoded once, on
	// the primary, however many stores and standbys they reach. The body
	// covers Meta, Stages, Sources, Factors and Pending: code that edits
	// one of those on a snapshot carrying bytes must zero enc (ApplyDelta
	// does for its base, Full for the Meta it strips).
	enc encoding
}

// encoding is a snapshot's remembered byte form: data holds the
// SnapshotHeader frame that encodes hdr and, from offset body on, every
// other frame. Copies of a snapshot share data; it is never written to.
type encoding struct {
	hdr  wire.SnapshotHeader
	data []byte
	body int
}

// bodyEncodes counts body encodes: the work a replicated snapshot pays
// exactly once. Tests read it.
var bodyEncodes atomic.Int64

// Full returns a copy of s standing as a chain base: not a delta,
// extending nothing, no per-stage delta Meta. The copy shares s's rows,
// and s's remembered bytes unless they encode Meta.
func (s *Snapshot) Full() Snapshot {
	full := *s
	if len(s.Meta) > 0 {
		full.enc = encoding{}
	}
	full.Delta, full.BaseID, full.Meta = false, 0, nil
	return full
}

// Encode serializes the snapshot as wire frames: a SnapshotHeader
// control frame, StageMeta control frames (delta snapshots), one
// columnar data frame per stage, a SourceState control frame, a
// LoadFactors control frame and one ReplayEpoch control frame per
// pending epoch. A snapshot that remembers its bytes writes those; Encode
// itself leaves s as it is.
func (s *Snapshot) Encode(w io.Writer) error {
	c := *s
	data, err := new(encoder).encode(&c)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// encoder turns snapshots into bytes; a Store keeps one so the frame
// writer's megabyte-scale scratch is grown once, not per snapshot.
type encoder struct {
	fw *wire.FrameWriter
	// size is what the last base (0) and the last delta (1) encoded to:
	// the capacity the next one's buffer starts at.
	size [2]int
}

// encode returns s's encoding and remembers it in s. What s already
// remembers is not encoded again: nothing is when the header fields
// still match, only the header frame otherwise.
func (e *encoder) encode(s *Snapshot) ([]byte, error) {
	hdr := wire.SnapshotHeader{
		Seq: s.Seq, Watermark: s.Watermark, EmittedWM: s.EmittedWM, Acked: s.Acked,
		BaseID: s.BaseID, Delta: s.Delta, Term: s.Term,
	}
	if s.enc.data != nil && s.enc.hdr == hdr {
		return s.enc.data, nil
	}
	kind := 0
	if s.Delta {
		kind = 1
	}
	// The header frame is under 100 bytes; an eighth of slack absorbs the
	// drift between consecutive snapshots without a regrow.
	want := len(s.enc.data) + 100
	if s.enc.data == nil {
		want = e.size[kind] + e.size[kind]/8
	}
	buf := bytes.NewBuffer(make([]byte, 0, want))
	if e.fw == nil {
		e.fw = wire.NewFrameWriter(buf)
	} else {
		e.fw.Reset(buf)
	}
	if err := writeControl(e.fw, &hdr, 49); err != nil {
		return nil, err
	}
	if err := e.fw.Flush(); err != nil {
		return nil, err
	}
	body := buf.Len()
	if s.enc.data != nil {
		buf.Write(s.enc.data[s.enc.body:])
	} else if err := s.encodeBody(e.fw); err != nil {
		return nil, err
	}
	e.size[kind] = buf.Len()
	s.enc = encoding{hdr: hdr, data: buf.Bytes(), body: body}
	return s.enc.data, nil
}

// writeControl writes one control record as a frame of its own.
func writeControl(fw *wire.FrameWriter, data any, size int) error {
	rec := telemetry.Record{WireSize: size, Data: data}
	return fw.WriteFrame(wire.Frame{StreamID: wire.ControlStreamID, Records: telemetry.Batch{rec}})
}

// encodeBody writes and flushes every frame after the header.
func (s *Snapshot) encodeBody(fw *wire.FrameWriter) error {
	bodyEncodes.Add(1)
	metaStages := make([]int, 0, len(s.Meta))
	for st := range s.Meta {
		metaStages = append(metaStages, st)
	}
	sort.Ints(metaStages)
	for _, st := range metaStages {
		m := s.Meta[st]
		rec := &wire.StageMeta{Stage: st, Replace: m.Replace, Closed: m.Closed}
		if err := writeControl(fw, rec, 20+9*len(m.Closed)); err != nil {
			return err
		}
	}
	stages := make([]int, 0, len(s.Stages))
	for st := range s.Stages {
		stages = append(stages, st)
	}
	sort.Ints(stages)
	for _, st := range stages {
		if err := fw.WriteFrame(wire.Frame{StreamID: uint32(st), Records: s.Stages[st]}); err != nil {
			return fmt.Errorf("checkpoint: encode stage %d: %w", st, err)
		}
	}
	if len(s.Sources) > 0 {
		ids := make([]uint32, 0, len(s.Sources))
		for id := range s.Sources {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		recs := make(telemetry.Batch, 0, len(ids))
		for _, id := range ids {
			st := s.Sources[id]
			recs = append(recs, telemetry.Record{WireSize: 37, Data: &wire.SourceState{
				Source: id, Watermark: st.Watermark, AppliedSeq: st.AppliedSeq,
			}})
		}
		if err := fw.WriteFrame(wire.Frame{StreamID: wire.ControlStreamID, Records: recs}); err != nil {
			return err
		}
	}
	if len(s.Factors) > 0 {
		if err := writeControl(fw, &wire.LoadFactors{Factors: s.Factors}, 18+8*len(s.Factors)); err != nil {
			return err
		}
	}
	for _, p := range s.Pending {
		if err := writeControl(fw, &wire.ReplayEpoch{Seq: p.Seq, Data: p.Data}, 26+len(p.Data)); err != nil {
			return fmt.Errorf("checkpoint: encode replay epoch %d: %w", p.Seq, err)
		}
	}
	return fw.Flush()
}

// DecodeSnapshot reads a snapshot written by Encode (or by a
// pre-columnar build's encoder — both frame versions decode).
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	return decodeSnapshot(wire.NewFrameReader(r))
}

func decodeSnapshot(fr *wire.FrameReader) (*Snapshot, error) {
	first, err := fr.ReadRows()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: snapshot header: %w", err)
	}
	if first.StreamID != wire.ControlStreamID || len(first.Records) != 1 {
		return nil, fmt.Errorf("checkpoint: malformed snapshot header frame")
	}
	hdr, ok := first.Records[0].Data.(*wire.SnapshotHeader)
	if !ok {
		return nil, fmt.Errorf("checkpoint: snapshot opens with %T, want header", first.Records[0].Data)
	}
	s := &Snapshot{
		Checkpoint: stream.Checkpoint{
			Watermark: hdr.Watermark,
			Stages:    make(map[int]telemetry.Batch),
			Delta:     hdr.Delta,
		},
		Seq:       hdr.Seq,
		EmittedWM: hdr.EmittedWM,
		Acked:     hdr.Acked,
		BaseID:    hdr.BaseID,
		Term:      hdr.Term,
		Sources:   make(map[uint32]SourceState),
		// Where the body starts in the bytes being read; Store.Decode, which
		// holds them, adds data.
		enc: encoding{hdr: *hdr, body: 4 + len(fr.RawFrame())},
	}
	if s.Delta {
		s.Meta = make(map[int]stream.StageDelta)
	}
	for {
		f, err := fr.ReadRows()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return nil, err
		}
		if f.StreamID != wire.ControlStreamID {
			s.Stages[int(f.StreamID)] = f.Records
			continue
		}
		for _, rec := range f.Records {
			switch c := rec.Data.(type) {
			case *wire.SourceState:
				s.Sources[c.Source] = SourceState{Watermark: c.Watermark, AppliedSeq: c.AppliedSeq}
			case *wire.LoadFactors:
				s.Factors = c.Factors
			case *wire.ReplayEpoch:
				s.Pending = append(s.Pending, transport.PendingEpoch{Seq: c.Seq, Data: c.Data})
			case *wire.StageMeta:
				if s.Meta == nil {
					s.Meta = make(map[int]stream.StageDelta)
				}
				s.Meta[c.Stage] = stream.StageDelta{Replace: c.Replace, Closed: c.Closed}
			default:
				return nil, fmt.Errorf("checkpoint: unexpected control record %T in snapshot", rec.Data)
			}
		}
	}
}

// groupRef addresses one group row inside a stage for keyed delta
// merging, using the same window resolution as the operators' merge
// path (the payload's window wins over the record's when set).
type groupRef struct {
	win int64
	key telemetry.GroupKey
}

// rowRef extracts the (window, key) address of a keyed snapshot row.
// Rows of non-keyed payload types report ok == false; stages holding
// them must use replace mode.
func rowRef(rec *telemetry.Record) (groupRef, bool) {
	switch p := rec.Data.(type) {
	case *telemetry.AggRow:
		ref := groupRef{win: rec.Window, key: p.Key}
		if p.Window != 0 {
			ref.win = p.Window
		}
		return ref, true
	case *telemetry.QuantileRow:
		ref := groupRef{win: rec.Window, key: p.Key}
		if p.Window != 0 {
			ref.win = p.Window
		}
		return ref, true
	default:
		return groupRef{}, false
	}
}

// ApplyDelta folds one delta snapshot into the reconstructed base state,
// mutating and returning base (which forgets its remembered bytes: they
// no longer say what it holds). Scalar fields always take the delta's
// values (they are complete in every snapshot); stage rows apply per the
// delta's Meta: replace mode swaps a stage wholesale, keyed mode drops
// rows of closed windows and supersedes rows group by group. Besides the
// store's chain reconstruction, the HA standby uses it to fold the
// primary's replicated deltas into its in-memory state.
func ApplyDelta(base, d *Snapshot) *Snapshot {
	base.enc = encoding{}
	base.Seq = d.Seq
	base.Watermark = d.Watermark
	base.EmittedWM = d.EmittedWM
	base.Acked = d.Acked
	base.Sources = d.Sources
	base.Factors = d.Factors
	base.Pending = d.Pending
	if d.Term > base.Term {
		base.Term = d.Term
	}

	// Union of stages the delta mentions: rows, meta, or both.
	stages := make(map[int]struct{}, len(d.Stages)+len(d.Meta))
	for st := range d.Stages {
		stages[st] = struct{}{}
	}
	for st := range d.Meta {
		stages[st] = struct{}{}
	}
	for st := range stages {
		meta := d.Meta[st]
		rows := d.Stages[st]
		if meta.Replace {
			if len(rows) == 0 {
				delete(base.Stages, st)
			} else {
				base.Stages[st] = rows
			}
			continue
		}
		cur := base.Stages[st]
		if len(meta.Closed) > 0 && len(cur) > 0 {
			closed := make(map[int64]struct{}, len(meta.Closed))
			for _, w := range meta.Closed {
				closed[w] = struct{}{}
			}
			kept := cur[:0]
			for i := range cur {
				ref, ok := rowRef(&cur[i])
				if ok {
					if _, gone := closed[ref.win]; gone {
						continue
					}
				}
				kept = append(kept, cur[i])
			}
			cur = kept
		}
		if len(rows) > 0 {
			idx := make(map[groupRef]int, len(cur))
			for i := range cur {
				if ref, ok := rowRef(&cur[i]); ok {
					idx[ref] = i
				}
			}
			for i := range rows {
				ref, ok := rowRef(&rows[i])
				if !ok {
					// Unkeyed row in a keyed delta: append (cannot
					// supersede anything).
					cur = append(cur, rows[i])
					continue
				}
				if j, seen := idx[ref]; seen {
					cur[j] = rows[i]
				} else {
					idx[ref] = len(cur)
					cur = append(cur, rows[i])
				}
			}
		}
		if len(cur) == 0 {
			delete(base.Stages, st)
		} else {
			base.Stages[st] = cur
		}
	}
	return base
}
