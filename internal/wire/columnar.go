package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"jarvis/internal/telemetry"
)

// Wire format v2: columnar batch frames, the only data-frame format the
// transport ships.
//
// A count-prefixed row frame (control records, result logs, agent
// checkpoints) serializes its batch record by record, so the decode side
// pays one struct allocation (plus string allocations) per record. A v2
// frame stores the same batch column-wise: records are grouped into
// *sections* of consecutive same-type records, and each section holds
// per-field contiguous arrays — event times and windows as zigzag-delta
// varints, fixed-width numeric fields as packed big-endian arrays, and
// strings as references into a per-frame string table. The decoder
// materializes a whole section into one arena slice, so decoding a
// frame costs O(sections) allocations instead of O(records).
//
// Layout (the frame header's record-count field holds ColumnarMarker):
//
//	[4B tableOff] [section ...] [string table]
//	section: 1B tag, uvarint n, per-field columns (tag-specific)
//	table:   uvarint count, count × (uvarint len, bytes)
//
// The string table sits at the end (tableOff points at it, relative to
// the payload start) so the encoder can emit sections in one pass and
// patch the offset, copy-free. String references are uvarints where 0
// means the empty string and k > 0 means table entry k-1. Each frame is
// self-contained — the table resets per frame — which keeps replayed
// epochs byte-stable across reconnects and SP restarts; cross-frame
// sharing happens on the decode side, where a per-connection (or
// per-store) canonicalization cache makes repeated group keys, tenants
// and stat names decode to one shared string handle instead of a fresh
// allocation per frame. The decoder resolves a reference by the role of
// the column holding it: key columns go through that cache, while the
// log-line column — unique strings that die with the epoch — slices one
// per-frame copy of the table bytes.
//
// Sections cover the telemetry payload types and watermarks; any other
// payload falls back to a raw section (tag 0) of per-record row
// encodings, so columnar frames can carry everything row frames can.

// ColumnarMarker is the frame record-count sentinel announcing a v2
// columnar payload (as a record count it could never fit a frame, so it
// cannot collide with a row frame).
const ColumnarMarker = ^uint32(0)

// ColumnarFlateMarker is the frame record-count sentinel announcing a
// flate-compressed v2 columnar payload: a uvarint raw payload length
// followed by the flate stream of the exact bytes an uncompressed
// columnar frame would carry after its marker. Every FrameReader
// inflates it transparently.
const ColumnarFlateMarker = ^uint32(0) - 2

// Wire protocol versions negotiated by the Hello/Ack handshake. WireV2 is
// the oldest version the transport accepts.
const (
	WireV1 = 1 // record-at-a-time data frames (pre-columnar builds; rejected)
	WireV2 = 2 // columnar batch frames

	// CurrentWireVersion is the newest version this build speaks.
	CurrentWireVersion = WireV2
)

// tagRawSection opens a fallback section of per-record row encodings.
const tagRawSection byte = 0x00

// maxCanonStrings bounds the decode-side canonicalization cache; when a
// pathological stream floods it with unique key strings it resets rather
// than growing without bound. Payload strings (log lines) never enter
// the cache, so a stream of unique lines cannot evict the keys.
const maxCanonStrings = 1 << 16

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// columnarEncoder builds v2 payloads. It is owned by a FrameWriter; the
// string index map and table are reused (and reset) across frames.
type columnarEncoder struct {
	idx  map[string]uint32
	tab  []string
	live []int32 // scratch live-index vector for column-direct encoding
}

// ref returns the string-table reference for s, interning it on first
// use within the current frame. 0 encodes the empty string.
func (e *columnarEncoder) ref(s string) uint64 {
	if s == "" {
		return 0
	}
	if id, ok := e.idx[s]; ok {
		return uint64(id) + 1
	}
	e.tab = append(e.tab, s)
	id := uint32(len(e.tab))
	e.idx[s] = id - 1
	return uint64(id)
}

// sectionTag classifies a record for section grouping: a wire type tag
// for the columnar-encodable payloads, tagRawSection for everything
// else.
func sectionTag(rec *telemetry.Record) byte {
	switch rec.Data.(type) {
	case *telemetry.PingProbe:
		return TagPingProbe
	case *telemetry.ToRProbe:
		return TagToRProbe
	case *telemetry.LogLine:
		return TagLogLine
	case *telemetry.JobStats:
		return TagJobStats
	case *telemetry.AggRow:
		return TagAggRow
	case *telemetry.QuantileRow:
		return TagQuantileRow
	case *Watermark:
		return TagWatermark
	default:
		return tagRawSection
	}
}

// encode appends the columnar payload for batch to dst.
func (e *columnarEncoder) encode(dst []byte, batch telemetry.Batch) ([]byte, error) {
	if e.idx == nil {
		e.idx = make(map[string]uint32)
	} else {
		clear(e.idx)
	}
	e.tab = e.tab[:0]

	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // tableOff, patched below

	var err error
	for lo := 0; lo < len(batch); {
		tag := sectionTag(&batch[lo])
		hi := lo + 1
		for hi < len(batch) && sectionTag(&batch[hi]) == tag {
			hi++
		}
		dst, err = e.encodeSection(dst, tag, batch[lo:hi])
		if err != nil {
			return nil, err
		}
		lo = hi
	}

	binary.BigEndian.PutUint32(dst[base:], uint32(len(dst)-base))
	dst = binary.AppendUvarint(dst, uint64(len(e.tab)))
	for _, s := range e.tab {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// appendTimeCols writes the shared Record header columns: event times
// and window ids, both zigzag-delta packed (the first value absolute).
func appendTimeCols(dst []byte, sec telemetry.Batch) []byte {
	prev := int64(0)
	for i := range sec {
		dst = binary.AppendUvarint(dst, zigzag(sec[i].Time-prev))
		prev = sec[i].Time
	}
	prev = 0
	for i := range sec {
		dst = binary.AppendUvarint(dst, zigzag(sec[i].Window-prev))
		prev = sec[i].Window
	}
	return dst
}

func (e *columnarEncoder) encodeSection(dst []byte, tag byte, sec telemetry.Batch) ([]byte, error) {
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(sec)))
	if tag == tagRawSection {
		var err error
		for i := range sec {
			dst, err = EncodeRecord(dst, sec[i])
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	dst = appendTimeCols(dst, sec)
	switch tag {
	case TagPingProbe:
		for i := range sec {
			p := sec[i].Data.(*telemetry.PingProbe)
			dst = binary.AppendUvarint(dst, zigzag(p.Timestamp-sec[i].Time))
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.PingProbe).SrcIP)
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.PingProbe).SrcCluster)
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.PingProbe).DstIP)
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.PingProbe).DstCluster)
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.PingProbe).RTTMicros)
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.PingProbe).ErrCode)
		}
	case TagToRProbe:
		for i := range sec {
			p := sec[i].Data.(*telemetry.ToRProbe)
			dst = binary.AppendUvarint(dst, zigzag(p.Timestamp-sec[i].Time))
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.ToRProbe).SrcToR)
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.ToRProbe).DstToR)
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint32(dst, sec[i].Data.(*telemetry.ToRProbe).RTTMicros)
		}
	case TagLogLine:
		for i := range sec {
			p := sec[i].Data.(*telemetry.LogLine)
			dst = binary.AppendUvarint(dst, zigzag(p.Timestamp-sec[i].Time))
		}
		for i := range sec {
			dst = binary.AppendUvarint(dst, e.ref(sec[i].Data.(*telemetry.LogLine).Raw))
		}
	case TagJobStats:
		for i := range sec {
			p := sec[i].Data.(*telemetry.JobStats)
			dst = binary.AppendUvarint(dst, zigzag(p.Timestamp-sec[i].Time))
		}
		for i := range sec {
			dst = binary.AppendUvarint(dst, e.ref(sec[i].Data.(*telemetry.JobStats).Tenant))
		}
		for i := range sec {
			dst = binary.AppendUvarint(dst, e.ref(sec[i].Data.(*telemetry.JobStats).StatName))
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(sec[i].Data.(*telemetry.JobStats).Stat))
		}
		for i := range sec {
			dst = binary.AppendUvarint(dst, zigzag(int64(sec[i].Data.(*telemetry.JobStats).Bucket)))
		}
	case TagAggRow:
		for i := range sec {
			dst = binary.BigEndian.AppendUint64(dst, sec[i].Data.(*telemetry.AggRow).Key.Num)
		}
		for i := range sec {
			dst = binary.AppendUvarint(dst, e.ref(sec[i].Data.(*telemetry.AggRow).Key.Str))
		}
		for i := range sec {
			p := sec[i].Data.(*telemetry.AggRow)
			dst = binary.AppendUvarint(dst, zigzag(p.Window-sec[i].Window))
		}
		for i := range sec {
			dst = binary.AppendUvarint(dst, uint64(sec[i].Data.(*telemetry.AggRow).Count))
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(sec[i].Data.(*telemetry.AggRow).Sum))
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(sec[i].Data.(*telemetry.AggRow).Min))
		}
		for i := range sec {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(sec[i].Data.(*telemetry.AggRow).Max))
		}
	case TagQuantileRow:
		for i := range sec {
			dst = binary.BigEndian.AppendUint64(dst, sec[i].Data.(*telemetry.QuantileRow).Key.Num)
		}
		for i := range sec {
			dst = binary.AppendUvarint(dst, e.ref(sec[i].Data.(*telemetry.QuantileRow).Key.Str))
		}
		for i := range sec {
			p := sec[i].Data.(*telemetry.QuantileRow)
			dst = binary.AppendUvarint(dst, zigzag(p.Window-sec[i].Window))
		}
		for i := range sec {
			p := sec[i].Data.(*telemetry.QuantileRow)
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Lo))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Hi))
			dst = binary.AppendUvarint(dst, uint64(p.Total))
		}
		for i := range sec {
			dst = binary.AppendUvarint(dst, uint64(len(sec[i].Data.(*telemetry.QuantileRow).Counts)))
		}
		for i := range sec {
			for _, c := range sec[i].Data.(*telemetry.QuantileRow).Counts {
				dst = binary.AppendUvarint(dst, uint64(c))
			}
		}
	case TagWatermark:
		for i := range sec {
			p := sec[i].Data.(*Watermark)
			dst = binary.AppendUvarint(dst, zigzag(p.Time-sec[i].Time))
		}
	default:
		return nil, fmt.Errorf("wire: columnar section for unhandled tag 0x%02x", tag)
	}
	return dst, nil
}

// encodeCols appends the columnar payload for a SoA batch to dst,
// straight from the columns — the column-direct equivalent of encode.
// Each SoA section is written as one wire section of its live rows (the
// selection vector is applied and discarded); Rows fallback sections are
// encoded through the row path, grouped into runs exactly like encode.
// Decoding the result reproduces AppendRows' record sequence.
func (e *columnarEncoder) encodeCols(dst []byte, cb *ColumnarBatch) ([]byte, error) {
	if e.idx == nil {
		e.idx = make(map[string]uint32)
	} else {
		clear(e.idx)
	}
	e.tab = e.tab[:0]

	base := len(dst)
	dst = append(dst, 0, 0, 0, 0) // tableOff, patched below

	var err error
	for si := range cb.Secs {
		s := &cb.Secs[si]
		if s.Rows != nil {
			for lo := 0; lo < len(s.Rows); {
				tag := sectionTag(&s.Rows[lo])
				hi := lo + 1
				for hi < len(s.Rows) && sectionTag(&s.Rows[hi]) == tag {
					hi++
				}
				dst, err = e.encodeSection(dst, tag, s.Rows[lo:hi])
				if err != nil {
					return nil, err
				}
				lo = hi
			}
			continue
		}
		if s.Len() == 0 {
			continue
		}
		dst, err = e.encodeColSec(dst, s)
		if err != nil {
			return nil, err
		}
	}

	binary.BigEndian.PutUint32(dst[base:], uint32(len(dst)-base))
	dst = binary.AppendUvarint(dst, uint64(len(e.tab)))
	for _, s := range e.tab {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// liveIdx returns the section's live row indices, using the selection
// vector directly when present and a reusable identity vector otherwise.
func (e *columnarEncoder) liveIdx(s *ColSec) []int32 {
	if s.Sel != nil {
		return s.Sel
	}
	n := len(s.Times)
	if cap(e.live) < n {
		e.live = make([]int32, n)
		for i := range e.live {
			e.live[i] = int32(i)
		}
	} else if len(e.live) < n {
		for i := len(e.live); i < n; i++ {
			e.live = append(e.live, int32(i))
		}
	}
	return e.live[:n]
}

// encodeColSec writes one SoA section's live rows as a wire section,
// byte-identical to encodeSection over the materialized rows.
func (e *columnarEncoder) encodeColSec(dst []byte, s *ColSec) ([]byte, error) {
	live := e.liveIdx(s)
	switch {
	case s.Ping != nil:
		dst = append(dst, TagPingProbe)
	case s.ToR != nil:
		dst = append(dst, TagToRProbe)
	case s.Log != nil:
		dst = append(dst, TagLogLine)
	case s.Job != nil:
		dst = append(dst, TagJobStats)
	case s.Agg != nil:
		dst = append(dst, TagAggRow)
	default:
		return nil, fmt.Errorf("wire: columnar section 0x%02x has no columns", s.Tag)
	}
	dst = binary.AppendUvarint(dst, uint64(len(live)))
	prev := int64(0)
	for _, i := range live {
		dst = binary.AppendUvarint(dst, zigzag(s.Times[i]-prev))
		prev = s.Times[i]
	}
	prev = 0
	for _, i := range live {
		dst = binary.AppendUvarint(dst, zigzag(s.Windows[i]-prev))
		prev = s.Windows[i]
	}
	switch {
	case s.Ping != nil:
		c := s.Ping
		for _, i := range live {
			dst = binary.AppendUvarint(dst, zigzag(c.TS[i]-s.Times[i]))
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.SrcIP[i])
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.SrcCluster[i])
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.DstIP[i])
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.DstCluster[i])
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.RTT[i])
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.Err[i])
		}
	case s.ToR != nil:
		c := s.ToR
		for _, i := range live {
			dst = binary.AppendUvarint(dst, zigzag(c.TS[i]-s.Times[i]))
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.SrcToR[i])
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.DstToR[i])
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint32(dst, c.RTT[i])
		}
	case s.Log != nil:
		c := s.Log
		for _, i := range live {
			dst = binary.AppendUvarint(dst, zigzag(c.TS[i]-s.Times[i]))
		}
		for _, i := range live {
			dst = binary.AppendUvarint(dst, e.ref(c.Raw[i]))
		}
	case s.Job != nil:
		c := s.Job
		for _, i := range live {
			dst = binary.AppendUvarint(dst, zigzag(c.TS[i]-s.Times[i]))
		}
		for _, i := range live {
			dst = binary.AppendUvarint(dst, e.ref(c.Tenant[i]))
		}
		for _, i := range live {
			dst = binary.AppendUvarint(dst, e.ref(c.StatName[i]))
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Stat[i]))
		}
		for _, i := range live {
			dst = binary.AppendUvarint(dst, zigzag(c.Bucket[i]))
		}
	case s.Agg != nil:
		c := s.Agg
		for _, i := range live {
			dst = binary.BigEndian.AppendUint64(dst, c.KeyNum[i])
		}
		for _, i := range live {
			dst = binary.AppendUvarint(dst, e.ref(c.KeyStr[i]))
		}
		for _, i := range live {
			dst = binary.AppendUvarint(dst, zigzag(c.Window[i]-s.Windows[i]))
		}
		for _, i := range live {
			dst = binary.AppendUvarint(dst, uint64(c.Count[i]))
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Sum[i]))
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Min[i]))
		}
		for _, i := range live {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.Max[i]))
		}
	}
	return dst, nil
}

// ColumnarDecoder materializes v2 columnar payloads. One decoder serves
// one connection (or one snapshot store): its canonicalization cache
// makes the key strings that repeat across frames — group keys, tenants,
// stat names — decode to a single shared string instead of a fresh
// allocation per frame. Each DecodeBatch call materializes records
// into freshly allocated per-section arenas, so decoded records own
// their memory and may be retained freely (a retained log line keeps
// its frame's string copy alive, as a retained record keeps its
// section arena); the per-record allocation of the v1 decoder is gone.
type ColumnarDecoder struct {
	canon map[string]string
	// The current frame's string table: tab is the table's bytes (a view
	// into the frame buffer) and ents each entry's extent within it.
	// keys memoizes the entries already resolved through canon ("" =
	// not yet); backing is the frame's one string copy of tab that
	// payload strings slice, made on the first payload reference.
	tab     []byte
	ents    []tabEntry
	keys    []string
	backing string
	// scratch columns reused across sections (values are copied into
	// records/arenas before the next section touches them).
	times   []int64
	windows []int64
	aux     []int64
	// pool holds free column arenas when pooling is enabled (nil
	// otherwise); lent tracks the arenas handed out since the last
	// recycle so RecycleArenas can return them to the free lists.
	pool *arenaPool
	lent arenaPool
}

// NewColumnarDecoder creates a decoder with an empty canonicalization
// cache.
func NewColumnarDecoder() *ColumnarDecoder {
	return &ColumnarDecoder{canon: make(map[string]string)}
}

// arenaPool is a set of per-element-type free lists of column arenas.
type arenaPool struct {
	i64 [][]int64
	u32 [][]uint32
	u64 [][]uint64
	f64 [][]float64
	str [][]string
	// raw is used on the lent side only: the string arenas that hold
	// payload strings (they return to str, cleared).
	raw [][]string
}

// EnableArenaPooling switches the decoder to pooled column arenas: SoA
// decode (DecodeColumnar) serves column arrays from per-type free lists
// instead of fresh allocations, and the caller returns them with
// RecycleArenas once the decoded batches of an epoch have been fully
// consumed. With pooling enabled, decoded columns are only valid until
// the recycle call — the receiver recycles at epoch commit, after the
// engine has copied every surviving row out of the wave. Pooling is off
// by default, in which case decoded columns own their memory forever.
func (d *ColumnarDecoder) EnableArenaPooling() {
	if d.pool == nil {
		d.pool = &arenaPool{}
	}
}

// RecycleArenas returns every column arena handed out since the last
// call to the free lists. It must only be called when no decoded
// ColumnarBatch from this decoder is referenced anymore. A no-op when
// pooling is disabled.
func (d *ColumnarDecoder) RecycleArenas() {
	if d.pool == nil {
		return
	}
	d.pool.i64 = append(d.pool.i64, d.lent.i64...)
	d.pool.u32 = append(d.pool.u32, d.lent.u32...)
	d.pool.u64 = append(d.pool.u64, d.lent.u64...)
	d.pool.f64 = append(d.pool.f64, d.lent.f64...)
	d.pool.str = append(d.pool.str, d.lent.str...)
	for _, s := range d.lent.raw {
		clear(s) // a free arena must not pin a dead frame's string copy
	}
	d.pool.str = append(d.pool.str, d.lent.raw...)
	d.lent.i64 = d.lent.i64[:0]
	d.lent.u32 = d.lent.u32[:0]
	d.lent.u64 = d.lent.u64[:0]
	d.lent.f64 = d.lent.f64[:0]
	d.lent.str = d.lent.str[:0]
	d.lent.raw = d.lent.raw[:0]
}

// popArena pops the newest free arena with enough capacity, discarding
// an undersized one (arena sizes converge to the section sizes the
// connection actually carries).
func popArena[T any](free *[][]T, n int) ([]T, bool) {
	f := *free
	if len(f) == 0 {
		return nil, false
	}
	s := f[len(f)-1]
	f[len(f)-1] = nil
	*free = f[:len(f)-1]
	if cap(s) < n {
		return nil, false
	}
	return s[:n], true
}

func (d *ColumnarDecoder) i64Arena(n int) []int64 {
	if d.pool != nil {
		s, ok := popArena(&d.pool.i64, n)
		if !ok {
			s = make([]int64, n)
		}
		d.lent.i64 = append(d.lent.i64, s)
		return s
	}
	return make([]int64, n)
}

func (d *ColumnarDecoder) u32Arena(n int) []uint32 {
	if d.pool != nil {
		s, ok := popArena(&d.pool.u32, n)
		if !ok {
			s = make([]uint32, n)
		}
		d.lent.u32 = append(d.lent.u32, s)
		return s
	}
	return make([]uint32, n)
}

func (d *ColumnarDecoder) u64Arena(n int) []uint64 {
	if d.pool != nil {
		s, ok := popArena(&d.pool.u64, n)
		if !ok {
			s = make([]uint64, n)
		}
		d.lent.u64 = append(d.lent.u64, s)
		return s
	}
	return make([]uint64, n)
}

func (d *ColumnarDecoder) f64Arena(n int) []float64 {
	if d.pool != nil {
		s, ok := popArena(&d.pool.f64, n)
		if !ok {
			s = make([]float64, n)
		}
		d.lent.f64 = append(d.lent.f64, s)
		return s
	}
	return make([]float64, n)
}

func (d *ColumnarDecoder) strArena(n int, payload bool) []string {
	if d.pool != nil {
		s, ok := popArena(&d.pool.str, n)
		if !ok {
			s = make([]string, n)
		}
		if payload {
			d.lent.raw = append(d.lent.raw, s)
		} else {
			d.lent.str = append(d.lent.str, s)
		}
		return s
	}
	return make([]string, n)
}

// tabEntry is one string-table entry's extent within the table bytes.
type tabEntry struct{ off, n uint32 }

// intern canonicalizes one decoded string through the cross-frame cache.
func (d *ColumnarDecoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.canon[string(b)]; ok { // alloc-free map probe
		return s
	}
	if len(d.canon) >= maxCanonStrings {
		clear(d.canon)
	}
	s := string(b)
	d.canon[s] = s
	return s
}

// entry reads one string reference and returns its table index, -1 for
// the empty string.
func (d *ColumnarDecoder) entry(r *reader) (int, error) {
	ref := r.uvarint()
	if r.err != nil {
		return 0, r.err
	}
	if ref > uint64(len(d.ents)) {
		return 0, fmt.Errorf("wire: string ref %d exceeds table of %d", ref, len(d.ents))
	}
	return int(ref) - 1, nil
}

// keyAt resolves table entry i for a key column (tenant, stat name,
// group key): strings that repeat across frames and may outlive the
// epoch, so they resolve to the canon cache's own copy.
func (d *ColumnarDecoder) keyAt(i int) string {
	if d.keys[i] == "" {
		e := d.ents[i]
		d.keys[i] = d.intern(d.tab[e.off : e.off+e.n])
	}
	return d.keys[i]
}

// payloadAt resolves table entry i for a payload column (log lines):
// unique strings that die with the epoch, so they slice the frame's one
// copy of the table instead of being hashed, copied and cached one by
// one.
func (d *ColumnarDecoder) payloadAt(i int) string {
	if d.backing == "" {
		d.backing = string(d.tab)
	}
	e := d.ents[i]
	return d.backing[e.off : e.off+e.n]
}

// keyStr reads and resolves one key-column reference.
func (d *ColumnarDecoder) keyStr(r *reader) (string, error) {
	i, err := d.entry(r)
	if i < 0 || err != nil {
		return "", err
	}
	return d.keyAt(i), nil
}

// payloadStr reads and resolves one payload-column reference.
func (d *ColumnarDecoder) payloadStr(r *reader) (string, error) {
	i, err := d.entry(r)
	if i < 0 || err != nil {
		return "", err
	}
	return d.payloadAt(i), nil
}

// DecodeBatch parses one columnar payload (the frame bytes after the
// 12-byte header) and appends the materialized records to *out.
func (d *ColumnarDecoder) DecodeBatch(payload []byte, out *telemetry.Batch) error {
	if len(payload) < 4 {
		return ErrShortBuffer
	}
	tableOff := binary.BigEndian.Uint32(payload)
	if tableOff < 4 || uint64(tableOff) > uint64(len(payload)) {
		return fmt.Errorf("wire: columnar table offset %d outside payload of %d", tableOff, len(payload))
	}
	if err := d.readTable(payload[tableOff:]); err != nil {
		return err
	}
	r := &reader{buf: payload[:tableOff], off: 4}
	for r.off < len(r.buf) {
		if err := d.decodeSection(r, out); err != nil {
			return err
		}
	}
	return nil
}

// readTable indexes the frame's string table; entries are resolved on
// reference, by column role (keyStr, payloadStr).
func (d *ColumnarDecoder) readTable(buf []byte) error {
	r := &reader{buf: buf}
	n := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if n > uint64(len(buf)) { // every entry takes ≥ 1 byte
		return fmt.Errorf("wire: string table of %d entries in %d bytes", n, len(buf))
	}
	d.tab, d.backing = buf, ""
	d.ents = d.ents[:0]
	for i := uint64(0); i < n; i++ {
		b := r.rawBytes()
		if r.err != nil {
			return r.err
		}
		d.ents = append(d.ents, tabEntry{off: uint32(r.off - len(b)), n: uint32(len(b))})
	}
	clear(d.keys)
	if cap(d.keys) < len(d.ents) {
		d.keys = make([]string, len(d.ents))
	}
	d.keys = d.keys[:len(d.ents)]
	return nil
}

// minRecordBytes is the smallest possible encoding of one record in a
// section of the given tag, used to reject corrupt counts before sizing
// arenas from attacker-controlled input.
func minRecordBytes(tag byte) int {
	switch tag {
	case TagPingProbe:
		return 3 + 24
	case TagToRProbe:
		return 3 + 12
	case TagLogLine:
		return 4
	case TagJobStats:
		// time + window + ts-delta + tenant ref + stat-name ref +
		// stat (8 B) + bucket, all varints at their 1-byte minimum.
		return 5 + 8 + 1
	case TagAggRow:
		return 2 + 8 + 1 + 1 + 1 + 24
	case TagQuantileRow:
		return 2 + 8 + 1 + 1 + 16 + 1 + 1
	case TagWatermark:
		return 3
	default:
		return 17 // raw v1 record: tag + 16-byte header
	}
}

// nextUvarint reads one uvarint from buf at off with a single-byte fast
// path (the dominant case for delta-packed columns), returning the value
// and the new offset, or newOff < 0 on underflow/overflow.
func nextUvarint(buf []byte, off int) (uint64, int) {
	if off < len(buf) {
		if b := buf[off]; b < 0x80 {
			return uint64(b), off + 1
		}
	}
	v, k := binary.Uvarint(buf[off:])
	if k <= 0 {
		return 0, -1
	}
	return v, off + k
}

// zigzagDeltas bulk-decodes n zigzag-delta varints (running sum) into
// out, a single pass over the buffer with one bounds state.
func (r *reader) zigzagDeltas(out []int64) {
	if r.err != nil {
		return
	}
	buf, off := r.buf, r.off
	prev := int64(0)
	for i := range out {
		v, next := nextUvarint(buf, off)
		if next < 0 {
			r.err = ErrShortBuffer
			return
		}
		off = next
		prev += unzigzag(v)
		out[i] = prev
	}
	r.off = off
}

// zigzags bulk-decodes n independent zigzag varints into out.
func (r *reader) zigzags(out []int64) {
	if r.err != nil {
		return
	}
	buf, off := r.buf, r.off
	for i := range out {
		v, next := nextUvarint(buf, off)
		if next < 0 {
			r.err = ErrShortBuffer
			return
		}
		off = next
		out[i] = unzigzag(v)
	}
	r.off = off
}

// uvarints bulk-decodes n uvarints into out (as int64).
func (r *reader) uvarints(out []int64) {
	if r.err != nil {
		return
	}
	buf, off := r.buf, r.off
	for i := range out {
		v, next := nextUvarint(buf, off)
		if next < 0 {
			r.err = ErrShortBuffer
			return
		}
		off = next
		out[i] = int64(v)
	}
	r.off = off
}

// take returns the next n bytes as a view and advances, or nil on
// underflow.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = ErrShortBuffer
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// grow returns s resized to n, reusing capacity.
func grow(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// timeCols reads the shared header columns into the decoder's reusable
// times/windows scratch.
func (d *ColumnarDecoder) timeCols(r *reader, n int) {
	d.times = grow(d.times, n)
	d.windows = grow(d.windows, n)
	r.zigzagDeltas(d.times)
	r.zigzagDeltas(d.windows)
}

// sectionHeader reads one section's tag and record count, validating the
// count against the bytes that remain (shared by the row-materializing
// and SoA decoders).
func (d *ColumnarDecoder) sectionHeader(r *reader) (tag byte, n int, err error) {
	tag = r.u8()
	cnt := r.uvarint()
	if r.err != nil {
		return 0, 0, r.err
	}
	if cnt > uint64(len(r.buf)-r.off)/uint64(minRecordBytes(tag)) {
		return 0, 0, fmt.Errorf("wire: section 0x%02x count %d exceeds remaining %d bytes", tag, cnt, len(r.buf)-r.off)
	}
	return tag, int(cnt), nil
}

func (d *ColumnarDecoder) decodeSection(r *reader, out *telemetry.Batch) error {
	tag, n, err := d.sectionHeader(r)
	if err != nil {
		return err
	}
	return d.decodeSectionBody(r, tag, n, out)
}

// decodeSectionBody materializes one section (header already consumed)
// into records appended to *out.
func (d *ColumnarDecoder) decodeSectionBody(r *reader, tag byte, n int, out *telemetry.Batch) error {
	if tag == tagRawSection {
		for i := 0; i < n; i++ {
			rec, k, err := DecodeRecord(r.buf[r.off:])
			if err != nil {
				return err
			}
			r.off += k
			*out = append(*out, rec)
		}
		return nil
	}
	d.timeCols(r, n)
	if r.err != nil {
		return r.err
	}
	times, windows := d.times, d.windows
	*out = slices.Grow(*out, n)
	switch tag {
	case TagPingProbe:
		arena := make([]telemetry.PingProbe, n)
		d.aux = grow(d.aux, n)
		r.zigzags(d.aux)
		srcIP := r.take(4 * n)
		srcCl := r.take(4 * n)
		dstIP := r.take(4 * n)
		dstCl := r.take(4 * n)
		rtt := r.take(4 * n)
		errc := r.take(4 * n)
		if r.err != nil {
			return r.err
		}
		// One pass: the arena line is written exactly once while the six
		// input columns stream sequentially.
		recs := (*out)[len(*out) : len(*out)+n]
		for i := range arena {
			p := &arena[i]
			p.Timestamp = times[i] + d.aux[i]
			p.SrcIP = binary.BigEndian.Uint32(srcIP[4*i:])
			p.SrcCluster = binary.BigEndian.Uint32(srcCl[4*i:])
			p.DstIP = binary.BigEndian.Uint32(dstIP[4*i:])
			p.DstCluster = binary.BigEndian.Uint32(dstCl[4*i:])
			p.RTTMicros = binary.BigEndian.Uint32(rtt[4*i:])
			p.ErrCode = binary.BigEndian.Uint32(errc[4*i:])
			recs[i] = telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: telemetry.PingProbeWireSize, Data: p,
			}
		}
		*out = (*out)[:len(*out)+n]
	case TagToRProbe:
		arena := make([]telemetry.ToRProbe, n)
		d.aux = grow(d.aux, n)
		r.zigzags(d.aux)
		srcToR := r.take(4 * n)
		dstToR := r.take(4 * n)
		rtt := r.take(4 * n)
		if r.err != nil {
			return r.err
		}
		recs := (*out)[len(*out) : len(*out)+n]
		for i := range arena {
			p := &arena[i]
			p.Timestamp = times[i] + d.aux[i]
			p.SrcToR = binary.BigEndian.Uint32(srcToR[4*i:])
			p.DstToR = binary.BigEndian.Uint32(dstToR[4*i:])
			p.RTTMicros = binary.BigEndian.Uint32(rtt[4*i:])
			recs[i] = telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: telemetry.ToRProbeWireSize, Data: p,
			}
		}
		*out = (*out)[:len(*out)+n]
	case TagLogLine:
		arena := make([]telemetry.LogLine, n)
		d.aux = grow(d.aux, n)
		r.zigzags(d.aux)
		for i := range arena {
			arena[i].Timestamp = times[i] + d.aux[i]
		}
		for i := range arena {
			s, err := d.payloadStr(r)
			if err != nil {
				return err
			}
			arena[i].Raw = s
		}
		for i := range arena {
			*out = append(*out, telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: len(arena[i].Raw), Data: &arena[i],
			})
		}
	case TagJobStats:
		arena := make([]telemetry.JobStats, n)
		d.aux = grow(d.aux, n)
		r.zigzags(d.aux)
		for i := range arena {
			arena[i].Timestamp = times[i] + d.aux[i]
		}
		for i := range arena {
			s, err := d.keyStr(r)
			if err != nil {
				return err
			}
			arena[i].Tenant = s
		}
		for i := range arena {
			s, err := d.keyStr(r)
			if err != nil {
				return err
			}
			arena[i].StatName = s
		}
		col := r.take(8 * n)
		if r.err == nil {
			for i := range arena {
				arena[i].Stat = math.Float64frombits(binary.BigEndian.Uint64(col[8*i:]))
			}
		}
		r.zigzags(d.aux)
		if r.err != nil {
			return r.err
		}
		for i := range arena {
			arena[i].Bucket = int(d.aux[i])
			*out = append(*out, telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: arena[i].JobStatsWireSize(), Data: &arena[i],
			})
		}
	case TagAggRow:
		arena := make([]telemetry.AggRow, n)
		keyNum := r.take(8 * n)
		if r.err != nil {
			return r.err
		}
		for i := range arena {
			s, err := d.keyStr(r)
			if err != nil {
				return err
			}
			arena[i].Key.Str = s
		}
		d.aux = grow(d.aux, n)
		r.zigzags(d.aux) // window offset vs record window
		if r.err == nil {
			for i := range arena {
				arena[i].Window = windows[i] + d.aux[i]
			}
		}
		r.uvarints(d.aux) // counts
		sums := r.take(8 * n)
		mins := r.take(8 * n)
		maxs := r.take(8 * n)
		if r.err != nil {
			return r.err
		}
		recs := (*out)[len(*out) : len(*out)+n]
		for i := range arena {
			p := &arena[i]
			p.Key.Num = binary.BigEndian.Uint64(keyNum[8*i:])
			p.Count = d.aux[i]
			p.Sum = math.Float64frombits(binary.BigEndian.Uint64(sums[8*i:]))
			p.Min = math.Float64frombits(binary.BigEndian.Uint64(mins[8*i:]))
			p.Max = math.Float64frombits(binary.BigEndian.Uint64(maxs[8*i:]))
			recs[i] = telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: p.AggRowWireSize(), Data: p,
			}
		}
		*out = (*out)[:len(*out)+n]
	case TagQuantileRow:
		arena := make([]telemetry.QuantileRow, n)
		col := r.take(8 * n) // Key.Num
		if r.err == nil {
			for i := range arena {
				arena[i].Key.Num = binary.BigEndian.Uint64(col[8*i:])
			}
		}
		for i := range arena {
			s, err := d.keyStr(r)
			if err != nil {
				return err
			}
			arena[i].Key.Str = s
		}
		d.aux = grow(d.aux, n)
		r.zigzags(d.aux)
		if r.err == nil {
			for i := range arena {
				arena[i].Window = windows[i] + d.aux[i]
			}
		}
		for i := range arena {
			arena[i].Lo = math.Float64frombits(r.u64())
			arena[i].Hi = math.Float64frombits(r.u64())
			arena[i].Total = int64(r.uvarint())
		}
		r.uvarints(d.aux) // counts lengths
		if r.err != nil {
			return r.err
		}
		total := 0
		for i := range arena {
			l := d.aux[i]
			if l < 0 || l > int64(len(r.buf)-r.off) {
				return fmt.Errorf("wire: quantile counts of %d in %d bytes", l, len(r.buf)-r.off)
			}
			total += int(l)
		}
		if total > len(r.buf)-r.off {
			return fmt.Errorf("wire: %d quantile counts in %d bytes", total, len(r.buf)-r.off)
		}
		counts := make([]int64, total)
		off := 0
		for i := range arena {
			cs := counts[off : off+int(d.aux[i]) : off+int(d.aux[i])]
			off += int(d.aux[i])
			r.uvarints(cs)
			arena[i].Counts = cs
		}
		if r.err != nil {
			return r.err
		}
		for i := range arena {
			*out = append(*out, telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: arena[i].WireSize(), Data: &arena[i],
			})
		}
	case TagWatermark:
		arena := make([]Watermark, n)
		d.aux = grow(d.aux, n)
		r.zigzags(d.aux)
		if r.err != nil {
			return r.err
		}
		for i := range arena {
			arena[i].Time = times[i] + d.aux[i]
			*out = append(*out, telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: 17, Data: &arena[i],
			})
		}
	default:
		return fmt.Errorf("%w: columnar section 0x%02x", ErrUnknownTag, tag)
	}
	return r.err
}
