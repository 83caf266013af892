package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"

	"jarvis/internal/telemetry"
)

// Wire format v4: columnar batch frames with bit-packed integer columns
// and byte-plane float columns, the only data-frame format the transport
// ships.
//
// A count-prefixed row frame (control records, result logs) serializes
// its batch record by record, so the decode side pays one struct
// allocation (plus string allocations) per record. A columnar frame
// stores the same batch column-wise: records are grouped into *sections*
// of consecutive same-type records, and each section holds per-field
// contiguous arrays — every integer field (event times, windows, ids,
// counts, string references) as a packed column (packed.go), floats as
// byte planes (planes.go), and strings as references into a per-frame
// string table. The decoder reads each column into one arena and keeps
// the frame in that SoA form (ColumnarBatch), so decoding a frame costs
// O(sections) allocations instead of O(records).
//
// Layout (the frame header's record-count field holds ColumnarMarker):
//
//	[4B tableOff] [section ...] [string table]
//	section: 1B tag, uvarint n, packed integer columns, float columns
//	packed:  1B mode (0 plain, 1 delta) [zigzag-varint first value if delta]
//	         then per block of ≤ 128 values:
//	         zigzag-varint min, 1B width w (0..64), ⌈count·w/8⌉ bytes of
//	         (value − min) at w bits each, least-significant bit first
//	float:   8 planes of n bytes each: plane p is byte p of every value's
//	         big-endian IEEE-754 image (0: sign + high exponent, 1: low
//	         exponent + mantissa head, 2–7: mantissa)
//	table:   uvarint count, count × (uvarint len, bytes)
//
// Why planes: interleaved, every eighth byte of a float column is a sign
// or exponent byte that repeats and the seven between are mantissa, so
// flate finds neither. Split, the sign and exponent planes and the zero
// mantissa planes of integral values (sums, counters) each run for n
// bytes and flate erases them; a plane of mantissa noise is a run of
// blocks flate gives up on and emits stored, which inflate copies instead
// of Huffman-decoding byte by byte. On the canonical 47 620-span frame:
// 8.86 → 8.12 B/record, encode + decode 8.0 → 5.4 ms; 19 447 partial
// aggregates 6.40 → 4.87 B/record. (A second region beside the flate
// stream for the noise planes, chosen by their measured entropy, was
// built and measured too: 8.02 B/record and 5.3 ms — 2 % on top, not
// worth a second frame body layout, two decode cursors and a routing
// rule. Flate's own stored blocks already are that region.)
//
// Integer columns per tag, in wire order (sectionIntCols): record time
// and window open every section; then ping: timestamp − time, src ip,
// src cluster, dst ip, dst cluster, rtt, err; ToR: timestamp − time, src
// ToR, dst ToR, rtt; log: timestamp − time, line ref; job: timestamp −
// time, tenant ref, stat-name ref, bucket, then the stat float column; agg:
// key num, key ref, payload window − window, count, then sum/min/max
// float columns; quantile: key num, key ref, payload window − window, total,
// counts length, then lo/hi float columns and one packed column of every row's
// bucket counts; watermark: watermark − time. The encoder picks plain or
// delta per column by whichever packs smaller, so a constant column, a
// constant-stride column (timestamps, sweeps, fresh string references)
// and a narrow one (rtt, error codes) all cost what they carry before
// the per-frame flate wrapper sees them.
//
// The string table sits at the end (tableOff points at it, relative to
// the payload start) so the encoder can emit sections in one pass and
// patch the offset, copy-free. String references are 0 for the empty
// string and k > 0 for table entry k-1. Each frame is
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

// ColumnarMarker is the frame record-count sentinel announcing a
// columnar payload (as a record count it could never fit a frame, so it
// cannot collide with a row frame).
const ColumnarMarker = ^uint32(0)

// ColumnarFlateMarker is the frame record-count sentinel announcing a
// flate-compressed columnar payload: a uvarint raw payload length
// followed by the flate stream of the exact bytes an uncompressed
// columnar frame would carry after its marker. Every FrameReader
// inflates it transparently.
const ColumnarFlateMarker = ^uint32(0) - 2

// Wire protocol versions negotiated by the Hello/Ack handshake. Versions
// are mutually undecodable (v3 floats read as planes decode without
// error, into wrong values), so WireV4 is both the newest this build
// speaks and the oldest the transport, store and replication accept.
const (
	WireV1 = 1 // record-at-a-time data frames (pre-columnar builds; rejected)
	WireV2 = 2 // columnar frames with big-endian/varint integer columns (rejected)
	WireV3 = 3 // bit-packed integer columns, big-endian float columns (rejected)
	WireV4 = 4 // bit-packed integer columns, byte-plane float columns

	// CurrentWireVersion is the newest version this build speaks.
	CurrentWireVersion = WireV4
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

// columnarEncoder builds columnar payloads. It is owned by a FrameWriter; the
// string index map and table are reused (and reset) across frames.
type columnarEncoder struct {
	idx map[string]uint32
	tab []string
	// front answers keyRef's repeats ahead of idx; gen numbers the frame.
	front [1 << refFrontBits]refSlot
	gen   uint32
	// vals backs cols, the scratch integer columns a section's values are
	// gathered into before packing.
	vals []int64
	cols [9][]int64
	// f64 backs fcols, the scratch float columns.
	f64   []float64
	fcols [3][]float64
	// values counts the frame's integer column values (maxFrameValues).
	values int
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

// refSlot caches the reference a string (data pointer, length) got in
// frame gen.
type refSlot struct {
	p       *byte
	n       int
	gen, id uint32
}

const refFrontBits = 10

// keyRef is ref for the key-role columns (tenant, stat name, group key),
// whose rows repeat a few strings aliasing the same backing arrays: a
// direct-mapped cache on (data pointer, length) answers a repeat without
// hashing its bytes. Same pointer and length within one frame are the
// same bytes, and a miss falls through to ref, so table order and frame
// bytes do not depend on the cache. Log lines, unique, go to ref directly.
func (e *columnarEncoder) keyRef(s string) uint64 {
	if s == "" {
		return 0
	}
	p := unsafe.StringData(s)
	slot := &e.front[uint64(uintptr(unsafe.Pointer(p)))*0x9E3779B97F4A7C15>>(64-refFrontBits)]
	if slot.p != p || slot.n != len(s) || slot.gen != e.gen {
		*slot = refSlot{p: p, n: len(s), gen: e.gen, id: uint32(e.ref(s))}
	}
	return uint64(slot.id)
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

// begin resets the per-frame string table and reserves the table offset.
func (e *columnarEncoder) begin(dst []byte) []byte {
	if e.idx == nil {
		e.idx = make(map[string]uint32)
	} else {
		clear(e.idx)
	}
	if e.gen++; e.gen == 0 { // wrapped: no slot may outlive 2^32 frames
		e.front, e.gen = [1 << refFrontBits]refSlot{}, 1
	}
	e.tab, e.values = e.tab[:0], 0
	return append(dst, 0, 0, 0, 0) // tableOff, patched by finish
}

// finish patches the table offset of the payload that starts at base and
// appends the string table.
func (e *columnarEncoder) finish(dst []byte, base int) []byte {
	binary.BigEndian.PutUint32(dst[base:], uint32(len(dst)-base))
	dst = binary.AppendUvarint(dst, uint64(len(e.tab)))
	for _, s := range e.tab {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// encodeRuns writes batch as one section per run of same-type records.
func (e *columnarEncoder) encodeRuns(dst []byte, batch telemetry.Batch) ([]byte, error) {
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
	return dst, nil
}

// encode appends the columnar payload for batch to dst.
func (e *columnarEncoder) encode(dst []byte, batch telemetry.Batch) ([]byte, error) {
	base := len(dst)
	dst, err := e.encodeRuns(e.begin(dst), batch)
	if err != nil {
		return nil, err
	}
	return e.finish(dst, base), nil
}

// maxFrameValues bounds the integer column values of one frame, on both
// sides: packed constant columns cost next to nothing on the wire, so a
// frame's size no longer bounds what it decodes to. The bound is what a
// MaxFrameSize frame of one-byte varints — the densest the unpacked
// layout got — could carry.
const maxFrameValues = MaxFrameSize

// charge counts n integer column values against the frame's budget.
func (e *columnarEncoder) charge(n int) error {
	if e.values += n; e.values > maxFrameValues {
		return fmt.Errorf("wire: frame of more than %d integer column values", maxFrameValues)
	}
	return nil
}

// sectionHeader opens a section of n records, charging its integer
// columns to the frame's value budget.
func (e *columnarEncoder) sectionHeader(dst []byte, tag byte, n int) ([]byte, error) {
	return binary.AppendUvarint(append(dst, tag), uint64(n)), e.charge(n * max(1, sectionIntCols(tag)))
}

// scratch carves len(cols) columns of n values each out of *buf, grown as
// needed: what a walker gathers a section's columns into, or decodes them
// to, before they are packed or scattered.
func scratch[T any](buf *[]T, cols [][]T, n int) [][]T {
	if cap(*buf) < len(cols)*n {
		*buf = make([]T, len(cols)*n)
	}
	for i := range cols {
		cols[i] = (*buf)[i*n : (i+1)*n : (i+1)*n]
	}
	return cols
}

func (e *columnarEncoder) intCols(k, n int) [][]int64  { return scratch(&e.vals, e.cols[:k], n) }
func (e *columnarEncoder) floats(k, n int) [][]float64 { return scratch(&e.f64, e.fcols[:k], n) }

// encodeSection writes one run of same-type records as a wire section:
// the integer columns gathered into scratch and packed, in the order
// the decoder reads them (sectionIntCols), then the float columns.
func (e *columnarEncoder) encodeSection(dst []byte, tag byte, sec telemetry.Batch) ([]byte, error) {
	dst, err := e.sectionHeader(dst, tag, len(sec))
	if err != nil {
		return nil, err
	}
	if tag == tagRawSection {
		for i := range sec {
			dst, err = EncodeRecord(dst, sec[i])
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	}
	ints := sectionIntCols(tag)
	if ints == 0 {
		return nil, fmt.Errorf("wire: columnar section for unhandled tag 0x%02x", tag)
	}
	c := e.intCols(ints, len(sec))
	for i := range sec {
		c[0][i], c[1][i] = sec[i].Time, sec[i].Window
	}
	var f [][]float64
	switch tag {
	case TagPingProbe:
		for i := range sec {
			p := sec[i].Data.(*telemetry.PingProbe)
			c[2][i] = p.Timestamp - sec[i].Time
			c[3][i] = int64(p.SrcIP)
			c[4][i] = int64(p.SrcCluster)
			c[5][i] = int64(p.DstIP)
			c[6][i] = int64(p.DstCluster)
			c[7][i] = int64(p.RTTMicros)
			c[8][i] = int64(p.ErrCode)
		}
	case TagToRProbe:
		for i := range sec {
			p := sec[i].Data.(*telemetry.ToRProbe)
			c[2][i] = p.Timestamp - sec[i].Time
			c[3][i] = int64(p.SrcToR)
			c[4][i] = int64(p.DstToR)
			c[5][i] = int64(p.RTTMicros)
		}
	case TagLogLine:
		for i := range sec {
			p := sec[i].Data.(*telemetry.LogLine)
			c[2][i] = p.Timestamp - sec[i].Time
			c[3][i] = int64(e.ref(p.Raw))
		}
	case TagJobStats:
		f = e.floats(1, len(sec))
		for i := range sec {
			p := sec[i].Data.(*telemetry.JobStats)
			c[2][i] = p.Timestamp - sec[i].Time
			c[3][i] = int64(e.keyRef(p.Tenant))
			c[5][i] = int64(p.Bucket)
			f[0][i] = p.Stat
		}
		// Interned after every tenant, as encodeColSec interns column by
		// column: the string table's order is part of the bytes.
		for i := range sec {
			c[4][i] = int64(e.keyRef(sec[i].Data.(*telemetry.JobStats).StatName))
		}
	case TagAggRow:
		f = e.floats(3, len(sec))
		for i := range sec {
			p := sec[i].Data.(*telemetry.AggRow)
			c[2][i] = int64(p.Key.Num)
			c[3][i] = int64(e.keyRef(p.Key.Str))
			c[4][i] = p.Window - sec[i].Window
			c[5][i] = p.Count
			f[0][i], f[1][i], f[2][i] = p.Sum, p.Min, p.Max
		}
	case TagQuantileRow:
		f = e.floats(2, len(sec))
		for i := range sec {
			p := sec[i].Data.(*telemetry.QuantileRow)
			c[2][i] = int64(p.Key.Num)
			c[3][i] = int64(e.keyRef(p.Key.Str))
			c[4][i] = p.Window - sec[i].Window
			c[5][i] = p.Total
			c[6][i] = int64(len(p.Counts))
			f[0][i], f[1][i] = p.Lo, p.Hi
		}
	case TagWatermark:
		for i := range sec {
			c[2][i] = sec[i].Data.(*Watermark).Time - sec[i].Time
		}
	}
	for _, col := range c {
		dst = appendPacked(dst, col)
	}
	for _, col := range f {
		dst = appendPlanes(dst, col)
	}
	if tag == TagQuantileRow {
		e.vals = e.vals[:0]
		for i := range sec {
			e.vals = append(e.vals, sec[i].Data.(*telemetry.QuantileRow).Counts...)
		}
		if err := e.charge(len(e.vals)); err != nil {
			return nil, err
		}
		dst = appendPacked(dst, e.vals)
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
	base := len(dst)
	dst = e.begin(dst)
	var err error
	for si := range cb.Secs {
		s := &cb.Secs[si]
		if s.Rows != nil {
			if dst, err = e.encodeRuns(dst, s.Rows); err != nil {
				return nil, err
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
	return e.finish(dst, base), nil
}

// packCol packs the live rows of one column: the column itself when the
// section is dense, gathered through the selection vector otherwise.
func packCol[T packable](e *columnarEncoder, dst []byte, col []T, s *ColSec) []byte {
	if s.Sel == nil {
		return appendPacked(dst, col[:len(s.Times)])
	}
	v := e.intCols(1, len(s.Sel))[0]
	for k, i := range s.Sel {
		v[k] = int64(col[i])
	}
	return appendPacked(dst, v)
}

// packDiff packs the live rows of a−b, the form payload timestamps and
// payload windows travel in (offsets against the record header columns).
func (e *columnarEncoder) packDiff(dst []byte, a, b []int64, s *ColSec) []byte {
	v := e.intCols(1, s.Len())[0]
	if s.Sel == nil {
		for i := range v {
			v[i] = a[i] - b[i]
		}
	} else {
		for k, i := range s.Sel {
			v[k] = a[i] - b[i]
		}
	}
	return appendPacked(dst, v)
}

// packRefs interns the live rows of a string column — through ref, which
// is e.keyRef for a key-role column and e.ref for log lines — and packs
// the references.
func (e *columnarEncoder) packRefs(dst []byte, col []string, s *ColSec, ref func(string) uint64) []byte {
	v := e.intCols(1, s.Len())[0]
	if s.Sel == nil {
		for i := range v {
			v[i] = int64(ref(col[i]))
		}
	} else {
		for k, i := range s.Sel {
			v[k] = int64(ref(col[i]))
		}
	}
	return appendPacked(dst, v)
}

// packF64 appends the live rows of one float column.
func (e *columnarEncoder) packF64(dst []byte, col []float64, s *ColSec) []byte {
	if s.Sel == nil {
		return appendPlanes(dst, col[:len(s.Times)])
	}
	v := e.floats(1, len(s.Sel))[0]
	for k, i := range s.Sel {
		v[k] = col[i]
	}
	return appendPlanes(dst, v)
}

// encodeColSec writes one SoA section's live rows as a wire section,
// byte-identical to encodeSection over the materialized rows.
func (e *columnarEncoder) encodeColSec(dst []byte, s *ColSec) ([]byte, error) {
	var tag byte
	switch {
	case s.Ping != nil:
		tag = TagPingProbe
	case s.ToR != nil:
		tag = TagToRProbe
	case s.Log != nil:
		tag = TagLogLine
	case s.Job != nil:
		tag = TagJobStats
	case s.Agg != nil:
		tag = TagAggRow
	default:
		return nil, fmt.Errorf("wire: columnar section 0x%02x has no columns", s.Tag)
	}
	dst, err := e.sectionHeader(dst, tag, s.Len())
	if err != nil {
		return nil, err
	}
	dst = packCol(e, dst, s.Times, s)
	dst = packCol(e, dst, s.Windows, s)
	switch {
	case s.Ping != nil:
		c := s.Ping
		dst = e.packDiff(dst, c.TS, s.Times, s)
		dst = packCol(e, dst, c.SrcIP, s)
		dst = packCol(e, dst, c.SrcCluster, s)
		dst = packCol(e, dst, c.DstIP, s)
		dst = packCol(e, dst, c.DstCluster, s)
		dst = packCol(e, dst, c.RTT, s)
		dst = packCol(e, dst, c.Err, s)
	case s.ToR != nil:
		c := s.ToR
		dst = e.packDiff(dst, c.TS, s.Times, s)
		dst = packCol(e, dst, c.SrcToR, s)
		dst = packCol(e, dst, c.DstToR, s)
		dst = packCol(e, dst, c.RTT, s)
	case s.Log != nil:
		dst = e.packDiff(dst, s.Log.TS, s.Times, s)
		dst = e.packRefs(dst, s.Log.Raw, s, e.ref)
	case s.Job != nil:
		c := s.Job
		dst = e.packDiff(dst, c.TS, s.Times, s)
		dst = e.packRefs(dst, c.Tenant, s, e.keyRef)
		dst = e.packRefs(dst, c.StatName, s, e.keyRef)
		dst = packCol(e, dst, c.Bucket, s)
		dst = e.packF64(dst, c.Stat, s)
	case s.Agg != nil:
		c := s.Agg
		dst = packCol(e, dst, c.KeyNum, s)
		dst = e.packRefs(dst, c.KeyStr, s, e.keyRef)
		dst = e.packDiff(dst, c.Window, s.Windows, s)
		dst = packCol(e, dst, c.Count, s)
		dst = e.packF64(dst, c.Sum, s)
		dst = e.packF64(dst, c.Min, s)
		dst = e.packF64(dst, c.Max, s)
	}
	return dst, nil
}

// ColumnarDecoder decodes columnar payloads into ColumnarBatch columns
// (DecodeColumnar). One decoder serves one connection (or one snapshot
// store): its canonicalization cache makes the key strings that repeat
// across frames — group keys, tenants, stat names — decode to a single
// shared string instead of a fresh allocation per frame.
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
	// vals backs cols, the scratch integer columns reused across sections
	// (values are copied into records/arenas before the next section
	// touches them).
	vals  []int64
	cols  [9][]int64
	f64   []float64
	fcols [3][]float64
	// values counts the current frame's integer column values
	// (maxFrameValues).
	values int
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

// lend returns an n-element arena from free, or a fresh one, and records
// it in lent for the next RecycleArenas.
func lend[T any](free, lent *[][]T, n int) []T {
	s, ok := popArena(free, n)
	if !ok {
		s = make([]T, n)
	}
	*lent = append(*lent, s)
	return s
}

func (d *ColumnarDecoder) i64Arena(n int) []int64 {
	if d.pool == nil {
		return make([]int64, n)
	}
	return lend(&d.pool.i64, &d.lent.i64, n)
}

func (d *ColumnarDecoder) u32Arena(n int) []uint32 {
	if d.pool == nil {
		return make([]uint32, n)
	}
	return lend(&d.pool.u32, &d.lent.u32, n)
}

func (d *ColumnarDecoder) u64Arena(n int) []uint64 {
	if d.pool == nil {
		return make([]uint64, n)
	}
	return lend(&d.pool.u64, &d.lent.u64, n)
}

func (d *ColumnarDecoder) f64Arena(n int) []float64 {
	if d.pool == nil {
		return make([]float64, n)
	}
	return lend(&d.pool.f64, &d.lent.f64, n)
}

// strArena lends a string arena, recorded as holding payload strings
// (cleared when recycled) or key strings.
func (d *ColumnarDecoder) strArena(n int, payload bool) []string {
	switch {
	case d.pool == nil:
		return make([]string, n)
	case payload:
		return lend(&d.pool.str, &d.lent.raw, n)
	default:
		return lend(&d.pool.str, &d.lent.str, n)
	}
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

// str resolves one string reference by the role of the column holding
// it: 0 is the empty string, k > 0 table entry k-1 as a payload or a key.
func (d *ColumnarDecoder) str(ref int64, payload bool) (string, error) {
	switch {
	case ref == 0:
		return "", nil
	case uint64(ref) > uint64(len(d.ents)):
		return "", fmt.Errorf("wire: string ref %d exceeds table of %d", ref, len(d.ents))
	case payload:
		return d.payloadAt(int(ref) - 1), nil
	default:
		return d.keyAt(int(ref) - 1), nil
	}
}

// open validates a columnar payload's envelope (the frame bytes after
// the 12-byte header), indexes its string table and returns a reader over
// its sections.
func (d *ColumnarDecoder) open(payload []byte) (*reader, error) {
	if len(payload) < 4 {
		return nil, ErrShortBuffer
	}
	tableOff := binary.BigEndian.Uint32(payload)
	if tableOff < 4 || uint64(tableOff) > uint64(len(payload)) {
		return nil, fmt.Errorf("wire: columnar table offset %d outside payload of %d", tableOff, len(payload))
	}
	if err := d.readTable(payload[tableOff:]); err != nil {
		return nil, err
	}
	d.values = 0
	return &reader{buf: payload[:tableOff], off: 4}, nil
}

// readTable indexes the frame's string table; entries are resolved on
// reference, by column role (str).
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

// intCols reads k packed integer columns of n values each into the
// decoder's reusable scratch — what decodeSectionBody scatters into
// records and strCol resolves.
func (d *ColumnarDecoder) intCols(r *reader, k, n int) [][]int64 {
	c := scratch(&d.vals, d.cols[:k], n)
	for i := range c {
		readPacked(r, c[i])
	}
	return c
}

// floatCols reads k float columns of n values each into the decoder's
// reusable scratch, sized only once their planes are in hand.
func (d *ColumnarDecoder) floatCols(r *reader, k, n int) [][]float64 {
	raw := r.take(8 * k * n)
	if r.err != nil {
		return nil
	}
	c := scratch(&d.f64, d.fcols[:k], n)
	for i := range c {
		readPlanes(c[i], raw[8*i*n:])
	}
	return c
}

// admit charges n integer column values to the frame's budget.
func (d *ColumnarDecoder) admit(n uint64) error {
	if n > uint64(maxFrameValues-d.values) {
		return fmt.Errorf("wire: frame decodes to more than %d integer column values", maxFrameValues)
	}
	d.values += int(n)
	return nil
}

// sectionHeader reads one section's tag and record count. The count sizes arenas, so it is
// bounded before anything is allocated: a raw record takes at least its
// tag and 16-byte header, and a packed column at least two bytes per
// 128-value block, so the bytes that remain cap the count at 64 per byte
// — and the section's integer columns must fit the frame's value budget.
func (d *ColumnarDecoder) sectionHeader(r *reader) (tag byte, n int, err error) {
	tag = r.u8()
	cnt := r.uvarint()
	if r.err != nil {
		return 0, 0, r.err
	}
	limit := uint64(len(r.buf)-r.off) * (packBlock / 2)
	if tag == tagRawSection {
		limit = uint64(len(r.buf)-r.off) / 17
	}
	if cnt > limit {
		return 0, 0, fmt.Errorf("wire: section 0x%02x count %d exceeds remaining %d bytes", tag, cnt, len(r.buf)-r.off)
	}
	return tag, int(cnt), d.admit(cnt * uint64(max(1, sectionIntCols(tag))))
}

// sectionIntCols returns how many packed integer columns open a section
// of the given tag (the two record-header columns included), 0 for a tag
// without a columnar layout.
func sectionIntCols(tag byte) int {
	switch tag {
	case TagPingProbe:
		return 9 // time, window, ts offset, src ip/cluster, dst ip/cluster, rtt, err
	case TagToRProbe:
		return 6 // time, window, ts offset, src tor, dst tor, rtt
	case TagLogLine:
		return 4 // time, window, ts offset, line ref
	case TagJobStats:
		return 6 // time, window, ts offset, tenant ref, stat-name ref, bucket
	case TagAggRow:
		return 6 // time, window, key num, key ref, window offset, count
	case TagQuantileRow:
		return 7 // time, window, key num, key ref, window offset, total, counts length
	case TagWatermark:
		return 3 // time, window, watermark offset
	default:
		return 0
	}
}

// decodeSectionBody materializes one section without SoA columns — raw,
// quantile or watermark, header already consumed — into records appended
// to *out: the packed integer columns are read into scratch in wire
// order, then scattered into one arena.
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
	ints := sectionIntCols(tag)
	if ints == 0 {
		return fmt.Errorf("%w: columnar section 0x%02x", ErrUnknownTag, tag)
	}
	c := d.intCols(r, ints, n)
	if r.err != nil {
		return r.err
	}
	times, windows := c[0], c[1]
	*out = slices.Grow(*out, n)
	recs := (*out)[len(*out) : len(*out)+n]
	switch tag {
	case TagQuantileRow:
		f := d.floatCols(r, 2, n)
		if r.err != nil {
			return r.err
		}
		arena := make([]telemetry.QuantileRow, n)
		// The per-row bucket counts travel as one packed column of all
		// rows' counts; its length is bounded like a section count.
		total, limit := int64(0), int64(len(r.buf)-r.off)*(packBlock/2)
		for _, l := range c[6] {
			if l < 0 || l > limit-total {
				return fmt.Errorf("wire: quantile counts of %d in %d bytes", l, len(r.buf)-r.off)
			}
			total += l
		}
		if err := d.admit(uint64(total)); err != nil {
			return err
		}
		counts := make([]int64, total)
		readPacked(r, counts)
		if r.err != nil {
			return r.err
		}
		for i := range arena {
			key, err := d.str(c[3][i], false)
			if err != nil {
				return err
			}
			l := int(c[6][i])
			arena[i] = telemetry.QuantileRow{
				Key:    telemetry.GroupKey{Num: uint64(c[2][i]), Str: key},
				Window: windows[i] + c[4][i],
				Lo:     f[0][i],
				Hi:     f[1][i],
				Total:  c[5][i], Counts: counts[:l:l],
			}
			counts = counts[l:]
			recs[i] = telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: arena[i].WireSize(), Data: &arena[i],
			}
		}
	case TagWatermark:
		arena := make([]Watermark, n)
		for i := range arena {
			arena[i].Time = times[i] + c[2][i]
			recs[i] = telemetry.Record{
				Time: times[i], Window: windows[i],
				WireSize: 17, Data: &arena[i],
			}
		}
	}
	*out = (*out)[:len(*out)+n]
	return nil
}
