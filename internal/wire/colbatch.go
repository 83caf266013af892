package wire

import (
	"slices"

	"jarvis/internal/telemetry"
)

// ColumnarBatch is a decoded columnar frame kept in SoA (structure-of-arrays)
// form: per-field columns backed by the decode arena and the decoder's
// strings, never materialized into telemetry.Record structs. It is
// what the engines (Operator.ProcessColumnar, Pipeline.RunEpochColumnar,
// SPEngine.IngestColumnar) flow between operator stages.
//
// A batch is an ordered list of sections, one per run of consecutive
// same-type records, so concatenating the sections' rows in order
// reproduces the original record sequence exactly. Section types the SoA
// layer does not model (raw v1 payloads, quantile rows, watermarks) are
// materialized into the section's Rows fallback at decode time; columnar
// operators that meet a section they cannot process the same way
// materialize just that section and keep the rest of the wave SoA.
//
// Mutation discipline: every column slice and pointed-to column struct
// may be shared between several ColumnarBatch values (the engine copies
// section headers, not columns). An operator that wants to change a
// column must allocate a replacement and swap the ColSec field — never
// write through a shared array.
type ColumnarBatch struct {
	Secs []ColSec
}

// ColSec is one section of a columnar batch: a run of same-type records
// as per-field columns. Times and Windows are the record-header columns
// shared by every SoA tag; exactly one of the payload column structs
// (Ping, ToR, Log, Job, Agg) is non-nil for a SoA section, and Rows is
// non-nil instead for a materialized fallback section.
type ColSec struct {
	// Tag is the wire type tag of the section's records (advisory for
	// Rows sections, whose records may be heterogeneous after an
	// operator fallback).
	Tag byte
	// Times and Windows are the record-header columns (event time and
	// assigned tumbling window), one entry per row.
	Times   []int64
	Windows []int64
	// Sel is the selection vector: indices of live rows, ascending. nil
	// means all rows are live. It applies to the columns only — Rows
	// sections are always fully live (filters compact Rows directly).
	Sel []int32

	Ping *PingCols
	ToR  *ToRCols
	Log  *LogCols
	Job  *JobCols
	Agg  *AggCols
	// Rows holds materialized records for section types without SoA
	// columns, and for operator-level per-section fallbacks.
	Rows telemetry.Batch
}

// PingCols are the payload columns of a TagPingProbe section.
type PingCols struct {
	TS                                             []int64 // absolute probe timestamps
	SrcIP, SrcCluster, DstIP, DstCluster, RTT, Err []uint32
}

// ToRCols are the payload columns of a TagToRProbe section.
type ToRCols struct {
	TS                  []int64
	SrcToR, DstToR, RTT []uint32
}

// LogCols are the payload columns of a TagLogLine section. Decoded Raw
// strings slice one per-frame copy of the frame's string table.
type LogCols struct {
	TS  []int64
	Raw []string
}

// JobCols are the payload columns of a TagJobStats section. Decoded
// Tenant and StatName strings are the canonicalization cache's copies.
type JobCols struct {
	TS               []int64
	Tenant, StatName []string
	Stat             []float64
	Bucket           []int64
}

// AggCols are the payload columns of a TagAggRow section (partial
// aggregates shipped from upstream GroupAgg replicas). Window is the
// payload's own window field (already resolved against the record
// header's window column).
type AggCols struct {
	KeyNum        []uint64
	KeyStr        []string
	Window        []int64
	Count         []int64
	Sum, Min, Max []float64
}

// Reset empties the batch, keeping the section slice's capacity.
func (cb *ColumnarBatch) Reset() { cb.Secs = cb.Secs[:0] }

// N returns the section's column length (total rows, live or not).
func (s *ColSec) N() int {
	if s.Rows != nil {
		return len(s.Rows)
	}
	return len(s.Times)
}

// Len returns the section's live row count.
func (s *ColSec) Len() int {
	if s.Rows != nil {
		return len(s.Rows)
	}
	if s.Sel != nil {
		return len(s.Sel)
	}
	return len(s.Times)
}

// Records returns the batch's live row count.
func (cb *ColumnarBatch) Records() int {
	n := 0
	for i := range cb.Secs {
		n += cb.Secs[i].Len()
	}
	return n
}

// bytes sums the accounting wire sizes — what AppendRows stamps into
// Record.WireSize — of the rows sel names, or of
// every row when sel is nil. The section's kind is resolved once, not
// per row: fixed-size payloads (probes) sum in O(1), the others walk only
// their string columns.
func (s *ColSec) bytes(sel []int32) int64 {
	n := int64(len(sel))
	if sel == nil {
		n = int64(len(s.Times))
	}
	switch {
	case s.Ping != nil:
		return telemetry.PingProbeWireSize * n
	case s.ToR != nil:
		return telemetry.ToRProbeWireSize * n
	case s.Log != nil:
		return strBytes(s.Log.Raw, sel, 0)
	case s.Job != nil:
		return strBytes(s.Job.Tenant, sel, 0) + strBytes(s.Job.StatName, sel, 0) + (8+8+4+16)*n
	case s.Agg != nil:
		// A numeric key weighs 8 bytes, a string key its length.
		return strBytes(s.Agg.KeyStr, sel, 8) + (8+8+8+8+8+16)*n
	default:
		return 0
	}
}

// strBytes sums the lengths of col's strings at sel (all of col when sel
// is nil), counting an empty string as empty bytes.
func strBytes(col []string, sel []int32, empty int64) (total int64) {
	add := func(v string) {
		if v == "" {
			total += empty
		} else {
			total += int64(len(v))
		}
	}
	if sel == nil {
		for _, v := range col {
			add(v)
		}
		return total
	}
	for _, i := range sel {
		add(col[i])
	}
	return total
}

// RowBytes returns the accounting wire size of one row — the WireSize a
// materialized Record for it would carry. Callers pass live indices; the
// selection vector itself is not consulted.
func (s *ColSec) RowBytes(i int) int {
	sel := [1]int32{int32(i)}
	return int(s.bytes(sel[:]))
}

// SelBytes returns the summed accounting wire size of exactly the rows
// sel names (none for an empty or nil sel), whatever the section's own
// selection vector says.
func (s *ColSec) SelBytes(sel []int32) int64 {
	if len(sel) == 0 {
		return 0
	}
	return s.bytes(sel)
}

// TotalBytes returns the sum of live rows' accounting wire sizes — the
// columnar equivalent of telemetry.Batch.TotalBytes.
func (cb *ColumnarBatch) TotalBytes() int64 {
	var total int64
	for si := range cb.Secs {
		if s := &cb.Secs[si]; s.Rows != nil {
			total += s.Rows.TotalBytes()
		} else {
			total += s.bytes(s.Sel)
		}
	}
	return total
}

// AppendRows materializes every live row into records appended to *out,
// in order (after any filtering and window assignment recorded in the
// sections), allocating fresh per-section payload arenas. The appended
// records own their payload memory and may be retained freely, also past
// the decoder's RecycleArenas.
func (cb *ColumnarBatch) AppendRows(out *telemetry.Batch) {
	for si := range cb.Secs {
		cb.Secs[si].AppendRows(out)
	}
}

// Live invokes fn for every live row index of a columnar section.
func (s *ColSec) Live(fn func(i int)) {
	if s.Sel != nil {
		for _, i := range s.Sel {
			fn(int(i))
		}
		return
	}
	for i := 0; i < len(s.Times); i++ {
		fn(i)
	}
}

// row returns the column index of the section's k-th live row.
func (s *ColSec) row(k int) int {
	if s.Sel != nil {
		return int(s.Sel[k])
	}
	return k
}

// AppendRows materializes one section's live rows into *out.
func (s *ColSec) AppendRows(out *telemetry.Batch) {
	if s.Rows != nil {
		*out = append(*out, s.Rows...)
		return
	}
	n := s.Len()
	*out = slices.Grow(*out, n)
	recs := (*out)[len(*out) : len(*out)+n]
	*out = (*out)[:len(*out)+n]
	switch {
	case s.Ping != nil:
		arena, c := make([]telemetry.PingProbe, n), s.Ping
		for k := range arena {
			i := s.row(k)
			arena[k] = telemetry.PingProbe{
				Timestamp: c.TS[i], SrcIP: c.SrcIP[i], SrcCluster: c.SrcCluster[i],
				DstIP: c.DstIP[i], DstCluster: c.DstCluster[i],
				RTTMicros: c.RTT[i], ErrCode: c.Err[i],
			}
			recs[k] = telemetry.Record{
				Time: s.Times[i], Window: s.Windows[i],
				WireSize: telemetry.PingProbeWireSize, Data: &arena[k],
			}
		}
	case s.ToR != nil:
		arena, c := make([]telemetry.ToRProbe, n), s.ToR
		for k := range arena {
			i := s.row(k)
			arena[k] = telemetry.ToRProbe{
				Timestamp: c.TS[i], SrcToR: c.SrcToR[i], DstToR: c.DstToR[i], RTTMicros: c.RTT[i],
			}
			recs[k] = telemetry.Record{
				Time: s.Times[i], Window: s.Windows[i],
				WireSize: telemetry.ToRProbeWireSize, Data: &arena[k],
			}
		}
	case s.Log != nil:
		arena, c := make([]telemetry.LogLine, n), s.Log
		for k := range arena {
			i := s.row(k)
			arena[k] = telemetry.LogLine{Timestamp: c.TS[i], Raw: c.Raw[i]}
			recs[k] = telemetry.Record{
				Time: s.Times[i], Window: s.Windows[i],
				WireSize: len(c.Raw[i]), Data: &arena[k],
			}
		}
	case s.Job != nil:
		arena, c := make([]telemetry.JobStats, n), s.Job
		for k := range arena {
			i := s.row(k)
			p := &arena[k]
			*p = telemetry.JobStats{
				Timestamp: c.TS[i], Tenant: c.Tenant[i], StatName: c.StatName[i],
				Stat: c.Stat[i], Bucket: int(c.Bucket[i]),
			}
			recs[k] = telemetry.Record{
				Time: s.Times[i], Window: s.Windows[i],
				WireSize: p.JobStatsWireSize(), Data: p,
			}
		}
	case s.Agg != nil:
		arena, c := make([]telemetry.AggRow, n), s.Agg
		for k := range arena {
			i := s.row(k)
			p := &arena[k]
			*p = telemetry.AggRow{
				Key:    telemetry.GroupKey{Num: c.KeyNum[i], Str: c.KeyStr[i]},
				Window: c.Window[i], Count: c.Count[i],
				Sum: c.Sum[i], Min: c.Min[i], Max: c.Max[i],
			}
			recs[k] = telemetry.Record{
				Time: s.Times[i], Window: s.Windows[i],
				WireSize: p.AggRowWireSize(), Data: p,
			}
		}
	}
}

// Clone returns a copy suitable for a second independent execution of
// the batch: section headers are fresh and selections reset, while the
// (immutable under the mutation discipline) columns and strings stay
// shared. Tests and benchmarks use it to re-ingest one decoded frame.
func (cb *ColumnarBatch) Clone() *ColumnarBatch {
	out := &ColumnarBatch{Secs: make([]ColSec, len(cb.Secs))}
	copy(out.Secs, cb.Secs)
	for i := range out.Secs {
		s := &out.Secs[i]
		if s.Sel != nil {
			s.Sel = append([]int32(nil), s.Sel...)
		}
		if s.Rows != nil {
			s.Rows = s.Rows.Clone()
		}
	}
	return out
}

// DecodeColumnar parses one columnar payload (the frame bytes after the
// 12-byte header) into SoA sections appended to cb, without
// materializing telemetry.Record structs for the section types the SoA
// layer models. Column arrays are freshly allocated per call (one arena
// allocation per column, not per record) and own their memory, or come
// from the decoder's pool when EnableArenaPooling is on; strings resolve
// by column role (str).
func (d *ColumnarDecoder) DecodeColumnar(payload []byte, cb *ColumnarBatch) error {
	r, err := d.open(payload)
	if err != nil {
		return err
	}
	for r.off < len(r.buf) {
		if err := d.decodeSectionCols(r, cb); err != nil {
			return err
		}
	}
	return nil
}

// i64Col, u32Col and u64Col decode one packed integer column into a
// (pooled when enabled) arena.
func (d *ColumnarDecoder) i64Col(r *reader, n int) []int64 {
	out := d.i64Arena(n)
	readPacked(r, out)
	return out
}

func (d *ColumnarDecoder) u32Col(r *reader, n int) []uint32 {
	out := d.u32Arena(n)
	readPacked(r, out)
	return out
}

func (d *ColumnarDecoder) u64Col(r *reader, n int) []uint64 {
	out := d.u64Arena(n)
	readPacked(r, out)
	return out
}

// offsetCol decodes a column that travels as offsets against base (payload
// timestamps against record times, payload windows against record
// windows) into absolute values.
func (d *ColumnarDecoder) offsetCol(r *reader, base []int64) []int64 {
	out := d.i64Col(r, len(base))
	for i := range out {
		out[i] += base[i]
	}
	return out
}

// f64Col decodes one float column (planes.go) into an arena.
func (d *ColumnarDecoder) f64Col(r *reader, n int) []float64 {
	raw := r.take(8 * n)
	if r.err != nil {
		return nil
	}
	out := d.f64Arena(n)
	readPlanes(out, raw)
	return out
}

// strCol decodes one string-reference column: a key column (strings
// owned by the canonicalization cache) or, with payload set, the log-line
// column (strings slicing the frame's table copy). The slice comes from
// the arena pool when enabled.
func (d *ColumnarDecoder) strCol(r *reader, n int, payload bool) []string {
	refs := d.intCols(r, 1, n)[0]
	if r.err != nil {
		return nil
	}
	out := d.strArena(n, payload)
	for i, ref := range refs {
		if out[i], r.err = d.str(ref, payload); r.err != nil {
			return nil
		}
	}
	return out
}

func (d *ColumnarDecoder) decodeSectionCols(r *reader, cb *ColumnarBatch) error {
	tag, n, err := d.sectionHeader(r)
	if err != nil {
		return err
	}
	sec := ColSec{Tag: tag}
	// The column reads below run in source order, which is wire order: Go
	// evaluates the calls of a composite literal left to right.
	switch tag {
	case TagPingProbe, TagToRProbe, TagLogLine, TagJobStats, TagAggRow:
		sec.Times, sec.Windows = d.i64Col(r, n), d.i64Col(r, n)
	}
	switch tag {
	case TagPingProbe:
		sec.Ping = &PingCols{
			TS:    d.offsetCol(r, sec.Times),
			SrcIP: d.u32Col(r, n), SrcCluster: d.u32Col(r, n),
			DstIP: d.u32Col(r, n), DstCluster: d.u32Col(r, n),
			RTT: d.u32Col(r, n), Err: d.u32Col(r, n),
		}
	case TagToRProbe:
		sec.ToR = &ToRCols{
			TS:     d.offsetCol(r, sec.Times),
			SrcToR: d.u32Col(r, n), DstToR: d.u32Col(r, n), RTT: d.u32Col(r, n),
		}
	case TagLogLine:
		sec.Log = &LogCols{TS: d.offsetCol(r, sec.Times), Raw: d.strCol(r, n, true)}
	case TagJobStats:
		sec.Job = &JobCols{
			TS:     d.offsetCol(r, sec.Times),
			Tenant: d.strCol(r, n, false), StatName: d.strCol(r, n, false),
			Bucket: d.i64Col(r, n), Stat: d.f64Col(r, n),
		}
	case TagAggRow:
		sec.Agg = &AggCols{
			KeyNum: d.u64Col(r, n), KeyStr: d.strCol(r, n, false),
			Window: d.offsetCol(r, sec.Windows), Count: d.i64Col(r, n),
			Sum: d.f64Col(r, n), Min: d.f64Col(r, n), Max: d.f64Col(r, n),
		}
	default:
		// Raw, quantile and watermark sections have no SoA columns —
		// materialize them through the shared section parser.
		var rows telemetry.Batch
		if err := d.decodeSectionBody(r, tag, n, &rows); err != nil {
			return err
		}
		sec.Rows = rows
	}
	if r.err != nil {
		return r.err
	}
	cb.Secs = append(cb.Secs, sec)
	return nil
}
