// Package wire implements the binary serialization used between data
// source agents and stream processors. The paper uses the Kryo framework;
// we substitute a compact, dependency-free codec: each record is a type
// tag byte followed by fixed-width fields (encoding/binary, big endian)
// and uvarint-prefixed strings.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"jarvis/internal/telemetry"
)

// Type tags identifying the payload kind on the wire.
const (
	TagPingProbe   byte = 0x01
	TagToRProbe    byte = 0x02
	TagLogLine     byte = 0x03
	TagJobStats    byte = 0x04
	TagAggRow      byte = 0x05
	TagWatermark   byte = 0x06
	TagQuantileRow byte = 0x07

	// Control tags (fault-tolerance protocol + snapshot codec).
	TagHello          byte = 0x08
	TagAck            byte = 0x09
	TagEpochEnd       byte = 0x0A
	TagSnapshotHeader byte = 0x0B
	TagSourceState    byte = 0x0C
	TagLoadFactors    byte = 0x0D
	TagReplayEpoch    byte = 0x0E
	TagStageMeta      byte = 0x10 // delta-snapshot stage metadata

	// Replication tags (internal/ha primary ↔ standby protocol).
	TagReplHello    byte = 0x11
	TagReplSnapshot byte = 0x12
	TagReplAck      byte = 0x13
)

// ErrUnknownTag is returned when decoding a record with an unregistered
// type tag.
var ErrUnknownTag = errors.New("wire: unknown type tag")

// ErrShortBuffer is returned when a payload is truncated.
var ErrShortBuffer = errors.New("wire: short buffer")

// Watermark is a control message announcing event-time progress on a
// stream. Control proxies replicate watermarks onto the drain path so the
// stream processor can merge streams correctly (paper §V).
type Watermark struct {
	Time int64 // event-time low watermark, microseconds
}

// EncodeRecord appends the serialized form of rec to dst and returns the
// extended slice. The record's event time, window id and payload are
// preserved; WireSize is recomputed from the payload on decode.
func EncodeRecord(dst []byte, rec telemetry.Record) ([]byte, error) {
	switch p := rec.Data.(type) {
	case *telemetry.PingProbe:
		dst = append(dst, TagPingProbe)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Timestamp))
		dst = binary.BigEndian.AppendUint32(dst, p.SrcIP)
		dst = binary.BigEndian.AppendUint32(dst, p.SrcCluster)
		dst = binary.BigEndian.AppendUint32(dst, p.DstIP)
		dst = binary.BigEndian.AppendUint32(dst, p.DstCluster)
		dst = binary.BigEndian.AppendUint32(dst, p.RTTMicros)
		dst = binary.BigEndian.AppendUint32(dst, p.ErrCode)
		return dst, nil
	case *telemetry.ToRProbe:
		dst = append(dst, TagToRProbe)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Timestamp))
		dst = binary.BigEndian.AppendUint32(dst, p.SrcToR)
		dst = binary.BigEndian.AppendUint32(dst, p.DstToR)
		dst = binary.BigEndian.AppendUint32(dst, p.RTTMicros)
		return dst, nil
	case *telemetry.LogLine:
		dst = append(dst, TagLogLine)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Timestamp))
		dst = appendString(dst, p.Raw)
		return dst, nil
	case *telemetry.JobStats:
		dst = append(dst, TagJobStats)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Timestamp))
		dst = appendString(dst, p.Tenant)
		dst = appendString(dst, p.StatName)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Stat))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(p.Bucket)))
		return dst, nil
	case *telemetry.AggRow:
		dst = append(dst, TagAggRow)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, p.Key.Num)
		dst = appendString(dst, p.Key.Str)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Window))
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Count))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Sum))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Min))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Max))
		return dst, nil
	case *telemetry.QuantileRow:
		dst = append(dst, TagQuantileRow)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, p.Key.Num)
		dst = appendString(dst, p.Key.Str)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Window))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Lo))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Hi))
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Total))
		dst = binary.AppendUvarint(dst, uint64(len(p.Counts)))
		for _, c := range p.Counts {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
		return dst, nil
	case *Watermark:
		dst = append(dst, TagWatermark)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Time))
		return dst, nil
	case *Hello:
		dst = append(dst, TagHello)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint32(dst, p.Source)
		dst = binary.BigEndian.AppendUint64(dst, p.Seq)
		dst = binary.AppendUvarint(dst, uint64(p.Version))
		dst = binary.AppendUvarint(dst, p.Term)
		dst = appendBool(dst, p.Compress)
		dst = append(dst, p.Class)
		dst = appendString(dst, p.Tenant)
		return dst, nil
	case *Ack:
		dst = append(dst, TagAck)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint32(dst, p.Source)
		dst = binary.BigEndian.AppendUint64(dst, p.Seq)
		dst = binary.AppendUvarint(dst, uint64(p.Version))
		dst = binary.AppendUvarint(dst, p.Term)
		dst = appendBool(dst, p.Compress)
		dst = binary.AppendUvarint(dst, p.ThrottleMicros)
		dst = appendBool(dst, p.Replay)
		return dst, nil
	case *EpochEnd:
		dst = append(dst, TagEpochEnd)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, p.Seq)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Watermark))
		// Trace-context extension: emitted only when armed, so untraced
		// epochs keep the pre-trace encoding byte for byte.
		if p.TraceID != 0 {
			dst = binary.AppendUvarint(dst, p.TraceID)
			dst = binary.AppendUvarint(dst, zigzag(p.StartMicros))
			dst = binary.AppendUvarint(dst, p.GenMicros)
			dst = binary.AppendUvarint(dst, p.PipeMicros)
			dst = binary.AppendUvarint(dst, p.EncMicros)
			dst = binary.AppendUvarint(dst, zigzag(p.SentMicros))
		}
		return dst, nil
	case *SnapshotHeader:
		dst = append(dst, TagSnapshotHeader)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, p.Seq)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Watermark))
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.EmittedWM))
		dst = binary.BigEndian.AppendUint64(dst, p.Acked)
		dst = binary.AppendUvarint(dst, p.BaseID)
		if p.Delta {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, p.Term)
		return dst, nil
	case *StageMeta:
		dst = append(dst, TagStageMeta)
		dst = appendHeader(dst, rec)
		dst = binary.AppendUvarint(dst, uint64(p.Stage))
		if p.Replace {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.Closed)))
		prev := int64(0)
		for _, w := range p.Closed {
			dst = binary.AppendUvarint(dst, zigzag(w-prev))
			prev = w
		}
		return dst, nil
	case *SourceState:
		dst = append(dst, TagSourceState)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint32(dst, p.Source)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.Watermark))
		dst = binary.BigEndian.AppendUint64(dst, p.AppliedSeq)
		return dst, nil
	case *LoadFactors:
		dst = append(dst, TagLoadFactors)
		dst = appendHeader(dst, rec)
		dst = binary.AppendUvarint(dst, uint64(len(p.Factors)))
		for _, f := range p.Factors {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst, nil
	case *ReplayEpoch:
		dst = append(dst, TagReplayEpoch)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, p.Seq)
		dst = binary.AppendUvarint(dst, uint64(len(p.Data)))
		return append(dst, p.Data...), nil
	case *ReplHello:
		dst = append(dst, TagReplHello)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, p.LastID)
		dst = binary.BigEndian.AppendUint64(dst, uint64(p.LogWM))
		return binary.AppendUvarint(dst, uint64(p.Version)), nil
	case *ReplSnapshot:
		dst = append(dst, TagReplSnapshot)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, p.ID)
		dst = binary.AppendUvarint(dst, p.BaseID)
		dst = binary.BigEndian.AppendUint64(dst, p.Seq)
		dst = binary.AppendUvarint(dst, p.Term)
		if p.Delta {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendUvarint(dst, uint64(len(p.Data)))
		return append(dst, p.Data...), nil
	case *ReplAck:
		dst = append(dst, TagReplAck)
		dst = appendHeader(dst, rec)
		dst = binary.BigEndian.AppendUint64(dst, p.ID)
		dst = binary.BigEndian.AppendUint64(dst, p.Seq)
		return dst, nil
	default:
		return nil, fmt.Errorf("wire: cannot encode payload type %T", rec.Data)
	}
}

func appendHeader(dst []byte, rec telemetry.Record) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.Time))
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.Window))
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.err = ErrShortBuffer
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.err = ErrShortBuffer
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.err = ErrShortBuffer
		return 0
	}
	r.off += k
	return v
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.err = ErrShortBuffer
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// rawBytes returns a uvarint-prefixed byte string as a view into the
// buffer (no copy) — callers must copy or intern before the buffer is
// reused.
func (r *reader) rawBytes() []byte {
	if r.err != nil {
		return nil
	}
	n, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.err = ErrShortBuffer
		return nil
	}
	r.off += k
	if n > uint64(len(r.buf)-r.off) {
		r.err = ErrShortBuffer
		return nil
	}
	out := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return out
}

func (r *reader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	n, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.err = ErrShortBuffer
		return nil
	}
	r.off += k
	if n > uint64(len(r.buf)-r.off) {
		r.err = ErrShortBuffer
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

func (r *reader) str() string {
	if r.err != nil {
		return ""
	}
	n, k := binary.Uvarint(r.buf[r.off:])
	if k <= 0 {
		r.err = ErrShortBuffer
		return ""
	}
	r.off += k
	if n > uint64(len(r.buf)-r.off) {
		r.err = ErrShortBuffer
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// DecodeRecord parses one record from buf, returning the record and the
// number of bytes consumed. WireSize is restored to the schema's canonical
// accounting size.
func DecodeRecord(buf []byte) (telemetry.Record, int, error) {
	if len(buf) == 0 {
		return telemetry.Record{}, 0, ErrShortBuffer
	}
	r := &reader{buf: buf, off: 1}
	rec := telemetry.Record{}
	rec.Time = int64(r.u64())
	rec.Window = int64(r.u64())
	switch buf[0] {
	case TagPingProbe:
		p := &telemetry.PingProbe{}
		p.Timestamp = int64(r.u64())
		p.SrcIP = r.u32()
		p.SrcCluster = r.u32()
		p.DstIP = r.u32()
		p.DstCluster = r.u32()
		p.RTTMicros = r.u32()
		p.ErrCode = r.u32()
		rec.Data = p
		rec.WireSize = telemetry.PingProbeWireSize
	case TagToRProbe:
		p := &telemetry.ToRProbe{}
		p.Timestamp = int64(r.u64())
		p.SrcToR = r.u32()
		p.DstToR = r.u32()
		p.RTTMicros = r.u32()
		rec.Data = p
		rec.WireSize = telemetry.ToRProbeWireSize
	case TagLogLine:
		p := &telemetry.LogLine{}
		p.Timestamp = int64(r.u64())
		p.Raw = r.str()
		rec.Data = p
		rec.WireSize = len(p.Raw)
	case TagJobStats:
		p := &telemetry.JobStats{}
		p.Timestamp = int64(r.u64())
		p.Tenant = r.str()
		p.StatName = r.str()
		p.Stat = math.Float64frombits(r.u64())
		p.Bucket = int(int32(r.u32()))
		rec.Data = p
		rec.WireSize = p.JobStatsWireSize()
	case TagAggRow:
		p := &telemetry.AggRow{}
		p.Key.Num = r.u64()
		p.Key.Str = r.str()
		p.Window = int64(r.u64())
		p.Count = int64(r.u64())
		p.Sum = math.Float64frombits(r.u64())
		p.Min = math.Float64frombits(r.u64())
		p.Max = math.Float64frombits(r.u64())
		rec.Data = p
		rec.WireSize = p.AggRowWireSize()
	case TagQuantileRow:
		p := &telemetry.QuantileRow{}
		p.Key.Num = r.u64()
		p.Key.Str = r.str()
		p.Window = int64(r.u64())
		p.Lo = math.Float64frombits(r.u64())
		p.Hi = math.Float64frombits(r.u64())
		p.Total = int64(r.u64())
		n := r.uvarint()
		if r.err == nil && n > uint64(len(buf)) {
			return telemetry.Record{}, 0, ErrShortBuffer
		}
		if r.err == nil {
			p.Counts = make([]int64, n)
			for i := range p.Counts {
				p.Counts[i] = int64(r.uvarint())
			}
		}
		rec.Data = p
		rec.WireSize = p.WireSize()
	case TagWatermark:
		p := &Watermark{}
		p.Time = int64(r.u64())
		rec.Data = p
		rec.WireSize = 17
	case TagHello:
		p := &Hello{}
		p.Source = r.u32()
		p.Seq = r.u64()
		// The version field was appended in v2 builds, the HA term after
		// it, the compression capability after that, and the admission
		// extension (SLO class + tenant) after that; a genuinely old
		// peer's Hello ends early, which decodes as Version 0 (rejected),
		// Term 0 (pre-HA), Compress false and an unspecified class with
		// no tenant label. Hello records must travel in single-record
		// frames for these trailing extensions to be unambiguous (they
		// always have).
		if r.err == nil && r.off < len(buf) {
			p.Version = uint32(r.uvarint())
		}
		if r.err == nil && r.off < len(buf) {
			p.Term = r.uvarint()
		}
		if r.err == nil && r.off < len(buf) {
			p.Compress = r.u8() != 0
		}
		if r.err == nil && r.off < len(buf) {
			p.Class = r.u8()
		}
		if r.err == nil && r.off < len(buf) {
			p.Tenant = r.str()
		}
		rec.Data = p
		rec.WireSize = 29
	case TagAck:
		p := &Ack{}
		p.Source = r.u32()
		p.Seq = r.u64()
		if r.err == nil && r.off < len(buf) {
			p.Version = uint32(r.uvarint())
		}
		if r.err == nil && r.off < len(buf) {
			p.Term = r.uvarint()
		}
		if r.err == nil && r.off < len(buf) {
			p.Compress = r.u8() != 0
		}
		// Admission extension: throttle hint + replay request.
		if r.err == nil && r.off < len(buf) {
			p.ThrottleMicros = r.uvarint()
		}
		if r.err == nil && r.off < len(buf) {
			p.Replay = r.u8() != 0
		}
		rec.Data = p
		rec.WireSize = 29
	case TagEpochEnd:
		p := &EpochEnd{}
		p.Seq = r.u64()
		p.Watermark = int64(r.u64())
		// Trace-context extension: a pre-trace peer's EpochEnd ends here
		// and decodes as TraceID 0 (untraced). EpochEnd travels alone in
		// its frame, so trailing bytes are unambiguous (same convention as
		// the Hello/Ack extensions).
		if r.err == nil && r.off < len(buf) {
			p.TraceID = r.uvarint()
		}
		if r.err == nil && r.off < len(buf) {
			p.StartMicros = unzigzag(r.uvarint())
		}
		if r.err == nil && r.off < len(buf) {
			p.GenMicros = r.uvarint()
		}
		if r.err == nil && r.off < len(buf) {
			p.PipeMicros = r.uvarint()
		}
		if r.err == nil && r.off < len(buf) {
			p.EncMicros = r.uvarint()
		}
		if r.err == nil && r.off < len(buf) {
			p.SentMicros = unzigzag(r.uvarint())
		}
		rec.Data = p
		rec.WireSize = 33
	case TagSnapshotHeader:
		p := &SnapshotHeader{}
		p.Seq = r.u64()
		p.Watermark = int64(r.u64())
		p.EmittedWM = int64(r.u64())
		p.Acked = r.u64()
		// BaseID/Delta were appended for delta snapshots and Term for HA;
		// older snapshot files end early and decode as a full, term-0
		// snapshot.
		if r.err == nil && r.off < len(buf) {
			p.BaseID = r.uvarint()
			p.Delta = r.u8() != 0
		}
		if r.err == nil && r.off < len(buf) {
			p.Term = r.uvarint()
		}
		rec.Data = p
		rec.WireSize = 49
	case TagStageMeta:
		p := &StageMeta{}
		p.Stage = int(r.uvarint())
		p.Replace = r.u8() != 0
		n := r.uvarint()
		if r.err == nil && n > uint64(len(buf)) {
			return telemetry.Record{}, 0, ErrShortBuffer
		}
		if r.err == nil && n > 0 {
			p.Closed = make([]int64, n)
			prev := int64(0)
			for i := range p.Closed {
				prev += unzigzag(r.uvarint())
				p.Closed[i] = prev
			}
		}
		rec.Data = p
		rec.WireSize = 20 + 9*len(p.Closed)
	case TagSourceState:
		p := &SourceState{}
		p.Source = r.u32()
		p.Watermark = int64(r.u64())
		p.AppliedSeq = r.u64()
		rec.Data = p
		rec.WireSize = 37
	case TagLoadFactors:
		p := &LoadFactors{}
		n := r.uvarint()
		if r.err == nil && n > uint64(len(buf))/8 {
			return telemetry.Record{}, 0, ErrShortBuffer
		}
		if r.err == nil {
			p.Factors = make([]float64, n)
			for i := range p.Factors {
				p.Factors[i] = math.Float64frombits(r.u64())
			}
		}
		rec.Data = p
		rec.WireSize = 18 + 8*len(p.Factors)
	case TagReplayEpoch:
		p := &ReplayEpoch{}
		p.Seq = r.u64()
		p.Data = r.bytes()
		rec.Data = p
		rec.WireSize = 26 + len(p.Data)
	case TagReplHello:
		p := &ReplHello{}
		p.LastID = r.u64()
		p.LogWM = int64(r.u64())
		if r.err == nil && r.off < len(buf) {
			p.Version = uint32(r.uvarint())
		}
		rec.Data = p
		rec.WireSize = 33
	case TagReplSnapshot:
		p := &ReplSnapshot{}
		p.ID = r.u64()
		p.BaseID = r.uvarint()
		p.Seq = r.u64()
		p.Term = r.uvarint()
		p.Delta = r.u8() != 0
		p.Data = r.bytes()
		rec.Data = p
		rec.WireSize = 40 + len(p.Data)
	case TagReplAck:
		p := &ReplAck{}
		p.ID = r.u64()
		p.Seq = r.u64()
		rec.Data = p
		rec.WireSize = 33
	default:
		return telemetry.Record{}, 0, fmt.Errorf("%w: 0x%02x", ErrUnknownTag, buf[0])
	}
	if r.err != nil {
		return telemetry.Record{}, 0, r.err
	}
	return rec, r.off, nil
}
