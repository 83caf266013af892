package wire

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"jarvis/internal/telemetry"
)

// MaxFrameSize bounds a single frame to protect against corrupt length
// prefixes. A frame holds one epoch's batch for one stream; 64 MiB is far
// above any realistic epoch.
const MaxFrameSize = 64 << 20

// FrameWriter writes length-prefixed frames, each containing a batch of
// encoded records for one logical stream (identified by StreamID).
type FrameWriter struct {
	w        *bufio.Writer
	buf      []byte
	columnar bool
	compress bool
	cbuf     []byte // raw columnar payload scratch when compressing
	zw       *flate.Writer
	enc      columnarEncoder
}

// NewFrameWriter wraps w in a buffered frame writer.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriter(w)}
}

// SetColumnar switches data frames to the columnar encoding, the only
// data-frame format the transport ships (control frames stay
// count-prefixed row frames — they are single tiny records). A writer
// left in row mode produces the count-prefixed format throughout: the
// on-disk format of checkpoint.ResultLog.
func (fw *FrameWriter) SetColumnar(v bool) { fw.columnar = v }

// SetCompression switches columnar data frames to the flate-compressed
// encoding (control and row frames are never compressed). It has no
// effect unless SetColumnar(true) is also in force. Every FrameReader
// inflates compressed frames transparently.
func (fw *FrameWriter) SetCompression(v bool) { fw.compress = v }

// Reset redirects the writer to w, discarding unflushed data but keeping
// the internal encode buffer — repeated encoders (the checkpoint store)
// avoid re-growing a megabyte-scale buffer on every snapshot.
func (fw *FrameWriter) Reset(w io.Writer) { fw.w.Reset(w) }

// Frame is one unit of transfer: a batch of records destined for the
// stream-processor-side control proxy identified by StreamID (paper §V:
// "control proxy attaches an identifier for the operator on stream
// processor that should receive records for further processing").
type Frame struct {
	// StreamID names the SP-side operator/proxy that must consume the
	// batch: index of the drain stage in the deployed plan.
	StreamID uint32
	// Source identifies the data source node the frame came from.
	Source uint32
	// Records is the batch payload.
	Records telemetry.Batch
	// Cols holds the frame's payload in SoA form instead of Records when
	// the reader runs in columnar-execution mode (SetColumnarExec) and
	// the frame arrived columnar. Exactly one of Records/Cols is set for
	// a data frame.
	Cols *ColumnarBatch
	// Bytes caches PayloadBytes once a holder has summed it — a holder
	// that leaves the payload as it is from then on (the receiver, which
	// sums a frame at arrival and again needs the sum at admission and at
	// ingest). 0 means not summed. Writers ignore it.
	Bytes int64
}

// PayloadBytes returns the frame's accounting payload size, whichever
// form it was decoded into: the cached sum when there is one.
func (f *Frame) PayloadBytes() int64 {
	if f.Bytes != 0 {
		return f.Bytes
	}
	if f.Cols != nil {
		return f.Cols.TotalBytes()
	}
	return f.Records.TotalBytes()
}

// WriteFrame encodes and writes one frame. A columnar writer's data
// frame may carry its payload as Records or as Cols (when both are set,
// Cols wins); a row frame carries Records only, and Cols is an error. It
// does not flush; call Flush at epoch boundaries.
func (fw *FrameWriter) WriteFrame(f Frame) error {
	fw.buf = fw.buf[:0]
	fw.buf = binary.BigEndian.AppendUint32(fw.buf, f.StreamID)
	fw.buf = binary.BigEndian.AppendUint32(fw.buf, f.Source)
	var err error
	if fw.columnar && f.StreamID != ControlStreamID {
		if fw.compress {
			fw.cbuf, err = fw.encodePayload(fw.cbuf[:0], f)
			if err != nil {
				return err
			}
			fw.buf = binary.BigEndian.AppendUint32(fw.buf, ColumnarFlateMarker)
			fw.buf = binary.AppendUvarint(fw.buf, uint64(len(fw.cbuf)))
			if err := fw.deflate(fw.cbuf); err != nil {
				return err
			}
			return fw.writePayload()
		}
		fw.buf = binary.BigEndian.AppendUint32(fw.buf, ColumnarMarker)
		fw.buf, err = fw.encodePayload(fw.buf, f)
		if err != nil {
			return err
		}
		return fw.writePayload()
	}
	if f.Cols != nil {
		return fmt.Errorf("wire: row frame on stream %d cannot carry a columnar batch", f.StreamID)
	}
	fw.buf = binary.BigEndian.AppendUint32(fw.buf, uint32(len(f.Records)))
	for _, rec := range f.Records {
		fw.buf, err = EncodeRecord(fw.buf, rec)
		if err != nil {
			return err
		}
	}
	return fw.writePayload()
}

// encodePayload appends the frame's columnar payload (table offset,
// sections, string table) to dst, straight from columns when the frame
// carries them.
func (fw *FrameWriter) encodePayload(dst []byte, f Frame) ([]byte, error) {
	if f.Cols != nil {
		return fw.enc.encodeCols(dst, f.Cols)
	}
	return fw.enc.encode(dst, f.Records)
}

// sliceWriter appends to a byte slice through a stable pointer, so the
// flate writer can emit into fw.buf while it reallocates.
type sliceWriter struct{ b *[]byte }

func (s sliceWriter) Write(p []byte) (int, error) {
	*s.b = append(*s.b, p...)
	return len(p), nil
}

// deflate appends the flate stream of raw to fw.buf.
func (fw *FrameWriter) deflate(raw []byte) error {
	if fw.zw == nil {
		zw, err := flate.NewWriter(sliceWriter{&fw.buf}, flate.BestSpeed)
		if err != nil {
			return err
		}
		fw.zw = zw
	} else {
		fw.zw.Reset(sliceWriter{&fw.buf})
	}
	if _, err := fw.zw.Write(raw); err != nil {
		return err
	}
	return fw.zw.Close()
}

// writePayload length-prefixes and writes the assembled frame in fw.buf.
func (fw *FrameWriter) writePayload() error {
	if len(fw.buf) > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds max %d", len(fw.buf), MaxFrameSize)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(fw.buf)))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := fw.w.Write(fw.buf)
	return err
}

// Flush flushes buffered frames to the underlying writer.
func (fw *FrameWriter) Flush() error { return fw.w.Flush() }

// FrameReader reads frames written by FrameWriter. It decodes row,
// columnar and compressed frames transparently; its columnar decoder (and thus the
// cross-frame string canonicalization cache) lives for the reader's
// lifetime — one reader per connection or per snapshot store.
type FrameReader struct {
	r       *bufio.Reader
	buf     []byte
	dec     *ColumnarDecoder
	colExec bool
	zsrc    *bytes.Reader
	zr      io.ReadCloser
	zbuf    []byte
	stats   FrameStats
}

// FrameStats is a reader's cumulative wire accounting: frame count,
// bytes as carried on the wire, and the equivalent uncompressed bytes
// (equal to WireBytes when no frame was compressed). The ratio
// RawBytes/WireBytes is the effective wire compression ratio — of flate
// over frames whose integer columns are already bit-packed, so it says
// what the flate wrapper still removes, not how far the records shrank.
type FrameStats struct {
	Frames           int64
	WireBytes        int64
	RawBytes         int64
	CompressedFrames int64
}

// Stats returns the reader's cumulative wire accounting.
func (fr *FrameReader) Stats() FrameStats { return fr.stats }

// NewFrameReader wraps r in a buffered frame reader.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// Reset redirects the reader to r, discarding unread bytes but keeping
// the internal frame buffer and the columnar decoder (with its
// canonicalization cache).
func (fr *FrameReader) Reset(r io.Reader) { fr.r.Reset(r) }

// UseDecoder shares a columnar decoder (and its string canonicalization
// cache) with this reader — callers that read many related streams (a
// snapshot store reading a base + delta chain) decode repeated strings
// to one allocation across all of them.
func (fr *FrameReader) UseDecoder(d *ColumnarDecoder) { fr.dec = d }

// EnableArenaPooling switches the reader's columnar decoder to pooled
// column arenas (creating the decoder if needed). The connection owner
// must call RecycleArenas at epoch boundaries, after every decoded batch
// of the epoch has been consumed.
func (fr *FrameReader) EnableArenaPooling() {
	if fr.dec == nil {
		fr.dec = NewColumnarDecoder()
	}
	fr.dec.EnableArenaPooling()
}

// RecycleArenas returns the column arenas handed out since the last call
// to the decoder's pool. Call only when no ColumnarBatch decoded from
// this reader is referenced anymore.
func (fr *FrameReader) RecycleArenas() {
	if fr.dec != nil {
		fr.dec.RecycleArenas()
	}
}

// RawFrame returns the wire bytes of the frame the last successful
// ReadFrame decoded: the 12-byte header plus payload exactly as carried
// on the wire (still deflated for compressed frames), without the 4-byte
// length prefix. The slice aliases the reader's internal buffer and is
// valid only until the next ReadFrame — callers that retain frames (the
// transport flight recorder) must copy.
func (fr *FrameReader) RawFrame() []byte { return fr.buf }

// SetColumnarExec switches the reader to columnar-execution decoding:
// columnar data frames are returned as SoA batches (Frame.Cols) instead
// of materialized records, so a connection's payload can flow
// decode→execute with zero row materialization (the receiver); snapshot
// and standby readers leave it off and get rows. Row frames (control
// records, result logs) decode to Records either way.
func (fr *FrameReader) SetColumnarExec(v bool) { fr.colExec = v }

// ReadFrame reads and decodes the next frame. It returns io.EOF cleanly at
// end of stream.
func (fr *FrameReader) ReadFrame() (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return Frame{}, fmt.Errorf("wire: frame length %d exceeds max %d", n, MaxFrameSize)
	}
	// Read in bounded steps, growing with the bytes that actually
	// arrive: a corrupt length prefix must not force a MaxFrameSize
	// allocation for a stream that ends after a few bytes.
	fr.buf = fr.buf[:0]
	for read := 0; read < int(n); {
		step := int(n) - read
		if step > 1<<20 {
			step = 1 << 20
		}
		fr.buf = slices.Grow(fr.buf, step)[:read+step]
		if _, err := io.ReadFull(fr.r, fr.buf[read:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
		read += step
	}
	if n < 12 {
		return Frame{}, ErrShortBuffer
	}
	fr.stats.Frames++
	fr.stats.WireBytes += int64(n) + 4
	f := Frame{
		StreamID: binary.BigEndian.Uint32(fr.buf[0:]),
		Source:   binary.BigEndian.Uint32(fr.buf[4:]),
	}
	count := binary.BigEndian.Uint32(fr.buf[8:])
	if count == ColumnarMarker {
		fr.stats.RawBytes += int64(n) + 4
		return fr.decodeColumnar(f, fr.buf[12:])
	}
	if count == ColumnarFlateMarker {
		raw, err := fr.inflateFramePayload(fr.buf[12:])
		if err != nil {
			return Frame{}, fmt.Errorf("wire: compressed frame: %w", err)
		}
		// The equivalent uncompressed frame: 4-byte length prefix plus the
		// 12-byte header plus the inflated columnar payload.
		fr.stats.CompressedFrames++
		fr.stats.RawBytes += int64(len(raw)) + 16
		return fr.decodeColumnar(f, raw)
	}
	fr.stats.RawBytes += int64(n) + 4
	// Every record costs at least a tag byte plus the 16-byte header, so
	// a count the remaining payload cannot hold is corrupt — reject it
	// before pre-allocating a batch sized by attacker-controlled input.
	if uint64(count)*17 > uint64(n-12) {
		return Frame{}, fmt.Errorf("wire: record count %d exceeds frame payload of %d bytes", count, n-12)
	}
	off := 12
	f.Records = make(telemetry.Batch, 0, count)
	for i := uint32(0); i < count; i++ {
		rec, k, err := DecodeRecord(fr.buf[off:])
		if err != nil {
			return Frame{}, fmt.Errorf("wire: record %d/%d: %w", i, count, err)
		}
		off += k
		f.Records = append(f.Records, rec)
	}
	return f, nil
}

// decodeColumnar decodes a columnar payload into the frame, SoA or
// materialized depending on the reader's execution mode.
func (fr *FrameReader) decodeColumnar(f Frame, payload []byte) (Frame, error) {
	if fr.dec == nil {
		fr.dec = NewColumnarDecoder()
	}
	if fr.colExec {
		f.Cols = &ColumnarBatch{}
		if err := fr.dec.DecodeColumnar(payload, f.Cols); err != nil {
			return Frame{}, fmt.Errorf("wire: columnar frame: %w", err)
		}
		return f, nil
	}
	if err := fr.dec.DecodeBatch(payload, &f.Records); err != nil {
		return Frame{}, fmt.Errorf("wire: columnar frame: %w", err)
	}
	return f, nil
}

// inflateFramePayload decompresses a ColumnarFlateMarker frame body
// (uvarint raw length followed by a flate stream) into the reader's
// reusable scratch buffer, returning the raw columnar payload.
func (fr *FrameReader) inflateFramePayload(body []byte) ([]byte, error) {
	rawLen, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, ErrShortBuffer
	}
	if rawLen > MaxFrameSize {
		return nil, fmt.Errorf("wire: compressed payload of %d bytes exceeds max %d", rawLen, MaxFrameSize)
	}
	// Deflate expands at most 1032:1, so a declared length the stream
	// cannot reach is corrupt — reject it before sizing the buffer from it.
	if rawLen > uint64(len(body)-k)*1032+64 {
		return nil, fmt.Errorf("wire: compressed payload declares %d bytes for a %d-byte stream", rawLen, len(body)-k)
	}
	if fr.zsrc == nil {
		fr.zsrc = bytes.NewReader(body[k:])
	} else {
		fr.zsrc.Reset(body[k:])
	}
	if fr.zr == nil {
		fr.zr = flate.NewReader(fr.zsrc)
	} else if err := fr.zr.(flate.Resetter).Reset(fr.zsrc, nil); err != nil {
		return nil, err
	}
	fr.zbuf = slices.Grow(fr.zbuf[:0], int(rawLen))[:rawLen]
	if _, err := io.ReadFull(fr.zr, fr.zbuf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	var one [1]byte
	if n, _ := fr.zr.Read(one[:]); n > 0 {
		return nil, fmt.Errorf("wire: compressed payload longer than declared %d bytes", rawLen)
	}
	return fr.zbuf, nil
}
