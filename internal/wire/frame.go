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
// encoded records for one logical stream (identified by StreamID). Data
// frames are columnar (wire v4), the only data-frame format; control
// frames are count-prefixed row frames (AppendRowFrame) — they are
// single tiny records.
type FrameWriter struct {
	w        *bufio.Writer
	buf      []byte
	compress bool
	cbuf     []byte // raw columnar payload scratch when compressing
	zw       *flate.Writer
	enc      columnarEncoder
}

// NewFrameWriter wraps w in a buffered frame writer.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriter(w)}
}

// SetCompression switches data frames to the flate-compressed columnar
// encoding (control frames are never compressed). Every FrameReader
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
	// Records is the batch payload of a row frame: a control frame, or a
	// data frame ReadRows materialized.
	Records telemetry.Batch
	// Cols is the batch payload of a columnar frame in SoA form, as
	// ReadFrame decodes it; a writer prefers it to Records when both are
	// set. Exactly one of Records/Cols is set for a decoded frame.
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

// WriteFrame encodes and writes one frame: a control frame as a row
// frame (AppendRowFrame), which carries Records only, and any other
// frame columnar, from Cols when set and from Records otherwise. It does
// not flush; call Flush at epoch boundaries.
func (fw *FrameWriter) WriteFrame(f Frame) error {
	var err error
	switch {
	case f.StreamID == ControlStreamID && f.Cols != nil:
		return fmt.Errorf("wire: control frame cannot carry a columnar batch")
	case f.StreamID == ControlStreamID:
		fw.buf, err = AppendRowFrame(fw.buf[:0], f.StreamID, f.Source, f.Records)
	case fw.compress:
		if fw.cbuf, err = fw.encodePayload(fw.cbuf[:0], f); err == nil {
			fw.buf = appendFrameHeader(fw.buf[:0], f.StreamID, f.Source, ColumnarFlateMarker)
			fw.buf = binary.AppendUvarint(fw.buf, uint64(len(fw.cbuf)))
			err = fw.deflate(fw.cbuf)
		}
	default:
		fw.buf, err = fw.encodePayload(appendFrameHeader(fw.buf[:0], f.StreamID, f.Source, ColumnarMarker), f)
	}
	if err == nil {
		err = finishFrame(fw.buf, 0)
	}
	if err != nil {
		return err
	}
	_, err = fw.w.Write(fw.buf)
	return err
}

// AppendRowFrame appends one complete count-prefixed row frame — length
// prefix, 12-byte header, then each record's row encoding — to dst: the
// control-frame format and the on-disk format of checkpoint.ResultLog.
func AppendRowFrame(dst []byte, streamID, source uint32, recs telemetry.Batch) ([]byte, error) {
	start := len(dst)
	dst = appendFrameHeader(dst, streamID, source, uint32(len(recs)))
	var err error
	for i := 0; i < len(recs) && err == nil; i++ {
		dst, err = EncodeRecord(dst, recs[i])
	}
	if err == nil {
		err = finishFrame(dst, start)
	}
	return dst, err
}

// appendFrameHeader opens a frame: a length prefix (patched by
// finishFrame), the stream and source ids, and the record count or
// columnar marker.
func appendFrameHeader(dst []byte, streamID, source, count uint32) []byte {
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, streamID)
	dst = binary.BigEndian.AppendUint32(dst, source)
	return binary.BigEndian.AppendUint32(dst, count)
}

// finishFrame bounds the frame that starts at buf[start:] by MaxFrameSize
// and patches its length prefix.
func finishFrame(buf []byte, start int) error {
	n := len(buf) - start - 4
	if n > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds max %d", n, MaxFrameSize)
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return nil
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

// Flush flushes buffered frames to the underlying writer.
func (fw *FrameWriter) Flush() error { return fw.w.Flush() }

// FrameReader reads frames written by FrameWriter. It decodes row,
// columnar and compressed frames transparently; its columnar decoder (and thus the
// cross-frame string canonicalization cache) lives for the reader's
// lifetime — one reader per connection or per snapshot store.
type FrameReader struct {
	r     *bufio.Reader
	buf   []byte
	dec   *ColumnarDecoder
	zsrc  *bytes.Reader
	zr    io.ReadCloser
	zbuf  []byte
	stats FrameStats
	rows  ColumnarBatch // ReadRows' decode scratch, reused frame to frame
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

// SetColumnarExec is a no-op kept for callers built against the
// two-decoder reader: ReadFrame always decodes a columnar frame to
// Frame.Cols, and ReadRows is the row form.
func (fr *FrameReader) SetColumnarExec(bool) {}

// ReadFrame reads and decodes the next frame: a row frame to Records, a
// columnar one (compressed or not) to Cols. It returns io.EOF cleanly at
// end of stream.
func (fr *FrameReader) ReadFrame() (Frame, error) { return fr.read(nil) }

// read is ReadFrame decoding a columnar payload into cb (a fresh batch
// when nil).
func (fr *FrameReader) read(cb *ColumnarBatch) (Frame, error) {
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
		return fr.decodeColumnar(f, fr.buf[12:], cb)
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
		return fr.decodeColumnar(f, raw, cb)
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

// ReadRows reads the next frame like ReadFrame and returns its payload as
// Records whatever form it travelled in, for the consumers that keep
// rows (snapshot stages, the standby's result mirror). A columnar frame
// decodes through the reader's pooled arenas, is materialized into rows
// that own their memory, and the arenas are recycled before ReadRows
// returns — so a reader read with ReadRows must not also hold batches
// ReadFrame returned.
func (fr *FrameReader) ReadRows() (Frame, error) {
	fr.EnableArenaPooling()
	fr.rows.Reset()
	f, err := fr.read(&fr.rows)
	if err != nil || f.Cols == nil {
		return f, err
	}
	if n := f.Cols.Records(); n > 0 {
		f.Records = make(telemetry.Batch, 0, n)
		f.Cols.AppendRows(&f.Records)
	}
	f.Cols = nil
	clear(fr.rows.Secs) // the scratch must not pin this frame's rows
	fr.RecycleArenas()
	return f, nil
}

// decodeColumnar decodes a columnar payload into cb, or a fresh batch
// when nil, and makes it the frame's Cols.
func (fr *FrameReader) decodeColumnar(f Frame, payload []byte, cb *ColumnarBatch) (Frame, error) {
	if fr.dec == nil {
		fr.dec = NewColumnarDecoder()
	}
	if cb == nil {
		cb = &ColumnarBatch{}
	}
	f.Cols = cb
	if err := fr.dec.DecodeColumnar(payload, f.Cols); err != nil {
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
