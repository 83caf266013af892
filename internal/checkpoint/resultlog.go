package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// ResultLog is the SP's durable, exactly-once result sink: an
// append-only file of wire frames holding every final row the query
// emitted, in emission order. Appends are gated by a monotone
// emitted-watermark high-water mark, so rows re-emitted while replaying
// epochs after a restart (their windows close again) are recognized as
// duplicates and dropped — the log holds each result row exactly once,
// and "final results" after any number of crashes are byte-identical to
// an uninterrupted run.
//
// On open the log scans itself, truncates any torn tail frame (a crash
// mid-append) and recovers the high-water mark.
type ResultLog struct {
	f         *os.File
	emittedWM int64
	rows      int64
	// size is the byte offset past the last fully written frame; a failed
	// append truncates back to it so a torn frame never strands the rows
	// appended after it.
	size int64
}

// OpenResultLog opens (creating if needed) a result log and recovers
// its emitted-watermark high-water mark.
func OpenResultLog(path string) (*ResultLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open result log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	good, rows, wm := scanResultFrames(data)
	if good < int64(len(data)) {
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &ResultLog{f: f, emittedWM: wm, rows: rows, size: good}, nil
}

// scanResultFrames walks the log's frames, returning the byte offset of
// the last complete, decodable frame plus the row count and the max
// row event time (the recovered high-water mark).
func scanResultFrames(data []byte) (good int64, rows int64, wm int64) {
	off := 0
	for {
		if off+4 > len(data) {
			return int64(off), rows, wm
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n > wire.MaxFrameSize || off+4+n > len(data) {
			return int64(off), rows, wm
		}
		f, err := wire.NewFrameReader(bytes.NewReader(data[off : off+4+n])).ReadFrame()
		if err != nil {
			return int64(off), rows, wm
		}
		for _, rec := range f.Records {
			rows++
			if rec.Time > wm {
				wm = rec.Time
			}
		}
		off += 4 + n
	}
}

// Append filters out rows already covered by the high-water mark,
// durably appends the remainder as one frame, and returns exactly the
// rows that were new. Result rows are stamped with their window-end
// event time, and windows close monotonically with the watermark, so a
// row's time being at or below the mark identifies a replayed duplicate.
func (l *ResultLog) Append(rowsIn telemetry.Batch) (telemetry.Batch, error) {
	var kept telemetry.Batch
	maxT := l.emittedWM
	for _, rec := range rowsIn {
		if rec.Time <= l.emittedWM {
			continue
		}
		kept = append(kept, rec)
		if rec.Time > maxT {
			maxT = rec.Time
		}
	}
	if len(kept) == 0 {
		return nil, nil
	}
	// Row frames, not columnar ones: this is the log's on-disk format.
	frame, err := wire.AppendRowFrame(nil, 0, 0, kept)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode result rows: %w", err)
	}
	if _, err := l.f.Write(frame); err != nil {
		// A partial frame may have reached the file; rewind to the last
		// good frame boundary so the next append does not strand rows
		// behind a torn frame. The high-water mark is untouched, so the
		// caller may retry these rows.
		_ = l.f.Truncate(l.size)
		_, _ = l.f.Seek(l.size, io.SeekStart)
		return nil, fmt.Errorf("checkpoint: append result rows: %w", err)
	}
	l.size += int64(len(frame))
	l.emittedWM = maxT
	l.rows += int64(len(kept))
	return kept, nil
}

// EmittedWM returns the watermark through which results are durably
// logged.
func (l *ResultLog) EmittedWM() int64 { return l.emittedWM }

// Rows returns the number of rows in the log.
func (l *ResultLog) Rows() int64 { return l.rows }

// Close closes the underlying file.
func (l *ResultLog) Close() error { return l.f.Close() }

// ReadResultLog decodes every row of a result log, in append order.
func ReadResultLog(path string) (telemetry.Batch, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	good, _, _ := scanResultFrames(data)
	fr := wire.NewFrameReader(bytes.NewReader(data[:good]))
	var out telemetry.Batch
	for {
		f, err := fr.ReadFrame()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, f.Records...)
	}
}
