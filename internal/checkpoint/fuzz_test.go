package checkpoint

import (
	"bytes"
	"testing"

	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
)

// FuzzDecodeDeltaSnapshot checks the snapshot decoder never panics on
// arbitrary bytes and that every successfully decoded snapshot
// round-trips through Encode/DecodeSnapshot byte-stably.
func FuzzDecodeDeltaSnapshot(f *testing.F) {
	seed := func(s *Snapshot) {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	full := sampleSnapshot()
	seed(full)
	delta := sampleSnapshot()
	delta.Delta = true
	delta.BaseID = 3
	delta.Meta = map[int]stream.StageDelta{
		2: {Closed: []int64{-1, 4}},
		5: {Replace: true},
	}
	agg := telemetry.NewAggRow(telemetry.StrKey("tenant-001|cpu util|4"), 1, 3)
	delta.Stages[5] = telemetry.Batch{telemetry.NewAggRecord(agg, 20_000_000)}
	seed(delta)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(bytes.NewReader(data))
		if err != nil {
			return // corrupt input is fine, panics are not
		}
		var enc bytes.Buffer
		if err := s.Encode(&enc); err != nil {
			t.Fatalf("re-encode of decoded snapshot: %v", err)
		}
		s2, err := DecodeSnapshot(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decode of re-encoded snapshot: %v", err)
		}
		var enc2 bytes.Buffer
		if err := s2.Encode(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("snapshot encoding not stable:\n%x\n%x", enc.Bytes(), enc2.Bytes())
		}
	})
}
