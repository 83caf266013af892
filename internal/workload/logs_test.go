package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"strconv"
	"testing"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// TestLogGenLinesPinned pins the first 10 000 lines (event time and
// text) of both LogAnalytics emitters for three seeds, so a rewrite of
// the line formatter must reproduce every byte the committed goldens and
// the benchmark's log workload were generated from.
func TestLogGenLinesPinned(t *testing.T) {
	const lines = 10_000
	want := map[uint64]string{
		1:  "5673c9eac453ee25a4583b8314fc89d1e7da184eb23cbf2a34e72110cd1cee0c",
		9:  "26bb4ea3ed289f8a80cc3cd976177b3acc367123e1f11a5c22913c0fb3900892",
		53: "3c97e52638be217af97bb74fd1cfbdfef5d0461f083aefe98a5fa6e5ee4ee40f",
	}
	for seed, sum := range want {
		rows := hashLines(seed, lines, func(h hash.Hash, n *int, g *LogGen) {
			for _, r := range g.NextWindow(1e6) {
				if *n < lines {
					writeLine(h, r.Time, r.Data.(*telemetry.LogLine).Raw)
					*n++
				}
			}
		})
		var cb wire.ColumnarBatch
		cols := hashLines(seed, lines, func(h hash.Hash, n *int, g *LogGen) {
			cb.Secs = cb.Secs[:0]
			g.NextWindowCols(1e6, &cb)
			for _, s := range cb.Secs {
				for i, raw := range s.Log.Raw {
					if *n < lines {
						writeLine(h, s.Log.TS[i], raw)
						*n++
					}
				}
			}
		})
		if rows != sum || cols != sum {
			t.Errorf("seed %d: NextWindow lines hash %s, NextWindowCols %s, want %s", seed, rows, cols, sum)
		}
	}
}

// hashLines runs window until it has hashed n lines of a fresh default
// generator for seed and returns the SHA-256.
func hashLines(seed uint64, n int, window func(h hash.Hash, n *int, g *LogGen)) string {
	h := sha256.New()
	g := NewLogGen(DefaultLogConfig(seed))
	for done := 0; done < n; {
		window(h, &done, g)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeLine(h hash.Hash, ts int64, line string) {
	h.Write(strconv.AppendInt(nil, ts, 10))
	h.Write([]byte{'\t'})
	h.Write([]byte(line))
	h.Write([]byte{'\n'})
}
