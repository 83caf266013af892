package plan

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// logSection presents lines as one SoA log section, row i stamped with
// event time i.
func logSection(lines []string) wire.ColSec {
	sec := wire.ColSec{
		Tag: wire.TagLogLine, Times: make([]int64, len(lines)), Windows: make([]int64, len(lines)),
		Log: &wire.LogCols{TS: make([]int64, len(lines)), Raw: lines},
	}
	for i := range lines {
		sec.Times[i], sec.Log.TS[i] = int64(i), int64(i)
	}
	return sec
}

// FuzzLogKernelsDifferential holds the LogAnalytics SoA chain —
// normalizeKernel → patternsColPred → parseKernel → bucketizeKernel — to
// the query's row functions on arbitrary line bytes: the same normalized
// strings, the same drop decisions at the filter and at the parser, and
// the same (time, tenant, stat name, stat, bucket) rows in the same
// order. The input is split on newlines into the lines of one section;
// an odd first byte also puts a selection vector on it.
func FuzzLogKernelsDifferential(f *testing.F) {
	for _, s := range []string{
		// Lower-casing changes the byte length: İ (U+0130) grows, the
		// Kelvin sign (U+212A) shrinks to k.
		"  Tenant Name=\u0130stanbul, CPU Util=5.0  ",
		"TENANT NAME=\u212Aelvin, CPU UTIL=1",
		// Space that only the Unicode tables know, and bytes that are not
		// UTF-8 at all.
		"\u00a0Tenant Name=a, cpu util=1\u00a0\n\u0085tenant name=a, cpu util=2\u0085",
		"tenant name=\xff\xfe, cpu util=3\n\x85 Tenant name=a, cpu util=4 \xa0",
		"",
		"\n\n",
		" #tenant name=a, cpu util=5",
		"tenant name=a #, cpu util=5",
		"garbage, tenant name=x, cpu util=5",
		"cpu util=5, memory util=6, tenant name=z",
		"tenant name=a, cpu util=5, tenant name=b",
		"tenant name=a, cpu util=5, memory util=oops, job running time=7",
		"cpu util=5, memory util=6",
		"tenant name=a, cpu util=nan\ntenant name=a, cpu util=+Inf\ntenant name=a, cpu util=0x1p-2",
		"tenant name=a, cpu util=-3, memory util=100, job running time=1e300",
		"\x01\t Tenant Name=sel, CPU Util=9 \r\nkernel: eth0 link state change\nTenant Name=sel2, Memory Util=1",
		strings.Repeat("Tenant Name=long, CPU Util=50, ", 20) + "\u0130",
	} {
		f.Add([]byte(s))
	}
	// Every ASCII byte but the line break, at every offset in a word: the
	// bytes around A–Z are where eight-byte lower-casing could slip.
	var ascii []byte
	for c := byte(1); c < 0x80; c++ {
		if c != '\n' {
			ascii = append(ascii, c)
		}
	}
	for off := range 8 {
		f.Add(append([]byte("tenant name=x, cpu util=1 "[:off]), ascii...))
	}
	g := workload.NewLogGen(workload.DefaultLogConfig(3))
	var gen []string
	for _, rec := range g.Next(8) {
		gen = append(gen, rec.Data.(*telemetry.LogLine).Raw)
	}
	f.Add([]byte(strings.Join(gen, "\n")))

	q := LogAnalytics()
	normalize, patterns, parse, bucketize := q.Ops[1].MapFn, q.Ops[2].PredFn, q.Ops[3].MapFn, q.Ops[4].MapFn

	f.Fuzz(func(t *testing.T, data []byte) {
		in := logSection(strings.Split(string(data), "\n"))
		if len(data) > 0 && data[0]&1 == 1 {
			in.Sel = []int32{}
			for i := range in.Times {
				if i%3 != 1 {
					in.Sel = append(in.Sel, int32(i))
				}
			}
		}

		// Row reference, one record at a time through the row functions.
		var wantNorm []string
		var wantKept []bool
		var want telemetry.Batch
		var rows telemetry.Batch
		in.AppendRows(&rows)
		for _, rec := range rows {
			normalize(rec, func(n telemetry.Record) {
				wantNorm = append(wantNorm, n.Data.(*telemetry.LogLine).Raw)
				keep := patterns(n)
				wantKept = append(wantKept, keep)
				if !keep {
					return
				}
				parse(n, func(p telemetry.Record) {
					bucketize(p, func(b telemetry.Record) { want = append(want, b) })
				})
			})
		}

		// SoA chain over the same section.
		var norm []wire.ColSec
		if !normalizeKernel(&in, &norm) || len(norm) != 1 || norm[0].Sel != nil {
			t.Fatalf("normalizeKernel: %d sections", len(norm))
		}
		ns := &norm[0]
		if len(ns.Log.Raw) != len(wantNorm) || len(ns.Times) != len(wantNorm) {
			t.Fatalf("normalize emitted %d lines (%d times), rows %d", len(ns.Log.Raw), len(ns.Times), len(wantNorm))
		}
		keep, ok := patternsColPred(ns)
		if !ok {
			t.Fatal("patternsColPred declined a log section")
		}
		ns.Sel = []int32{}
		for i, w := range wantNorm {
			if ns.Log.Raw[i] != w {
				t.Fatalf("line %d normalizes to %q, rows %q", i, ns.Log.Raw[i], w)
			}
			if keep(i) != wantKept[i] {
				t.Fatalf("line %d (%q): filter keeps %v, rows %v", i, w, keep(i), wantKept[i])
			}
			if keep(i) {
				ns.Sel = append(ns.Sel, int32(i))
			}
		}
		var parsed, out []wire.ColSec
		if !parseKernel(ns, &parsed) || len(parsed) != 1 {
			t.Fatalf("parseKernel: %d sections", len(parsed))
		}
		if !bucketizeKernel(&parsed[0], &out) || len(out) != 1 {
			t.Fatalf("bucketizeKernel: %d sections", len(out))
		}
		got := &out[0]
		if got.Len() != len(want) || got.N() != len(want) {
			t.Fatalf("SoA chain emitted %d rows (%d live), rows %d", got.N(), got.Len(), len(want))
		}
		for i, rec := range want {
			w := rec.Data.(*telemetry.JobStats)
			c := got.Job
			if got.Times[i] != rec.Time || got.Windows[i] != rec.Window || c.TS[i] != w.Timestamp ||
				c.Tenant[i] != w.Tenant || c.StatName[i] != w.StatName ||
				math.Float64bits(c.Stat[i]) != math.Float64bits(w.Stat) || c.Bucket[i] != int64(w.Bucket) {
				t.Fatalf("row %d: SoA (%d %d %d %q %q %v %d), rows (%d %d %+v)", i,
					got.Times[i], got.Windows[i], c.TS[i], c.Tenant[i], c.StatName[i], c.Stat[i], c.Bucket[i],
					rec.Time, rec.Window, *w)
			}
			if got.RowBytes(i) != rec.WireSize {
				t.Fatalf("row %d weighs %d, rows %d", i, got.RowBytes(i), rec.WireSize)
			}
		}
	})
}

// TestLogKernelAllocs is the allocation ceiling of the LogAnalytics map
// kernels: normalize + (filter) + parse + bucketize over one section of
// generated lines allocate the output columns, one string arena, the
// selection vector and the section headers — the same count (±2) for
// 5 000 lines as for 500, nothing per line. (A line the parser rejects costs
// strconv's error value; the generator's chatter lines never reach the
// parser, the pattern filter drops them.)
func TestLogKernelAllocs(t *testing.T) {
	chain := func(lines int) float64 {
		g := workload.NewLogGen(workload.DefaultLogConfig(9))
		raw := make([]string, 0, lines)
		for _, rec := range g.Next(lines) {
			raw = append(raw, rec.Data.(*telemetry.LogLine).Raw)
		}
		in := logSection(raw)
		norm := make([]wire.ColSec, 0, 1)
		parsed := make([]wire.ColSec, 0, 1)
		out := make([]wire.ColSec, 0, 1)
		rows := 0
		avg := testing.AllocsPerRun(10, func() {
			norm, parsed, out = norm[:0], parsed[:0], out[:0]
			normalizeKernel(&in, &norm)
			keep, _ := patternsColPred(&norm[0])
			sel := make([]int32, 0, lines)
			for i := 0; i < lines; i++ {
				if keep(i) {
					sel = append(sel, int32(i))
				}
			}
			norm[0].Sel = sel
			parseKernel(&norm[0], &parsed)
			bucketizeKernel(&parsed[0], &out)
			rows = out[0].Len()
		})
		if rows < 2*lines {
			t.Fatalf("%d lines parsed to %d rows — the generator's lines are not reaching the parser", lines, rows)
		}
		return avg
	}
	small, large := chain(500), chain(5000)
	// Not strict equality: under -race the larger section costs one
	// allocation more. A per-line allocation would cost thousands.
	if large > 16 || large > small+2 {
		t.Fatalf("log kernels allocate %.0f times for 5000 lines, %.0f for 500 (want the same ±2 and ≤ 16)", large, small)
	}
}

// TestParseKernelSharesRepeatedKeys pins the parse kernel's one slice per
// repeated key: over a section of generated lines, every row whose tenant
// (or stat name) has the bytes of an earlier row's shares that row's
// string data, so the JobStats kernel's address-keyed symbol cache hits
// on it.
func TestParseKernelSharesRepeatedKeys(t *testing.T) {
	g := workload.NewLogGen(workload.DefaultLogConfig(5))
	var raw []string
	for _, rec := range g.Next(4000) {
		raw = append(raw, rec.Data.(*telemetry.LogLine).Raw)
	}
	in := logSection(raw)
	var norm, parsed []wire.ColSec
	normalizeKernel(&in, &norm)
	keep, _ := patternsColPred(&norm[0])
	norm[0].Sel = []int32{}
	for i := range norm[0].Log.Raw {
		if keep(i) {
			norm[0].Sel = append(norm[0].Sel, int32(i))
		}
	}
	parseKernel(&norm[0], &parsed)
	j := parsed[0].Job
	if len(j.Tenant) < 3*len(norm[0].Sel)-3 {
		t.Fatalf("%d lines parsed to %d rows", len(norm[0].Sel), len(j.Tenant))
	}
	for col, names := range map[string][]string{"tenant": j.Tenant, "stat name": j.StatName} {
		first := map[string]*byte{}
		for i, s := range names {
			p := unsafe.StringData(s)
			if q, ok := first[s]; !ok {
				first[s] = p
			} else if q != p {
				t.Fatalf("row %d: %s %q is a slice of its own, not of the first row's", i, col, s)
			}
		}
		if col == "stat name" && len(first) != 3 || col == "tenant" && len(first) != len(g.Tenants()) {
			t.Fatalf("%d distinct %ss", len(first), col)
		}
	}
}
