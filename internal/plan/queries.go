package plan

import (
	"encoding/binary"
	"math"
	"strings"
	"time"

	"jarvis/internal/operator"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// This file defines the paper's three evaluation queries (Listings 1–3)
// with cost/relay hints calibrated from the numbers the paper states:
//
//   - S2SProbe: F costs 13% of a core at the 10×-scaled rate and keeps
//     86% of records; the whole query needs ≈85% (§VI-B); G+R's output is
//     ≈30% of its input bytes (Fig. 3).
//   - T2TProbe: compute demand exceeds one core at table size 500 and
//     Best-OP cannot place J even at 100% CPU, while the query fits in
//     one core at table size 50 (Fig. 8(b)); the join cost grows with the
//     log of the static-table size (hash-probe model).
//   - LogAnalytics: the query uses 31% of a core at 49.6 Mbps (§VI-B).

// S2SProbe builds the server-to-server latency query of Listing 1.
func S2SProbe() *Query {
	return NewQuery("S2SProbe").
		WithRefRate(workload.PingmeshMbps10x, telemetry.PingProbeWireSize).
		Window(10*time.Second, 1.0).
		FilterExpr("errFilter", Eq(Field("errCode"), Num(0)), 13.0, 0.86).
		GroupAgg("latAgg", operator.ProbePairKey, operator.ProbeRTT, 71.0, 0.30).
		WithAggKernel(operator.AggKernelPingPairRTT)
}

// JoinCostPct models the per-join CPU cost (percent of a core on the
// join's full input at the reference rate) as a function of static-table
// size: a hash probe whose cost grows with table size due to cache
// behaviour. Calibrated so a table of 50 fits the whole T2TProbe in one
// core while a table of 500 makes J unplaceable by operator-level
// partitioning (paper §VI-B, §VI-C).
func JoinCostPct(tableSize int) float64 {
	if tableSize < 1 {
		tableSize = 1
	}
	c := 39.0 + 16.0*math.Log2(float64(tableSize)/50.0)
	if c < 5 {
		c = 5
	}
	return c
}

// T2TProbe builds the ToR-to-ToR latency query of Listing 2 against the
// given IP→ToR table.
func T2TProbe(table *telemetry.ToRTable) *Query {
	jc := JoinCostPct(table.Len())
	return NewQuery("T2TProbe").
		WithRefRate(workload.PingmeshMbps10x, telemetry.PingProbeWireSize).
		Window(10*time.Second, 1.0).
		FilterExpr("errFilter", Eq(Field("errCode"), Num(0)), 13.0, 0.86).
		Join("srcToR", table.Len(), operator.SrcToRLookup(table), jc, 1.0).
		WithJoinKernel(srcToRFusedKernel(table)).
		Join("dstToR", table.Len(), operator.DstToRLookup(table), jc,
			float64(telemetry.ToRProbeWireSize)/float64(telemetry.PingProbeWireSize)).
		WithJoinKernel(torPassKernel).
		GroupAgg("torAgg", operator.ToRPairKey, operator.ToRRTT, 6.6, 0.05).
		WithAggKernel(operator.AggKernelToRPairRTT)
}

// The T2TProbe SoA join kernels are designed as a pair. The row path
// splits the work across two operators via an intermediate record
// (PingProbe + source ToR) that has no columnar layout and no wire
// encoding; the SoA path instead fuses both hash probes into the first
// join's kernel, emitting projected ToR sections, and the second join's
// kernel only filters them. So the record flow between the joins stays
// identical to the row path — and with it the proxy stats the runtime
// adapts on — rows whose destination IP missed the table are emitted
// with a sentinel DstToR and dropped by the second kernel, exactly
// where the row path's dstToR probe drops them. The one observable
// difference is byte accounting between the joins: the SoA rows weigh
// the projected ToR layout, the row path the unprojected intermediate.
// That stage's records cannot ship either way (the intermediate is not
// wire-encodable), so nothing downstream sees it. Sections that are not
// ping columns (materialized fallbacks, replayed drains) decline to the
// row probe, which handles the intermediate type as usual.

// torMissDstToR marks a fused-probe row whose destination IP missed the
// table; torPassKernel filters it. Table ids are dense indices, far from
// the sentinel.
const torMissDstToR = ^uint32(0)

// srcToRFusedKernel probes both endpoint IPs against the static table
// straight from the packed IP columns and emits one compacted,
// projected ToR section: source-IP misses are dropped (as in the row
// path's srcToR probe), destination-IP misses are kept under the
// sentinel for the second kernel to drop.
func srcToRFusedKernel(table *telemetry.ToRTable) operator.ColumnarJoinKernel {
	return func(sec *wire.ColSec, out *[]wire.ColSec) bool {
		if sec.Ping == nil {
			return false
		}
		n := sec.Len()
		ns := wire.ColSec{
			Tag:     wire.TagToRProbe,
			Times:   make([]int64, 0, n),
			Windows: make([]int64, 0, n),
			ToR: &wire.ToRCols{
				TS: make([]int64, 0, n), SrcToR: make([]uint32, 0, n),
				DstToR: make([]uint32, 0, n), RTT: make([]uint32, 0, n),
			},
		}
		c := sec.Ping
		sec.Live(func(i int) {
			src, ok := table.Lookup(c.SrcIP[i])
			if !ok {
				return
			}
			dst, ok := table.Lookup(c.DstIP[i])
			if !ok {
				dst = torMissDstToR
			}
			ns.Times = append(ns.Times, sec.Times[i])
			ns.Windows = append(ns.Windows, sec.Windows[i])
			ns.ToR.TS = append(ns.ToR.TS, c.TS[i])
			ns.ToR.SrcToR = append(ns.ToR.SrcToR, src)
			ns.ToR.DstToR = append(ns.ToR.DstToR, dst)
			ns.ToR.RTT = append(ns.ToR.RTT, c.RTT[i])
		})
		*out = append(*out, ns)
		return true
	}
}

// torPassKernel is the second half of the fused T2TProbe join pair: ToR
// sections reaching the dstToR join are already probed, so it only
// drops the sentinel rows (destination misses) and compacts any
// selection. Anything else (a materialized intermediate from a row-path
// upstream) declines to the row probe.
func torPassKernel(sec *wire.ColSec, out *[]wire.ColSec) bool {
	if sec.ToR == nil {
		return false
	}
	c := sec.ToR
	if sec.Sel == nil {
		clean := true
		for _, d := range c.DstToR {
			if d == torMissDstToR {
				clean = false
				break
			}
		}
		if clean {
			*out = append(*out, *sec)
			return true
		}
	}
	n := sec.Len()
	ns := wire.ColSec{
		Tag:     wire.TagToRProbe,
		Times:   make([]int64, 0, n),
		Windows: make([]int64, 0, n),
		ToR: &wire.ToRCols{
			TS: make([]int64, 0, n), SrcToR: make([]uint32, 0, n),
			DstToR: make([]uint32, 0, n), RTT: make([]uint32, 0, n),
		},
	}
	sec.Live(func(i int) {
		if c.DstToR[i] == torMissDstToR {
			return
		}
		ns.Times = append(ns.Times, sec.Times[i])
		ns.Windows = append(ns.Windows, sec.Windows[i])
		ns.ToR.TS = append(ns.ToR.TS, c.TS[i])
		ns.ToR.SrcToR = append(ns.ToR.SrcToR, c.SrcToR[i])
		ns.ToR.DstToR = append(ns.ToR.DstToR, c.DstToR[i])
		ns.ToR.RTT = append(ns.ToR.RTT, c.RTT[i])
	})
	*out = append(*out, ns)
	return true
}

// LogAnalytics builds the per-tenant histogram query of Listing 3.
func LogAnalytics() *Query {
	normalize := func(rec telemetry.Record, emit operator.Emit) {
		ll, ok := rec.Data.(*telemetry.LogLine)
		if !ok {
			return
		}
		out := rec
		raw := strings.ToLower(strings.TrimSpace(ll.Raw))
		out.Data = &telemetry.LogLine{Timestamp: ll.Timestamp, Raw: raw}
		out.WireSize = len(raw)
		emit(out)
	}
	patternFilter := func(rec telemetry.Record) bool {
		ll, ok := rec.Data.(*telemetry.LogLine)
		return ok && ContainsAny(ll.Raw, workload.Patterns)
	}
	parse := func(rec telemetry.Record, emit operator.Emit) {
		ll, ok := rec.Data.(*telemetry.LogLine)
		if !ok {
			return
		}
		stats, err := telemetry.ParseJobStats(ll.Timestamp, ll.Raw)
		if err != nil {
			return // malformed lines are dropped, like a lossy parse
		}
		for i := range stats {
			s := stats[i]
			out := rec
			out.Data = &s
			out.WireSize = s.JobStatsWireSize()
			emit(out)
		}
	}
	bucketize := func(rec telemetry.Record, emit operator.Emit) {
		js, ok := rec.Data.(*telemetry.JobStats)
		if !ok {
			return
		}
		out := rec
		cp := *js
		cp.Bucket = telemetry.WidthBucket(cp.Stat, 0, 100, 10)
		out.Data = &cp
		emit(out)
	}
	return NewQuery("LogAnalytics").
		WithRefRate(workload.LogMbps10x, workload.AvgLogLineBytes).
		Window(10*time.Second, 0.5).
		Map("normalize", normalize, nil, 7.0, 0.97).
		WithMapKernel(normalizeKernel).
		FilterFunc("patterns", patternFilter, 4.85, 0.90).
		WithColumnarPred(patternsColPred).
		Map("parse", parse, nil, 9.2, 1.0).
		WithMapKernel(parseKernel).
		Map("bucketize", bucketize, []string{"tenant", "statName"}, 1.35, 1.0).
		WithMapKernel(bucketizeKernel).
		GroupAgg("histogram", operator.JobStatsKey, operator.JobStatsOne, 8.1, 0.05).
		WithAggKernel(operator.AggKernelJobStatsCount)
}

// The LogAnalytics SoA kernels mirror the row functions above exactly,
// minus the per-record telemetry.Record materialization and the
// per-line strings: a section costs a fixed number of allocations, not
// one or more per line (TestLogKernelAllocs).

// appendNormalized returns strings.ToLower(strings.TrimSpace(s)), byte
// for byte. An ASCII line is lower-cased through chunk into arena and the
// result slices the arena; a line holding any byte ≥ 0x80 (where
// lower-casing can change the length and more runes count as space) goes
// through the strings functions themselves. Bytes such a line wrote
// before its first high byte stay behind in the arena, unreferenced.
func appendNormalized(arena *strings.Builder, chunk *[256]byte, s string) string {
	lo, hi := 0, len(s)
	for lo < hi && asciiSpace(s[lo]) {
		lo++
	}
	for lo < hi && asciiSpace(s[hi-1]) {
		hi--
	}
	start := arena.Len()
	for rest := s[lo:hi]; len(rest) > 0; {
		n := min(len(rest), len(chunk))
		if !lowerASCII(chunk[:n], rest[:n]) {
			return strings.ToLower(strings.TrimSpace(s))
		}
		arena.Write(chunk[:n])
		rest = rest[n:]
	}
	return arena.String()[start:]
}

// lowerASCII writes src into dst with A–Z lower-cased, eight bytes a
// step: below 0x80, +0x3f sets a byte's top bit from 'A' up and +0x25
// from past 'Z' up, neither carrying into the next byte, so the one and
// not the other, shifted to 0x20, is OR'd into exactly the capitals. It
// reports false, dst undefined, when src holds a byte ≥ 0x80.
func lowerASCII(dst []byte, src string) bool {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	var high uint64
	i := 0
	for ; i+8 <= len(src); i += 8 {
		w := le64(src, i)
		high |= w
		binary.LittleEndian.PutUint64(dst[i:], w|((w+0x3f*ones)&^(w+0x25*ones)&tops)>>2)
	}
	for ; i < len(src); i++ {
		high |= uint64(src[i])
		dst[i] = src[i]
		if src[i]-'A' < 26 {
			dst[i] += 'a' - 'A'
		}
	}
	return high&tops == 0
}

func asciiSpace(c byte) bool {
	return c == ' ' || ('\t' <= c && c <= '\r')
}

// normalizeKernel lowercases/trims the raw column into a compacted log
// section. LogGen emits mixed-case, padded lines, so every line changes:
// the normalized lines of a section are written into one arena (a
// strings.Builder sized for the section, so its bytes become the strings
// without a copy) that dies with the epoch. Without a selection the
// other columns are shared.
func normalizeKernel(sec *wire.ColSec, out *[]wire.ColSec) bool {
	if sec.Log == nil {
		return false
	}
	c := sec.Log
	n := sec.Len()
	ns := wire.ColSec{Tag: wire.TagLogLine, Times: sec.Times, Windows: sec.Windows,
		Log: &wire.LogCols{TS: c.TS, Raw: make([]string, 0, n)}}
	if sec.Sel != nil {
		ns.Times = make([]int64, 0, n)
		ns.Windows = make([]int64, 0, n)
		ns.Log.TS = make([]int64, 0, n)
		for _, i := range sec.Sel {
			ns.Times = append(ns.Times, sec.Times[i])
			ns.Windows = append(ns.Windows, sec.Windows[i])
			ns.Log.TS = append(ns.Log.TS, c.TS[i])
		}
	}
	total := 0
	sec.Live(func(i int) { total += len(c.Raw[i]) })
	var arena strings.Builder
	arena.Grow(total)
	var chunk [256]byte
	sec.Live(func(i int) {
		ns.Log.Raw = append(ns.Log.Raw, appendNormalized(&arena, &chunk, c.Raw[i]))
	})
	*out = append(*out, ns)
	return true
}

// patternsColPred evaluates the LogAnalytics pattern filter over the raw
// string column.
func patternsColPred(sec *wire.ColSec) (func(i int) bool, bool) {
	if sec.Log == nil {
		return nil, false
	}
	raw := sec.Log.Raw
	return func(i int) bool { return ContainsAny(raw[i], workload.Patterns) }, true
}

// parseKernel flat-maps a log section into a JobStats section: one
// output row per statistic on each parseable line, malformed lines
// dropped — identical to the row path's parse, through the same field
// scanner. Fields are scanned in place and appended straight to the
// output columns; Tenant and StatName slice the input lines, one slice
// per distinct name in the section (sectionKeys). The columns are sized
// for a generated line's three statistics; longer lines grow them.
func parseKernel(sec *wire.ColSec, out *[]wire.ColSec) bool {
	if sec.Log == nil {
		return false
	}
	c := sec.Log
	n := 3 * sec.Len()
	j := &wire.JobCols{
		TS: make([]int64, 0, n), Tenant: make([]string, 0, n),
		StatName: make([]string, 0, n), Stat: make([]float64, 0, n),
	}
	ns := wire.ColSec{Tag: wire.TagJobStats, Job: j,
		Times: make([]int64, 0, n), Windows: make([]int64, 0, n)}
	var keys sectionKeys
	stat := func(name string, v float64) {
		j.StatName = append(j.StatName, keys.intern(name))
		j.Stat = append(j.Stat, v)
	}
	sec.Live(func(i int) {
		tenant, err := telemetry.ScanJobStats(c.Raw[i], stat)
		if err != nil {
			// Roll back the malformed line's partial rows.
			j.StatName = j.StatName[:len(j.Tenant)]
			j.Stat = j.Stat[:len(j.Tenant)]
			return
		}
		tenant = keys.intern(tenant)
		for k := len(j.Tenant); k < len(j.Stat); k++ {
			ns.Times = append(ns.Times, sec.Times[i])
			ns.Windows = append(ns.Windows, sec.Windows[i])
			j.TS = append(j.TS, c.TS[i])
			j.Tenant = append(j.Tenant, tenant)
		}
	})
	j.Bucket = make([]int64, len(ns.Times))
	*out = append(*out, ns)
	return true
}

// sectionKeys hands out one string per distinct name within a section,
// the first slice of its bytes, so the JobStats kernel's symbol cache
// (keyed on address and length) hits on every repeat. It is open-addressed
// on a name's length and first and last eight bytes, which decide
// equality outright up to 16 bytes; three-quarters full, it lets new
// names through.
type sectionKeys struct {
	slots [256]struct {
		head, tail uint64
		s          string
	}
	n int
}

func (t *sectionKeys) intern(s string) string {
	n := len(s)
	var head, tail uint64
	if n >= 8 {
		head, tail = le64(s, 0), le64(s, n-8)
	} else {
		for i := range n {
			head |= uint64(s[i]) << (8 * i)
		}
	}
	for i := (head ^ tail + uint64(n)) * 0x9E3779B97F4A7C15 >> 56; ; i = (i + 1) % 256 {
		k := &t.slots[i]
		if len(k.s) == n && k.head == head && k.tail == tail && (n <= 16 || k.s == s) {
			return k.s
		}
		if k.s == "" {
			if 4*t.n < 3*len(t.slots) {
				k.head, k.tail, k.s = head, tail, s
				t.n++
			}
			return s
		}
	}
}

// le64 reads s[i:i+8] as a little-endian word.
func le64(s string, i int) uint64 {
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// bucketizeKernel replaces a JobStats section's bucket column with
// width_bucket(stat, 0, 100, 10), sharing every other column.
func bucketizeKernel(sec *wire.ColSec, out *[]wire.ColSec) bool {
	if sec.Job == nil {
		return false
	}
	if sec.Sel == nil {
		cols := *sec.Job
		cols.Bucket = make([]int64, len(cols.Stat))
		for i, v := range cols.Stat {
			cols.Bucket[i] = int64(telemetry.WidthBucket(v, 0, 100, 10))
		}
		ns := *sec
		ns.Job = &cols
		*out = append(*out, ns)
		return true
	}
	// A live selection means compacting every column anyway.
	n := sec.Len()
	ns := wire.ColSec{
		Tag:     wire.TagJobStats,
		Times:   make([]int64, 0, n),
		Windows: make([]int64, 0, n),
		Job: &wire.JobCols{
			TS: make([]int64, 0, n), Tenant: make([]string, 0, n),
			StatName: make([]string, 0, n), Stat: make([]float64, 0, n),
			Bucket: make([]int64, 0, n),
		},
	}
	c := sec.Job
	sec.Live(func(i int) {
		ns.Times = append(ns.Times, sec.Times[i])
		ns.Windows = append(ns.Windows, sec.Windows[i])
		ns.Job.TS = append(ns.Job.TS, c.TS[i])
		ns.Job.Tenant = append(ns.Job.Tenant, c.Tenant[i])
		ns.Job.StatName = append(ns.Job.StatName, c.StatName[i])
		ns.Job.Stat = append(ns.Job.Stat, c.Stat[i])
		ns.Job.Bucket = append(ns.Job.Bucket, int64(telemetry.WidthBucket(c.Stat[i], 0, 100, 10)))
	})
	*out = append(*out, ns)
	return true
}

// TraceSpanAgg builds the fourth canonical query: distributed-trace span
// aggregation. Spans arrive as JobStats records (service, operation,
// duration in ms); health-check spans are filtered out, then durations
// fold into count/sum/min/max per (service, operation) key over 10 s
// windows. The grouped key space is high-cardinality (thousands of keys,
// Zipf-skewed), so G+R's relay reduction is weaker than LogAnalytics'
// 64-tenant histogram — which is exactly the regime it stresses.
func TraceSpanAgg() *Query {
	liveSpan := func(rec telemetry.Record) bool {
		j, ok := rec.Data.(*telemetry.JobStats)
		return ok && j.StatName != workload.SpanHealthOp
	}
	return NewQuery("TraceSpanAgg").
		WithRefRate(workload.SpanMbps10x, workload.AvgSpanBytes).
		Window(10*time.Second, 0.6).
		FilterFunc("liveSpans", liveSpan, 3.4, 1-DefaultSpanHealthFrac).
		WithColumnarPred(liveSpanColPred).
		GroupAgg("spanAgg", operator.JobStatsKey, operator.JobStatsVal, 11.5, 0.12).
		WithAggKernel(operator.AggKernelJobStatsDur)
}

// DefaultSpanHealthFrac mirrors workload.DefaultSpanConfig's HealthFrac:
// the filter's expected drop rate, used as the relay hint.
const DefaultSpanHealthFrac = 0.08

// liveSpanColPred evaluates the health-span filter over the interned
// StatName column.
func liveSpanColPred(sec *wire.ColSec) (func(i int) bool, bool) {
	if sec.Job == nil {
		return nil, false
	}
	names := sec.Job.StatName
	return func(i int) bool { return names[i] != workload.SpanHealthOp }, true
}

// S2SQuantileProbe is the approximate-percentile variant of S2SProbe the
// paper's rule R-1 discussion motivates (citing the authors' datacenter
// telemetry quantile work): per server pair, a mergeable sketch answers
// p50/p95/p99 probe latency over each window. Sketching costs slightly
// more than min/max/avg but its output is still tiny relative to input.
func S2SQuantileProbe() *Query {
	return NewQuery("S2SQuantileProbe").
		WithRefRate(workload.PingmeshMbps10x, telemetry.PingProbeWireSize).
		Window(10*time.Second, 1.0).
		FilterExpr("errFilter", Eq(Field("errCode"), Num(0)), 13.0, 0.86).
		GroupQuantile("latSketch", operator.ProbePairKey, operator.ProbeRTT,
			QuantileSpec{Lo: 0, Hi: 20000, Buckets: 200}, 76.0, 0.35).
		WithAggKernel(operator.AggKernelPingPairRTT)
}

// TotalCostPct returns the CPU demand (percent of a core) of running the
// whole query on its full reference-rate input. CostPct hints are the
// operators' *actual* CPU shares in that scenario (upstream relay
// reduction already reflected), so the total is their plain sum. This is
// the paper's "query requires X% CPU" figure.
func TotalCostPct(q *Query) float64 {
	total := 0.0
	for _, op := range q.Ops {
		total += op.CostPct
	}
	return total
}

// PrefixCostPct returns the CPU demand of running only the first n
// operators on the full input.
func PrefixCostPct(q *Query, n int) float64 {
	total := 0.0
	for i, op := range q.Ops {
		if i >= n {
			break
		}
		total += op.CostPct
	}
	return total
}

// PrefixRelay returns the fraction of input bytes still flowing after the
// first n operators (w_{n+1} in the paper's notation).
func PrefixRelay(q *Query, n int) float64 {
	w := 1.0
	for i, op := range q.Ops {
		if i >= n {
			break
		}
		w *= op.RelayBytes
	}
	return w
}
