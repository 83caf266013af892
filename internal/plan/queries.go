package plan

import (
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
		line := ll.Raw
		// Strip trailing free-form payload after the key=value section
		// (the '=' split of Listing 3).
		if i := strings.Index(line, " #"); i >= 0 {
			line = line[:i]
		}
		stats, err := telemetry.ParseJobStats(ll.Timestamp, line)
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
// minus the per-record telemetry.Record materialization.

// normalizeKernel lowercases/trims the raw column into a compacted log
// section (strings already normal — the generator's common case — stay
// interned, no allocation).
func normalizeKernel(sec *wire.ColSec, out *[]wire.ColSec) bool {
	if sec.Log == nil {
		return false
	}
	n := sec.Len()
	ns := wire.ColSec{
		Tag:     wire.TagLogLine,
		Times:   make([]int64, 0, n),
		Windows: make([]int64, 0, n),
		Log:     &wire.LogCols{TS: make([]int64, 0, n), Raw: make([]string, 0, n)},
	}
	c := sec.Log
	sec.Live(func(i int) {
		ns.Times = append(ns.Times, sec.Times[i])
		ns.Windows = append(ns.Windows, sec.Windows[i])
		ns.Log.TS = append(ns.Log.TS, c.TS[i])
		ns.Log.Raw = append(ns.Log.Raw, strings.ToLower(strings.TrimSpace(c.Raw[i])))
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
// dropped — identical to the row path's parse.
func parseKernel(sec *wire.ColSec, out *[]wire.ColSec) bool {
	if sec.Log == nil {
		return false
	}
	n := sec.Len()
	ns := wire.ColSec{
		Tag:     wire.TagJobStats,
		Times:   make([]int64, 0, n),
		Windows: make([]int64, 0, n),
		Job: &wire.JobCols{
			TS: make([]int64, 0, n), Tenant: make([]string, 0, n),
			StatName: make([]string, 0, n), Stat: make([]float64, 0, n),
		},
	}
	c := sec.Log
	sec.Live(func(i int) {
		line := c.Raw[i]
		if j := strings.Index(line, " #"); j >= 0 {
			line = line[:j]
		}
		stats, err := telemetry.ParseJobStats(c.TS[i], line)
		if err != nil {
			return
		}
		for k := range stats {
			ns.Times = append(ns.Times, sec.Times[i])
			ns.Windows = append(ns.Windows, sec.Windows[i])
			ns.Job.TS = append(ns.Job.TS, stats[k].Timestamp)
			ns.Job.Tenant = append(ns.Job.Tenant, stats[k].Tenant)
			ns.Job.StatName = append(ns.Job.StatName, stats[k].StatName)
			ns.Job.Stat = append(ns.Job.Stat, stats[k].Stat)
		}
	})
	ns.Job.Bucket = make([]int64, len(ns.Times))
	*out = append(*out, ns)
	return true
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
