package main

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"jarvis/internal/core"
	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// numAgents is the load of every run: two agents, two connections, one
// per core of the box the bounds were fixed on.
const numAgents = 2

// spec is one named workload. Every field is a constant of the
// benchmark: nothing here is calibrated at run time, so two commits are
// always offered the same load.
type spec struct {
	name string
	why  string
	// query builds the plan both sides deploy; rateMbps is its profiling
	// reference rate (what jarvis-agent passes as SourceOptions.RateMbps).
	query    func() *plan.Query
	rateMbps float64
	// epochMicros is the event time one epoch covers.
	epochMicros int64
	// budget is the agents' CPU budget fraction (cost-model tokens, so the
	// load factors it yields are deterministic for a seed).
	budget float64
	// period is the open-loop P: agent a's epoch k is due at
	// t0 + k·P + a·P/numAgents. Chosen so the open loop sits near 40–50 %
	// of the saturation rate measured when the benchmark was defined.
	period time.Duration
	// gen builds agent a's input generator for a seed.
	gen func(seed uint64, agent int) func(durMicros int64, cb *wire.ColumnarBatch)
	// ha turns on the checkpoint dir, result log, publisher and warm
	// standby, with acks gated on WaitDurable.
	ha bool
	// partition checks the load-factor regime the workload exists for.
	partition func(drainedFrac float64, factors [][]float64) error
}

// agentSeed derives one agent's generator seed from the run seed
// (splitmix64 finalizer, so neighbouring seeds give unrelated traces).
func agentSeed(seed uint64, agent int) uint64 {
	z := seed + uint64(agent+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func pingGen(seed uint64, agent int) func(int64, *wire.ColumnarBatch) {
	cfg := workload.DefaultPingConfig(agentSeed(seed, agent))
	cfg.SrcIP = 0x0A000000 + uint32(agent+1)
	return workload.NewPingGen(cfg).NextWindowCols
}

func logGen(seed uint64, agent int) func(int64, *wire.ColumnarBatch) {
	return workload.NewLogGen(workload.DefaultLogConfig(agentSeed(seed, agent))).NextWindowCols
}

func spanGen(seed uint64, agent int) func(int64, *wire.ColumnarBatch) {
	return workload.NewSpanGen(workload.DefaultSpanConfig(agentSeed(seed, agent))).NextWindowCols
}

// fractional reports whether any proxy inside the boundary converged
// strictly between 0 and 1 (data-level partitioning active).
func fractional(factors [][]float64) bool {
	for _, lf := range factors {
		for _, p := range lf {
			if p > 0 && p < 1 {
				return true
			}
		}
	}
	return false
}

var specs = []spec{
	{
		name:        "s2s-drain",
		why:         "budget-starved S2SProbe: nearly every probe ships raw, so flate encode, wire decode and SP ingest of raw ping sections do the work",
		query:       plan.S2SProbe,
		rateMbps:    workload.PingmeshMbps10x,
		epochMicros: 1_000_000,
		budget:      0.08,
		period:      24 * time.Millisecond,
		gen:         pingGen,
		partition: func(drained float64, _ [][]float64) error {
			if drained < 0.90 {
				return fmt.Errorf("s2s-drain shipped only %.1f%% of records raw, want >= 90%%", drained*100)
			}
			return nil
		},
	},
	{
		name:        "s2s-neardata",
		why:         "same query and input with budget 1.0: the agent pipeline dominates and the SP merges small partial-aggregate sections instead of folding raw rows",
		query:       plan.S2SProbe,
		rateMbps:    workload.PingmeshMbps10x,
		epochMicros: 1_000_000,
		budget:      1.0,
		period:      14 * time.Millisecond,
		gen:         pingGen,
		partition: func(drained float64, _ [][]float64) error {
			if drained > 0.01 {
				return fmt.Errorf("s2s-neardata shipped %.2f%% of records raw, want <= 1%%", drained*100)
			}
			return nil
		},
	},
	{
		name:        "log-adaptive",
		why:         "LogAnalytics with a budget that leaves a proxy at a fractional load factor: string-heavy sections on both sides, wire bytes depend on where the runtime converges",
		query:       plan.LogAnalytics,
		rateMbps:    workload.LogMbps10x,
		epochMicros: 100_000,
		budget:      0.24,
		period:      28 * time.Millisecond,
		gen:         logGen,
		partition: func(_ float64, factors [][]float64) error {
			if !fractional(factors) {
				return fmt.Errorf("log-adaptive converged to %v, want a load factor strictly between 0 and 1", factors)
			}
			return nil
		},
	},
	{
		name:        "spans-ha",
		why:         "high-cardinality TraceSpanAgg with checkpoint dir, publisher and warm standby: the only workload with snapshot save, replication and standby apply on the ack path",
		query:       plan.TraceSpanAgg,
		rateMbps:    workload.SpanMbps10x,
		epochMicros: 500_000,
		budget:      0.1,
		period:      18 * time.Millisecond,
		gen:         spanGen,
		ha:          true,
		partition:   func(float64, [][]float64) error { return nil },
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (s *spec) newSource(id uint32) (*core.Source, error) {
	return core.NewSource(s.query(), core.SourceOptions{
		ID: id, BudgetFrac: s.budget, RateMbps: s.rateMbps,
		EpochMicros: s.epochMicros, Adapt: true,
	})
}

// epochsPerWindow is the pool size: one tumbling window of event time.
func (s *spec) epochsPerWindow() int {
	return int(s.query().WindowDur() / s.epochMicros)
}

// pool is one agent's input: one window's worth of generated epochs,
// replayed window after window with the event-time columns shifted. The
// trace is periodic in event time, which makes every window's expected
// result the oracle's window 0 and keeps generation off the measured
// path; payload bytes differ epoch to epoch inside a window, and flate
// and the decoder's intern cache hold no state that long.
type pool struct {
	epochMicros int64
	epochs      []wire.ColumnarBatch
	base        []int64 // event-time origin each slot is currently shifted to
	records     []int
	genMillis   []float64
}

// newPool generates agent a's window for a seed. The generator reuses its
// arenas between calls, so each epoch's columns are copied out.
func newPool(s *spec, seed uint64, agent int) *pool {
	n := s.epochsPerWindow()
	p := &pool{
		epochMicros: s.epochMicros,
		epochs:      make([]wire.ColumnarBatch, n),
		base:        make([]int64, n),
		records:     make([]int, n),
		genMillis:   make([]float64, n),
	}
	next := s.gen(seed, agent)
	var cb wire.ColumnarBatch
	for i := range p.epochs {
		cb.Reset()
		start := time.Now()
		next(s.epochMicros, &cb)
		p.genMillis[i] = ms(time.Since(start))
		p.epochs[i] = cloneColumns(&cb)
		p.records[i] = cb.Records()
		// The generator starts each call where the last record left off,
		// a few microseconds past the epoch boundary; rebase the slot so its
		// first record sits on the boundary and the window is exactly
		// periodic.
		p.base[i] = int64(i) * s.epochMicros
		shiftTimes(&p.epochs[i], p.base[i]-p.epochs[i].Secs[0].Times[0])
	}
	return p
}

// take returns epoch k's input: slot k mod window, shifted so its event
// times lie in [k·epoch, (k+1)·epoch). The previous use of the slot was a
// whole window of epochs ago, long since encoded and shipped.
func (p *pool) take(k int) (*wire.ColumnarBatch, int) {
	slot := k % len(p.epochs)
	want := int64(k) * p.epochMicros
	if d := want - p.base[slot]; d != 0 {
		shiftTimes(&p.epochs[slot], d)
		p.base[slot] = want
	}
	return &p.epochs[slot], p.records[slot]
}

func cloneColumns(cb *wire.ColumnarBatch) wire.ColumnarBatch {
	out := wire.ColumnarBatch{Secs: make([]wire.ColSec, len(cb.Secs))}
	for i, s := range cb.Secs {
		c := wire.ColSec{Tag: s.Tag, Times: slices.Clone(s.Times), Windows: slices.Clone(s.Windows)}
		switch {
		case s.Ping != nil:
			c.Ping = &wire.PingCols{
				TS: slices.Clone(s.Ping.TS), SrcIP: slices.Clone(s.Ping.SrcIP), SrcCluster: slices.Clone(s.Ping.SrcCluster),
				DstIP: slices.Clone(s.Ping.DstIP), DstCluster: slices.Clone(s.Ping.DstCluster),
				RTT: slices.Clone(s.Ping.RTT), Err: slices.Clone(s.Ping.Err),
			}
		case s.Log != nil:
			c.Log = &wire.LogCols{TS: slices.Clone(s.Log.TS), Raw: packStrings(s.Log.Raw)}
		case s.Job != nil:
			c.Job = &wire.JobCols{
				TS: slices.Clone(s.Job.TS), Tenant: slices.Clone(s.Job.Tenant), StatName: slices.Clone(s.Job.StatName),
				Stat: slices.Clone(s.Job.Stat), Bucket: slices.Clone(s.Job.Bucket),
			}
		default:
			panic(fmt.Sprintf("benchmark: generator emitted a section with tag %#x the pool cannot copy", s.Tag))
		}
		out.Secs[i] = c
	}
	return out
}

// packStrings copies the strings into one backing allocation. A window
// of log lines is a million strings the collector would otherwise trace
// one by one on every cycle of the measured run, a cost that belongs to
// the benchmark and not to the system.
func packStrings(in []string) []string {
	var b strings.Builder
	for _, s := range in {
		b.WriteString(s)
	}
	all, out, off := b.String(), make([]string, len(in)), 0
	for i, s := range in {
		out[i] = all[off : off+len(s)]
		off += len(s)
	}
	return out
}

func shiftTimes(cb *wire.ColumnarBatch, d int64) {
	add := func(col []int64) {
		for i := range col {
			col[i] += d
		}
	}
	for i := range cb.Secs {
		s := &cb.Secs[i]
		add(s.Times)
		switch {
		case s.Ping != nil:
			add(s.Ping.TS)
		case s.Log != nil:
			add(s.Log.TS)
		case s.Job != nil:
			add(s.Job.TS)
		}
	}
}

// resultRow is one final query row, copied out of the engine's batch.
type resultRow struct {
	key   telemetry.GroupKey
	count int64
	sum   float64
	min   float64
	max   float64
}

// resultLog collects the run's final rows by window.
type resultLog map[int64][]resultRow

func (l resultLog) add(rows telemetry.Batch) {
	for _, r := range rows {
		if a, ok := r.Data.(*telemetry.AggRow); ok {
			l[a.Window] = append(l[a.Window], resultRow{a.Key, a.Count, a.Sum, a.Min, a.Max})
		}
	}
}

// oracle regenerates the workload's window from the seed and folds it,
// unpartitioned, through a fresh SP engine: the rows every window of the
// run must reproduce.
func oracle(s *spec, seed uint64) (map[telemetry.GroupKey]resultRow, error) {
	proc, err := core.NewProcessor(s.query())
	if err != nil {
		return nil, err
	}
	eng := proc.Engine()
	window := s.query().WindowDur()
	for a := 0; a < numAgents; a++ {
		id := uint32(a + 1)
		eng.RegisterSource(id)
		p := newPool(s, seed, a)
		for i := range p.epochs {
			if err := eng.IngestColumnar(0, &p.epochs[i]); err != nil {
				return nil, fmt.Errorf("oracle ingest: %w", err)
			}
		}
		eng.ObserveWatermark(id, window)
	}
	log := resultLog{}
	log.add(eng.Advance())
	if len(log) != 1 {
		return nil, fmt.Errorf("oracle produced %d windows, want 1", len(log))
	}
	want := map[telemetry.GroupKey]resultRow{}
	for _, rows := range log {
		for _, r := range rows {
			if _, dup := want[r.key]; dup {
				return nil, fmt.Errorf("oracle emitted key %v twice", r.key)
			}
			want[r.key] = r
		}
	}
	return want, nil
}

func closeTo(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// verify requires every window the run emitted to equal the oracle's
// window (key and count exactly; sum, min and max to 1e-9 relative), the
// windows to be contiguous from the first, and at least wantWindows of
// them. It returns how many windows it checked.
func verify(got resultLog, want map[telemetry.GroupKey]resultRow, wantWindows int) (int, error) {
	ids := make([]int64, 0, len(got))
	for w := range got {
		ids = append(ids, w)
	}
	slices.Sort(ids)
	for i, w := range ids {
		if i > 0 && w != ids[i-1]+1 {
			return i, fmt.Errorf("result log skips from window %d to %d", ids[i-1], w)
		}
		rows := got[w]
		if len(rows) != len(want) {
			return i, fmt.Errorf("window %d has %d rows, oracle has %d", w, len(rows), len(want))
		}
		seen := make(map[telemetry.GroupKey]bool, len(rows))
		for _, r := range rows {
			o, ok := want[r.key]
			switch {
			case !ok:
				return i, fmt.Errorf("window %d has key %v the oracle lacks", w, r.key)
			case seen[r.key]:
				return i, fmt.Errorf("window %d emitted key %v twice", w, r.key)
			case r.count != o.count:
				return i, fmt.Errorf("window %d key %v count %d, oracle %d", w, r.key, r.count, o.count)
			case !closeTo(r.sum, o.sum) || !closeTo(r.min, o.min) || !closeTo(r.max, o.max):
				return i, fmt.Errorf("window %d key %v sum/min/max %g/%g/%g, oracle %g/%g/%g", w, r.key, r.sum, r.min, r.max, o.sum, o.min, o.max)
			}
			seen[r.key] = true
		}
	}
	if len(ids) < wantWindows {
		return len(ids), fmt.Errorf("result log holds %d windows, the shipped epochs close at least %d", len(ids), wantWindows)
	}
	return len(ids), nil
}
