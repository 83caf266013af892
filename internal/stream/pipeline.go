package stream

import (
	"fmt"

	"jarvis/internal/obs"
	"jarvis/internal/operator"
	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Options configures a data-source pipeline.
type Options struct {
	// EpochMicros is the epoch length (paper evaluates with 1 s).
	EpochMicros int64
	// BudgetFrac is the CPU budget as a fraction of one core.
	BudgetFrac float64
	// DrainedThres tolerates this fraction of an epoch's arrivals as
	// pending records before a proxy signals congestion (§IV-C).
	DrainedThres float64
	// IdleThres tolerates this fraction of spare epoch budget before a
	// proxy signals idleness (§IV-C).
	IdleThres float64
	// MaxQueuePerStage bounds each operator queue; overflow is drained to
	// the stream processor (lossless bounded backpressure).
	MaxQueuePerStage int
	// Boundary caps how many leading operators run locally (from the
	// plan rules); proxies beyond it drain everything.
	Boundary int
}

// DefaultOptions mirrors the paper's evaluation setup: 1 s epochs,
// DrainedThres 10% and IdleThres 20%.
func DefaultOptions(budgetFrac float64, boundary int) Options {
	return Options{
		EpochMicros:      1_000_000,
		BudgetFrac:       budgetFrac,
		DrainedThres:     0.10,
		IdleThres:        0.20,
		MaxQueuePerStage: 1 << 18,
		Boundary:         boundary,
	}
}

// EpochResult reports one epoch of pipeline execution.
type EpochResult struct {
	// Stats holds per-proxy counters and states, one per local operator.
	Stats []ProxyStats
	// Drains[i] holds the records drained at proxy i; they must be
	// delivered to the stream processor's replica of operator i. Results
	// holds the records emitted past the last local operator. Each is one
	// batch in one form: the records that travelled as rows (restored
	// records, cascades of carried-over queue records, Rows sections of
	// the arrival wave, flush emissions) lead as one Rows section, and the
	// SoA sections follow — views over the wave's column arrays, narrowed
	// by selection vectors. Carry-over runs before the arrival wave, so
	// that is record order whenever the wave is all rows (RunEpoch) or all
	// SoA (the generators); in a wave mixing both, order is kept within
	// each form only. The pipeline owns every buffer here, and the caller's
	// columns they reference, until its next epoch.
	Drains  []wire.ColumnarBatch
	Results wire.ColumnarBatch
	// ResultStage is the SP-side operator index Results should enter:
	// the last local operator's own index when it is stateful (partial
	// aggregates merge into the replica), one past it otherwise.
	ResultStage int
	// Watermark is the event-time low watermark after this epoch: all
	// records at or before it have been fully processed or drained.
	Watermark int64
	// BudgetUsedFrac is the fraction of the epoch budget consumed.
	BudgetUsedFrac float64
	// SpareBudgetFrac = 1 − BudgetUsedFrac (0 when the budget is 0).
	SpareBudgetFrac float64
	// DrainedBytes and ResultBytes are the epoch's outbound volumes.
	DrainedBytes int64
	ResultBytes  int64

	// Timing is the agent-side trace context for the cross-process epoch
	// trace: the pipeline stamps its own duration, the epoch driver (the
	// agent main loop) stamps the epoch start and generate duration, and
	// the shipper seals the context into the EpochEnd trace extension.
	// All zero when lifecycle timing is disabled.
	Timing EpochTiming
}

// EpochTiming carries the agent-half of an epoch's trace context to the
// shipper (see wire.EpochEnd and obs.EpochTrace). StartMicros is the
// epoch begin on the agent's clock in unix microseconds; zero means the
// driver recorded no epoch-level timing, and the shipper then anchors
// the trace at seal time.
type EpochTiming struct {
	StartMicros int64
	GenMicros   int64
	PipeMicros  int64
}

// TotalOutBytes is the epoch's total network transfer from the source.
func (r *EpochResult) TotalOutBytes() int64 { return r.DrainedBytes + r.ResultBytes }

// QueryState classifies the whole pipeline per §IV-C: congested if any
// proxy is congested, idle if all are idle, stable otherwise.
func QueryState(stats []ProxyStats) ProxyState {
	if len(stats) == 0 {
		return StateStable
	}
	allIdle := true
	for _, s := range stats {
		if s.State == StateCongested {
			return StateCongested
		}
		if s.State != StateIdle {
			allIdle = false
		}
	}
	if allIdle {
		return StateIdle
	}
	return StateStable
}

// Pipeline executes the source-side replica of a query: operators with a
// control proxy in front of each, a token-bucket CPU budget, bounded
// queues and drain paths. One loop (runWave) moves every record: each
// epoch drives waves of sections stage by stage through the proxies
// (which decide drain-vs-forward per record, or per section at load
// factor 0 and 1) into the operators, with budget charged per stage and
// all epoch buffers reused across epochs.
type Pipeline struct {
	query   *plan.Query
	ops     []operator.Operator
	proxies []*Proxy
	queues  []telemetry.Batch
	bucket  *TokenBucket
	cm      *CostModel
	opts    Options

	maxEventSeen int64
	watermark    int64

	// epoch outputs, owned by the pipeline and reset at the start of every
	// epoch: drains/results are the sections EpochResult hands out, and
	// drainRows/resultRows collect the row-form records that lead them.
	drains     []wire.ColumnarBatch
	results    wire.ColumnarBatch
	drainRows  []telemetry.Batch
	resultRows telemetry.Batch
	// colDrainBytes is the SoA drains' accounting size, summed section by
	// section as routeCols splits them off.
	colDrainBytes int64

	// restored holds records a RestoreCheckpoint emitted past the local
	// chain; the next epoch's results lead with them.
	restored telemetry.Batch

	// wave scratch, reused across epochs: colA/colB ping-pong the wave's
	// section headers and rowA/rowB the forwarded copies of its Rows
	// sections; the sel free/lent lists recycle routing selection vectors;
	// flushRows collects one operator's Flush emissions for the cascade.
	colA, colB []wire.ColSec
	rowA, rowB telemetry.Batch
	selFree    [][]int32
	selLent    [][]int32
	flushRows  telemetry.Batch

	// epochSeq counts completed epochs; prevStates remembers each proxy's
	// state at the previous epoch boundary so finishEpoch emits a
	// proxy_state decision only on transitions (the zero value,
	// StateStable, is every proxy's implicit starting state).
	epochSeq   uint64
	prevStates []ProxyState
}

// NewPipeline compiles a query into a source pipeline. The query should
// already be optimized (plan.Optimize); control proxies are inserted
// between all adjacent operators per §IV-B.
func NewPipeline(q *plan.Query, opts Options) (*Pipeline, error) {
	ops, err := q.Instantiate()
	if err != nil {
		return nil, err
	}
	if opts.EpochMicros <= 0 {
		return nil, fmt.Errorf("stream: non-positive epoch")
	}
	if opts.Boundary <= 0 || opts.Boundary > len(ops) {
		opts.Boundary = len(ops)
	}
	cm, err := NewCostModel(q)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		query:     q,
		ops:       ops,
		proxies:   make([]*Proxy, len(ops)),
		queues:    make([]telemetry.Batch, len(ops)),
		bucket:    NewTokenBucket(opts.BudgetFrac * float64(opts.EpochMicros)),
		cm:        cm,
		opts:      opts,
		drains:    make([]wire.ColumnarBatch, len(ops)),
		drainRows: make([]telemetry.Batch, len(ops)),
	}
	for i := range p.proxies {
		p.proxies[i] = NewProxy(i) // load factors start at zero (Startup)
	}
	return p, nil
}

// Query returns the compiled query.
func (p *Pipeline) Query() *plan.Query { return p.query }

// Operators exposes the physical operators (read-only use).
func (p *Pipeline) Operators() []operator.Operator { return p.ops }

// CostModel exposes the pipeline's cost model (experiments rescale join
// costs through it).
func (p *Pipeline) CostModel() *CostModel { return p.cm }

// SetBudget changes the CPU budget fraction between epochs.
func (p *Pipeline) SetBudget(frac float64) {
	p.opts.BudgetFrac = frac
	p.bucket.SetCapacity(frac * float64(p.opts.EpochMicros))
}

// Budget returns the current CPU budget fraction.
func (p *Pipeline) Budget() float64 { return p.opts.BudgetFrac }

// LoadFactors returns the current per-proxy load factors.
func (p *Pipeline) LoadFactors() []float64 {
	out := make([]float64, len(p.proxies))
	for i, px := range p.proxies {
		out[i] = px.LoadFactor()
	}
	return out
}

// SetLoadFactors reconfigures all proxies (the runtime's Adapt action).
// Proxies at or past the boundary are forced to zero.
func (p *Pipeline) SetLoadFactors(factors []float64) error {
	if len(factors) != len(p.proxies) {
		return fmt.Errorf("stream: %d load factors for %d proxies", len(factors), len(p.proxies))
	}
	for i, f := range factors {
		if i >= p.opts.Boundary {
			f = 0
		}
		p.proxies[i].SetLoadFactor(f)
	}
	return nil
}

// Boundary returns the number of leading operators allowed to run
// locally.
func (p *Pipeline) Boundary() int { return p.opts.Boundary }

// PendingTotal returns the number of records queued across all stages.
func (p *Pipeline) PendingTotal() int {
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// RunEpoch executes one epoch over a row batch: it presents the rows as
// one Rows section and runs RunEpochColumnar, so every drain and result
// comes back as a single leading Rows section, owned by the pipeline
// until its next epoch. The batch is only read.
func (p *Pipeline) RunEpoch(input telemetry.Batch) EpochResult {
	var cb wire.ColumnarBatch
	if len(input) > 0 {
		cb.Secs = []wire.ColSec{{Rows: input}}
	}
	return p.RunEpochColumnar(&cb)
}

// RunEpochColumnar executes one epoch: carried-over pending records run
// first, then the arrival wave, then the watermark advances and closed
// windows flush. Lossless: every input record is either processed
// locally, queued, or drained to the SP. SoA sections flow through the
// local chain without records ever being built wherever the operators
// have kernels; proxy decisions consume one error-diffusion sequence
// whatever the sections' form (Route and RouteSize advance it alike), so
// stats, drains, results and watermark do not depend on whether a trace
// arrives as columns or as rows.
//
// The caller's batch is treated read-only. The returned Drains and
// Results are the pipeline's buffers, and their SoA sections reference
// the batch's column arrays: callers must consume the result before
// mutating the input columns or running the next epoch.
func (p *Pipeline) RunEpochColumnar(cb *wire.ColumnarBatch) EpochResult {
	start := obs.Now()
	p.bucket.Refill()
	p.resultRows = append(p.resultRows[:0], p.restored...)
	p.restored = nil

	// Reclaim selection vectors lent to the previous epoch's result and
	// reset the output buffers (their previous contents were consumed
	// before this call, per the contract above).
	p.selFree = append(p.selFree, p.selLent...)
	p.selLent = p.selLent[:0]
	for i := range p.drains {
		p.drains[i].Reset()
		p.drainRows[i] = p.drainRows[i][:0]
	}
	p.colDrainBytes = 0
	p.results.Reset()

	// Records queued in earlier epochs were already committed to local
	// processing: they run before the new arrivals.
	p.runWave(0, nil, true)

	// Event-time progress observes every live arrival.
	for si := range cb.Secs {
		sec := &cb.Secs[si]
		if sec.Rows != nil {
			for k := range sec.Rows {
				if sec.Rows[k].Time > p.maxEventSeen {
					p.maxEventSeen = sec.Rows[k].Time
				}
			}
			continue
		}
		if sec.Sel != nil {
			for _, idx := range sec.Sel {
				if sec.Times[idx] > p.maxEventSeen {
					p.maxEventSeen = sec.Times[idx]
				}
			}
			continue
		}
		for _, t := range sec.Times {
			if t > p.maxEventSeen {
				p.maxEventSeen = t
			}
		}
	}

	p.runWave(0, cb.Secs, false)

	res := p.finishEpoch()
	if !start.IsZero() {
		res.Timing.PipeMicros = obs.ObserveSince(obs.StagePipeline, start).Microseconds()
	}
	return res
}

// runWave is the pipeline's one execution loop: it drives a wave of
// sections through stages start..Boundary-1. At each stage the proxy
// routes every live row in order (forced drains past the budget+queue
// bound first, then the error-diffusion decision; a SoA section whose
// rows all share one fate moves whole, see routeCols), the budget is charged
// for the prefix of forwarded rows it covers, that prefix goes through
// the operator in one ProcessColumnar call, and the remainder is queued
// as rows. With carry set each stage also runs as much of its queue as
// the budget still covers, after the cascade from upstream and without
// routing it again — the start of every epoch calls runWave(0, nil,
// true). Survivors past the last local stage become the epoch's results.
func (p *Pipeline) runWave(start int, wave []wire.ColSec, carry bool) {
	in := append(p.colA[:0], wave...)
	bufA, bufB := in, p.colB
	rowsA, rowsB := p.rowA, p.rowB
	for i := start; i < p.opts.Boundary; i++ {
		live := 0
		for si := range in {
			live += in[si].Len()
		}
		if live == 0 && !carry {
			break
		}
		cost := p.cm.Cost(i)
		room := p.opts.MaxQueuePerStage - len(p.queues[i])
		if room < 0 {
			room = 0
		}
		// Forwarded rows beyond this bound could neither be processed
		// (budget) nor queued (bounded stage queue): they force-drain.
		maxFwd := p.bucket.FitCount(cost, live) + room

		// Route pass: split each section into a forwarded view and a drain
		// view. SoA sections split by fresh selection vectors over shared
		// columns; Rows sections split by copying records.
		fwd, rows := bufB[:0], rowsB[:0]
		fwdTotal := 0
		for si := range in {
			sec := &in[si]
			if sec.Rows != nil {
				first := len(rows)
				rows = p.routeRows(i, sec.Rows, rows, maxFwd-fwdTotal)
				if len(rows) > first {
					fwdTotal += len(rows) - first
					fwd = append(fwd, wire.ColSec{Tag: sec.Tag, Rows: rows[first:len(rows):len(rows)]})
				}
				continue
			}
			var nf int
			fwd, nf = p.routeCols(i, sec, maxFwd-fwdTotal, fwd)
			fwdTotal += nf
		}

		// Budget pass: the prefix of forwarded rows the tokens cover is
		// processed; the suffix materializes into the stage queue, behind
		// whatever the queue still holds.
		n := p.bucket.FitCount(cost, fwdTotal)
		p.bucket.ConsumeN(cost, n)
		carried, first := 0, len(rows)
		if carry {
			q := p.queues[i]
			carried = p.bucket.FitCount(cost, len(q))
			p.bucket.ConsumeN(cost, carried)
			rows = append(rows, q[:carried]...)
			p.queues[i] = append(q[:0], q[carried:]...)
		}
		if n < fwdTotal {
			fwd = p.spill(i, fwd, n)
		}
		if carried > 0 {
			fwd = append(fwd, wire.ColSec{Rows: rows[first:len(rows):len(rows)]})
		}
		p.proxies[i].NoteProcessedN(n + carried)

		w := wire.ColumnarBatch{Secs: fwd}
		if len(fwd) > 0 {
			p.ops[i].ProcessColumnar(&w)
		}
		in = w.Secs
		bufA, bufB = fwd[:0], bufA
		rowsA, rowsB = rows[:0], rowsA
	}
	// Survivors past the last local stage are the epoch's results, each in
	// the form it arrived in.
	for si := range in {
		switch sec := &in[si]; {
		case sec.Rows != nil:
			p.resultRows = append(p.resultRows, sec.Rows...)
		case sec.Len() > 0:
			p.results.Secs = append(p.results.Secs, *sec)
		}
	}
	p.colA, p.colB = bufA[:0], bufB[:0]
	p.rowA, p.rowB = rowsA[:0], rowsB[:0]
}

// routeRows routes one Rows section at stage i: forwarded records are
// appended to fwd (returned), drained ones to the stage's drain rows.
// Once room more records have been forwarded the rest force-drain
// without consulting the proxy.
func (p *Pipeline) routeRows(i int, in, fwd telemetry.Batch, room int) telemetry.Batch {
	px := p.proxies[i]
	limit := len(fwd) + room
	for k := range in {
		if len(fwd) >= limit {
			px.NoteForcedDrain(in[k].WireSize)
			p.drainRows[i] = append(p.drainRows[i], in[k])
		} else if px.Route(in[k]) {
			fwd = append(fwd, in[k])
		} else {
			p.drainRows[i] = append(p.drainRows[i], in[k])
		}
	}
	return fwd
}

// routeCols routes one SoA section at stage i: its forwarded view is
// appended to fwd (returned with the forwarded row count), its drained
// view to the stage's drains, with the drained rows' bytes billed
// in one sum. At load factor 0, and at 1 when all of the section's rows
// fit in room, every row has the same fate, so the section goes whole,
// selection vector untouched, and the proxy is charged in one step (see
// Proxy.routeRun). Otherwise each row is routed in turn like routeRows
// does (two explicit loops: a shared closure costs a call per row), the
// split a pair of fresh selection vectors over the shared columns.
func (p *Pipeline) routeCols(i int, sec *wire.ColSec, room int, fwd []wire.ColSec) ([]wire.ColSec, int) {
	px := p.proxies[i]
	if n := sec.Len(); n > 0 && (px.p == 0 || (px.p == 1 && n <= room)) {
		if px.routeRun(n) {
			return append(fwd, *sec), n
		}
		one := wire.ColumnarBatch{Secs: []wire.ColSec{*sec}}
		p.drainCols(i, sec, sec.Sel, one.TotalBytes())
		return fwd, 0
	}
	fwdSel, drSel := p.takeSel(), p.takeSel()
	if sec.Sel != nil {
		for _, idx := range sec.Sel {
			if len(fwdSel) >= room {
				px.NoteForcedDrain(0)
				drSel = append(drSel, idx)
			} else if px.route() {
				fwdSel = append(fwdSel, idx)
			} else {
				drSel = append(drSel, idx)
			}
		}
	} else {
		for idx := range sec.Times {
			if len(fwdSel) >= room {
				px.NoteForcedDrain(0)
				drSel = append(drSel, int32(idx))
			} else if px.route() {
				fwdSel = append(fwdSel, int32(idx))
			} else {
				drSel = append(drSel, int32(idx))
			}
		}
	}
	fwdSel, drSel = p.lendSel(fwdSel), p.lendSel(drSel)
	if len(drSel) > 0 {
		p.drainCols(i, sec, drSel, sec.SelBytes(drSel))
	}
	if len(fwdSel) > 0 {
		fsec := *sec
		fsec.Sel = fwdSel
		fwd = append(fwd, fsec)
	}
	return fwd, len(fwdSel)
}

// drainCols adds the view of sec's rows at sel, of the given accounting
// size, to stage i's drains.
func (p *Pipeline) drainCols(i int, sec *wire.ColSec, sel []int32, bytes int64) {
	dsec := *sec
	dsec.Sel = sel
	p.drains[i].Secs = append(p.drains[i].Secs, dsec)
	p.proxies[i].stats.DrainedBytes += bytes
	p.colDrainBytes += bytes
}

// spill truncates a routed forward wave to its first n live rows and
// materializes the remainder into stage i's queue, returning the
// truncated wave. The materialized records own their memory — queue
// entries outlive the epoch's column arrays.
func (p *Pipeline) spill(i int, fwd []wire.ColSec, n int) []wire.ColSec {
	cnt := 0
	for si := range fwd {
		sec := &fwd[si]
		l := sec.Len()
		if cnt+l <= n {
			cnt += l
			continue
		}
		keep := n - cnt
		if sec.Rows != nil {
			p.queues[i] = append(p.queues[i], sec.Rows[keep:]...)
			sec.Rows = sec.Rows[:keep]
		} else {
			if sec.Sel == nil {
				// A section forwarded whole carries no selection vector:
				// name its rows so the head and tail can be split.
				all := p.takeSel()
				for k := range sec.Times {
					all = append(all, int32(k))
				}
				sec.Sel = p.lendSel(all)
			}
			tail := *sec
			tail.Sel = sec.Sel[keep:]
			tail.AppendRows(&p.queues[i])
			sec.Sel = sec.Sel[:keep]
		}
		for sj := si + 1; sj < len(fwd); sj++ {
			fwd[sj].AppendRows(&p.queues[i])
		}
		if keep == 0 {
			return fwd[:si]
		}
		return fwd[:si+1]
	}
	return fwd
}

// takeSel pops a recycled selection-vector buffer (or returns nil, which
// append grows); lendSel registers the final slice for reclamation at
// the next epoch, once the epoch's result has been consumed.
func (p *Pipeline) takeSel() []int32 {
	if nf := len(p.selFree); nf > 0 {
		s := p.selFree[nf-1]
		p.selFree = p.selFree[:nf-1]
		return s[:0]
	}
	return nil
}

func (p *Pipeline) lendSel(s []int32) []int32 {
	if cap(s) > 0 {
		p.selLent = append(p.selLent, s)
	}
	return s
}

// finishEpoch advances the watermark, flushes closed windows and builds
// the epoch's result from the per-proxy stats and output buffers.
func (p *Pipeline) finishEpoch() EpochResult {
	// Watermark: just below the smallest event time still queued locally,
	// or the max seen if no backlog. Queues are not time-ordered — a
	// cascade of older upstream carry-over lands behind newer spilled
	// arrivals — so every queued record counts, not just the heads.
	wm := p.maxEventSeen
	for _, q := range p.queues {
		for k := range q {
			if t := q[k].Time - 1; t < wm {
				wm = t
			}
		}
	}
	if wm > p.watermark {
		p.watermark = wm
	}

	// Flush closed windows in stateful operators (within the boundary);
	// each operator's emissions continue down the chain as one wave.
	emit := func(out telemetry.Record) { p.flushRows = append(p.flushRows, out) }
	for i := 0; i < p.opts.Boundary; i++ {
		if !p.ops[i].Stateful() {
			continue
		}
		p.flushRows = p.flushRows[:0]
		p.ops[i].Flush(p.watermark, emit)
		if len(p.flushRows) > 0 {
			p.runWave(i+1, []wire.ColSec{{Rows: p.flushRows}}, false)
		}
	}

	res := EpochResult{
		Stats:        make([]ProxyStats, len(p.proxies)),
		Drains:       p.drains,
		ResultStage:  p.resultStage(),
		Watermark:    p.watermark,
		DrainedBytes: p.colDrainBytes,
	}
	for i := range p.drains {
		res.DrainedBytes += p.drainRows[i].TotalBytes()
		lead(&p.drains[i], p.drainRows[i])
	}
	lead(&p.results, p.resultRows)
	res.Results = p.results
	res.ResultBytes = p.results.TotalBytes()
	if capacity := p.bucket.Capacity(); capacity > 0 {
		res.BudgetUsedFrac = p.bucket.Used() / capacity
		res.SpareBudgetFrac = p.bucket.SpareFraction()
	}
	spare := res.SpareBudgetFrac
	for i, px := range p.proxies {
		res.Stats[i] = px.EndEpoch(len(p.queues[i]), spare, p.opts.DrainedThres, p.opts.IdleThres)
	}
	p.epochSeq++
	if len(p.prevStates) != len(res.Stats) {
		p.prevStates = make([]ProxyState, len(res.Stats))
	}
	for i := range res.Stats {
		if st := res.Stats[i].State; st != p.prevStates[i] {
			obs.Emit(obs.Decision{
				Kind:        "proxy_state",
				Epoch:       p.epochSeq,
				Stage:       i,
				Cause:       "epoch_stats",
				BeforeState: p.prevStates[i].String(),
				AfterState:  st.String(),
			})
			p.prevStates[i] = st
		}
	}
	return res
}

// lead puts rows, when there are any, in front of cb's sections as one
// Rows section: the row-form records come first in an epoch's output.
func lead(cb *wire.ColumnarBatch, rows telemetry.Batch) {
	if len(rows) == 0 {
		return
	}
	cb.Secs = append(cb.Secs, wire.ColSec{})
	copy(cb.Secs[1:], cb.Secs)
	cb.Secs[0] = wire.ColSec{Rows: rows}
}

func (p *Pipeline) resultStage() int {
	last := p.opts.Boundary - 1
	if last >= 0 && last < len(p.ops) && p.ops[last].Stateful() {
		return last
	}
	return p.opts.Boundary
}

// DrainState asks every stateful local operator to hand its partial state
// downstream immediately (checkpoint support, §IV-E). The emitted rows
// are returned tagged with the operator index they must merge into on the
// SP.
func (p *Pipeline) DrainState() map[int]telemetry.Batch {
	out := make(map[int]telemetry.Batch)
	for i := 0; i < p.opts.Boundary; i++ {
		d, ok := p.ops[i].(operator.StatefulDrainer)
		if !ok {
			continue
		}
		var rows telemetry.Batch
		d.Drain(func(r telemetry.Record) { rows = append(rows, r) })
		if len(rows) > 0 {
			out[i] = rows
		}
	}
	return out
}

// Watermark returns the pipeline's current low watermark.
func (p *Pipeline) Watermark() int64 { return p.watermark }

// ObserveTime advances event-time progress without records (an idle
// source's heartbeat), so windows can close during quiet periods.
func (p *Pipeline) ObserveTime(t int64) {
	if t > p.maxEventSeen {
		p.maxEventSeen = t
	}
}

// DemandFraction estimates the fraction of one core the pipeline needs to
// process everything locally at recPerSec input (diagnostics).
func (p *Pipeline) DemandFraction(recPerSec float64) float64 {
	w := 1.0
	demand := 0.0
	for i, op := range p.query.Ops {
		demand += recPerSec * w * p.cm.Cost(i)
		w *= op.RelayBytes
	}
	return demand / 1e6
}
