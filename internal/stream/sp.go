package stream

import (
	"fmt"
	"sort"
	"sync"

	"jarvis/internal/obs"
	"jarvis/internal/operator"
	"jarvis/internal/plan"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// SPEngine is the stream-processor-side replica of a query. It ingests
// drained records (tagged with the operator they must enter) and partial
// aggregates from many data sources, merges event-time progress across
// their streams (minimum watermark, as Flink does — paper §V), and emits
// final query results.
//
// Stream processors are provisioned with dedicated cores (the paper's
// m5a.16xlarge); the engine therefore executes everything it ingests and
// reports consumed CPU rather than capping it.
//
// All exported methods are safe for concurrent use: an engine may be fed
// by several receivers and restore paths at once, each with their own
// locking discipline, so the engine serializes internally.
type SPEngine struct {
	mu    sync.Mutex
	query *plan.Query
	ops   []operator.Operator
	cm    *CostModel

	// watermarks per source node; the effective watermark is their min.
	sourceWM map[uint32]int64

	results telemetry.Batch

	// ingest scratch, reused across waves: the wave with its section
	// headers (the columns and rows themselves stay shared with the
	// caller's batch per the wire package's mutation discipline), and the
	// buffer one operator's Flush emissions are collected in.
	wave      wire.ColumnarBatch
	colWave   []wire.ColSec
	flushRows telemetry.Batch

	// accounting
	cpuMicros    float64
	ingestBytes  int64
	ingestCount  int64
	resultsCount int64
}

// NewSPEngine builds the SP replica for a query.
func NewSPEngine(q *plan.Query) (*SPEngine, error) {
	ops, err := q.Instantiate()
	if err != nil {
		return nil, err
	}
	cm, err := NewCostModel(q)
	if err != nil {
		return nil, err
	}
	return &SPEngine{
		query:    q,
		ops:      ops,
		cm:       cm,
		sourceWM: make(map[uint32]int64),
	}, nil
}

// Ingest feeds a row batch from a source into the pipeline at the given
// operator stage: it presents the rows as one Rows section and runs
// IngestColumnar. The batch is only read.
func (e *SPEngine) Ingest(stage int, batch telemetry.Batch) error {
	return e.IngestColumnar(stage, &wire.ColumnarBatch{Secs: []wire.ColSec{{Rows: batch}}})
}

// IngestColumnar feeds a wave from a source into the pipeline at the
// given operator stage. Partial AggRow records entering a stateful stage
// merge into its state; raw records flow through the remaining
// operators. Decoded wire v4 frames flow decode→execute with zero row
// materialization wherever the operators have kernels.
//
// The caller's batch is treated read-only: the engine copies the section
// headers and operators replace, never overwrite, shared columns and
// rows.
func (e *SPEngine) IngestColumnar(stage int, cb *wire.ColumnarBatch) error {
	return e.IngestSized(stage, cb, cb.TotalBytes())
}

// IngestSized is IngestColumnar for a caller that already summed the
// batch's accounting bytes (the receiver does once per frame, at
// arrival): the engine books that sum instead of walking the batch again.
func (e *SPEngine) IngestSized(stage int, cb *wire.ColumnarBatch, bytes int64) error {
	start := obs.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if stage < 0 || stage > len(e.ops) {
		return fmt.Errorf("stream: ingest stage %d out of range [0,%d]", stage, len(e.ops))
	}
	live := cb.Records()
	if live == 0 {
		return nil
	}
	e.ingestBytes += bytes
	e.ingestCount += int64(live)
	e.runLocked(stage, cb.Secs)
	obs.Since(obs.StageIngest, start)
	return nil
}

// runLocked is the engine's one execution loop: it drives a wave through
// stages [stage, len(ops)), charging the cost model once per stage, and
// appends any survivors to e.results as rows.
func (e *SPEngine) runLocked(stage int, secs []wire.ColSec) {
	e.colWave = append(e.colWave[:0], secs...)
	e.wave.Secs = e.colWave
	live := e.wave.Records()
	for i := stage; i < len(e.ops) && live > 0; i++ {
		e.cpuMicros += e.cm.Cost(i) * float64(live)
		e.ops[i].ProcessColumnar(&e.wave)
		live = e.wave.Records()
	}
	e.wave.AppendRows(&e.results)
	e.resultsCount += int64(live)
	e.wave.Secs = nil
}

// RegisterSource announces a source before its first watermark so the
// effective watermark (a minimum across sources) does not run ahead while
// the source is quiet. Registration is idempotent and never regresses an
// observed watermark.
func (e *SPEngine) RegisterSource(source uint32) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.sourceWM[source]; !ok {
		e.sourceWM[source] = 0
	}
}

// ObserveWatermark records event-time progress for one source stream.
// Control proxies replicate watermarks onto drain paths, so every
// source's drain and result streams share the source's watermark.
func (e *SPEngine) ObserveWatermark(source uint32, wm int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.sourceWM[source]; !ok || wm > cur {
		e.sourceWM[source] = wm
	}
}

// SourceWatermarks invokes f for every registered source's current
// watermark (iteration order unspecified).
func (e *SPEngine) SourceWatermarks(f func(source uint32, wm int64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for s, wm := range e.sourceWM {
		f(s, wm)
	}
}

// EffectiveWatermark returns the minimum watermark across all known
// sources (0 when none are registered).
func (e *SPEngine) EffectiveWatermark() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.effectiveWMLocked()
}

func (e *SPEngine) effectiveWMLocked() int64 {
	first := true
	var min int64
	for _, wm := range e.sourceWM {
		if first || wm < min {
			min = wm
			first = false
		}
	}
	return min
}

// Advance flushes stateful operators up to the effective watermark,
// cascading through downstream operators, and returns the final records
// emitted by the query since the last call.
func (e *SPEngine) Advance() telemetry.Batch {
	e.mu.Lock()
	defer e.mu.Unlock()
	wm := e.effectiveWMLocked()
	emit := func(out telemetry.Record) { e.flushRows = append(e.flushRows, out) }
	for i, op := range e.ops {
		if !op.Stateful() {
			continue
		}
		e.flushRows = e.flushRows[:0]
		op.Flush(wm, emit)
		if len(e.flushRows) > 0 {
			e.runLocked(i+1, []wire.ColSec{{Rows: e.flushRows}})
		}
	}
	out := e.results
	e.results = nil
	return out
}

// WindowDur returns the deployed query's tumbling-window duration in
// microseconds (0 when the query has no window operator). The admission
// degrader uses it to map raw event times to the window ids the engine
// will assign downstream.
func (e *SPEngine) WindowDur() int64 { return e.query.WindowDur() }

// CPUMicros returns the total compute consumed by the SP replica.
func (e *SPEngine) CPUMicros() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cpuMicros
}

// IngressBytes returns the total bytes ingested from sources.
func (e *SPEngine) IngressBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ingestBytes
}

// IngressRecords returns the number of records ingested.
func (e *SPEngine) IngressRecords() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ingestCount
}

// Sources lists the registered source ids, ascending.
func (e *SPEngine) Sources() []uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]uint32, 0, len(e.sourceWM))
	for s := range e.sourceWM {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reset clears all operator state and accounting (between experiments).
func (e *SPEngine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, op := range e.ops {
		op.Reset()
	}
	e.sourceWM = make(map[uint32]int64)
	e.results = nil
	e.cpuMicros = 0
	e.ingestBytes = 0
	e.ingestCount = 0
	e.resultsCount = 0
}
