package core

import (
	"fmt"
	"runtime"
	"sync"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
)

// Processor is the stream-processor side of a core building block: the
// query's replicated operators plus multi-source watermark merging. Feed
// it with each source's epoch results (in process) or wire frames (via
// transport.Receiver, which wraps the same engine).
//
// In-process ingest is sharded: each source maps to one shard replica of
// the query, Consume enqueues the epoch (cheap, per-source FIFO), and
// Results drains all shards on a bounded worker pool — one goroutine per
// shard, at most min(GOMAXPROCS, 8) shards — before merging the shards'
// partial aggregates and watermarks at a single point, the root replica.
// Because the query's aggregates are mergeable (rule R-1), the merged
// results are exactly the serial ones; sharding only applies to queries
// with a stateful merge stage, everything else stays on the serial path.
// Wire-transport flows that ingest through Engine() are untouched.
type Processor struct {
	query      *plan.Query
	engine     *stream.SPEngine // root replica: merge point + serial path
	mergeStage int
	maxShards  int

	mu     sync.Mutex
	shards []*procShard
	assign map[uint32]int   // source id → shard index
	wm     map[uint32]int64 // per-source watermark (single merge point)
	err    error            // first deferred ingest error, if any
	// mergedBytes tracks shard rows folded into the root, so ingress
	// accounting can exclude them from the root engine's totals.
	mergedBytes int64
}

// procShard is one ingest worker's state: a full replica of the query
// plus the epochs queued for its sources since the last Results call.
type procShard struct {
	engine *stream.SPEngine
	jobs   []stream.EpochResult
}

// NewProcessor builds the SP replica for a query.
func NewProcessor(q *plan.Query) (*Processor, error) {
	opt, err := plan.Optimize(q)
	if err != nil {
		return nil, err
	}
	engine, err := stream.NewSPEngine(opt)
	if err != nil {
		return nil, err
	}
	maxShards := runtime.GOMAXPROCS(0)
	if maxShards > 8 {
		maxShards = 8
	}
	return &Processor{
		query:      opt,
		engine:     engine,
		mergeStage: mergeStage(opt),
		maxShards:  maxShards,
		assign:     make(map[uint32]int),
		wm:         make(map[uint32]int64),
	}, nil
}

// SetMaxShards bounds the ingest worker pool (1 disables sharding).
// Call before the first Consume.
func (p *Processor) SetMaxShards(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n < 1 {
		n = 1
	}
	p.maxShards = n
}

// Engine exposes the root SP engine (for transport.Receiver). Flows that
// ingest through it bypass the shards and keep the serial semantics.
func (p *Processor) Engine() *stream.SPEngine { return p.engine }

// Restore folds a source checkpoint into the root engine — the §IV-E
// source-failure path: the SP finishes the failed source's in-flight
// windows from its last checkpoint.
func (p *Processor) Restore(source uint32, cp *stream.Checkpoint) error {
	return p.engine.Restore(source, cp)
}

// LoadSnapshot atomically replaces the processor's state with a full
// snapshot (the HA promotion path: a standby's warm state becomes this
// processor's). Restored state lives entirely in the root engine, so any
// shard replicas and their queued epochs are discarded — an in-process
// Consume after promotion reshards from the restored root.
func (p *Processor) LoadSnapshot(stages map[int]telemetry.Batch, watermarks map[uint32]int64) error {
	p.mu.Lock()
	p.shards = nil
	p.assign = make(map[uint32]int)
	wm := make(map[uint32]int64, len(watermarks))
	for src, w := range watermarks {
		wm[src] = w
	}
	p.wm = wm
	p.mu.Unlock()
	return p.engine.LoadSnapshot(stages, watermarks)
}

// RegisterSource announces a source before its first epoch.
func (p *Processor) RegisterSource(id uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.engine.RegisterSource(id)
	if _, ok := p.wm[id]; !ok {
		p.wm[id] = 0
	}
}

// sharded reports whether in-process ingest uses shard replicas. The
// merge point must be the final operator: shard flushes would otherwise
// push rows through the operators past it, and folding them back into
// the root at the merge stage would run those operators a second time.
// (All of the paper's queries end with their G+R, so they shard.)
func (p *Processor) sharded() bool {
	return p.mergeStage == len(p.query.Ops)-1 && p.maxShards > 1
}

// shardFor returns the shard owning a source, assigning round-robin and
// building the replica on first use. Caller holds p.mu.
func (p *Processor) shardFor(source uint32) (*procShard, error) {
	if idx, ok := p.assign[source]; ok {
		return p.shards[idx], nil
	}
	idx := len(p.assign) % p.maxShards
	for idx >= len(p.shards) {
		engine, err := stream.NewSPEngine(p.query)
		if err != nil {
			return nil, err
		}
		p.shards = append(p.shards, &procShard{engine: engine})
	}
	p.assign[source] = idx
	return p.shards[idx], nil
}

// Consume ingests one source's epoch result: drains enter the stages
// their proxies guarded, results enter the result stage, and the
// source's watermark advances the merge. Safe for concurrent use; the
// epoch is validated eagerly, queued on the source's shard (per-source
// order preserved), ingested concurrently at the next Results call and
// its buffers recycled afterwards. Row and columnar sections
// (RunEpoch / RunEpochColumnar results) are both ingested.
func (p *Processor) Consume(source uint32, res stream.EpochResult) error {
	nops := len(p.query.Ops)
	if len(res.Drains) > nops || len(res.ColDrains) > nops {
		return fmt.Errorf("core: %d row / %d columnar drain stages for %d operators", len(res.Drains), len(res.ColDrains), nops)
	}
	if (len(res.Results) > 0 || len(res.ColResults.Secs) > 0) && (res.ResultStage < 0 || res.ResultStage > nops) {
		return fmt.Errorf("core: result stage %d out of range [0,%d]", res.ResultStage, nops)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if cur, ok := p.wm[source]; !ok || res.Watermark > cur {
		p.wm[source] = res.Watermark
	}
	if !p.sharded() {
		if err := p.ingestInto(p.engine, &res); err != nil {
			return err
		}
		p.engine.ObserveWatermark(source, res.Watermark)
		res.Recycle()
		return nil
	}
	shard, err := p.shardFor(source)
	if err != nil {
		return err
	}
	// The job waits for the next Results call, but its columnar sections
	// view column arrays that are only valid until the source's next
	// epoch: materialize them into rows the job owns, behind the row
	// records of the same stage (the order ingestInto delivers them in).
	for stage := range res.ColDrains {
		if len(res.ColDrains[stage].Secs) > 0 {
			for len(res.Drains) <= stage {
				res.Drains = append(res.Drains, nil)
			}
			res.ColDrains[stage].AppendRows(&res.Drains[stage])
		}
	}
	res.ColDrains = nil
	res.ColResults.AppendRows(&res.Results)
	res.ColResults = wire.ColumnarBatch{}
	shard.jobs = append(shard.jobs, res)
	return nil
}

// ingestInto feeds one epoch's drains and results into an engine, each
// stage's row records ahead of its columnar sections (the EpochResult
// delivery order).
func (p *Processor) ingestInto(e *stream.SPEngine, res *stream.EpochResult) error {
	for stage := 0; stage < len(res.Drains) || stage < len(res.ColDrains); stage++ {
		if stage < len(res.Drains) && len(res.Drains[stage]) > 0 {
			if err := e.Ingest(stage, res.Drains[stage]); err != nil {
				return err
			}
		}
		if stage < len(res.ColDrains) {
			if err := e.IngestColumnar(stage, &res.ColDrains[stage]); err != nil {
				return err
			}
		}
	}
	if len(res.Results) > 0 {
		if err := e.Ingest(res.ResultStage, res.Results); err != nil {
			return err
		}
	}
	if len(res.ColResults.Secs) > 0 {
		return e.IngestColumnar(res.ResultStage, &res.ColResults)
	}
	return nil
}

// Results flushes closed windows across all merged sources and returns
// the final query output rows produced since the last call. With shards
// active this is the barrier and single merge point: every shard drains
// its queued epochs concurrently, then flushes at the globally merged
// watermark, and the shards' partial rows merge into the root replica.
func (p *Processor) Results() telemetry.Batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.shards) == 0 {
		// Serial path (including transport flows driving the root engine).
		return p.engine.Advance()
	}

	var wg sync.WaitGroup
	errs := make([]error, len(p.shards))
	for si, shard := range p.shards {
		if len(shard.jobs) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, shard *procShard) {
			defer wg.Done()
			for j := range shard.jobs {
				res := &shard.jobs[j]
				if err := p.ingestInto(shard.engine, res); err != nil {
					errs[si] = err
					return
				}
				res.Recycle()
			}
		}(si, shard)
	}
	wg.Wait()
	for si, shard := range p.shards {
		if errs[si] != nil && p.err == nil {
			p.err = errs[si]
		}
		shard.jobs = shard.jobs[:0]
	}

	// Single merge point: flush every shard at the minimum watermark
	// across all sources and fold the partial rows into the root.
	effWM := p.effectiveWM()
	for _, shard := range p.shards {
		rows := shard.engine.AdvanceTo(effWM)
		if len(rows) == 0 {
			continue
		}
		p.mergedBytes += rows.TotalBytes()
		if err := p.engine.Ingest(p.mergeStage, rows); err != nil && p.err == nil {
			p.err = err
		}
		telemetry.PutBatch(rows)
	}
	return p.engine.AdvanceTo(effWM)
}

// effectiveWM is the minimum watermark across all sources (0 when none
// are registered). A source may be tracked by the processor (Consume),
// by the root engine (transport flows observing watermarks through
// Engine()), or both — RegisterSource pins both sides at zero, so the
// per-source watermark is the max of the two views, and the effective
// watermark their min. Caller holds p.mu.
func (p *Processor) effectiveWM() int64 {
	first := true
	var min int64
	observe := func(wm int64) {
		if first || wm < min {
			min = wm
			first = false
		}
	}
	seen := make(map[uint32]bool, len(p.wm))
	p.engine.SourceWatermarks(func(source uint32, engineWM int64) {
		seen[source] = true
		if procWM, ok := p.wm[source]; ok && procWM > engineWM {
			engineWM = procWM
		}
		observe(engineWM)
	})
	for source, wm := range p.wm {
		if !seen[source] {
			observe(wm)
		}
	}
	return min
}

// Err returns the first error encountered by deferred shard ingest.
func (p *Processor) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// IngressBytes reports the network volume received from sources — both
// in-process epochs consumed by the shards and anything ingested through
// the root engine directly (transport flows); the shards' merge rows
// folded into the root are internal and excluded.
func (p *Processor) IngressBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.engine.IngressBytes() - p.mergedBytes
	for _, shard := range p.shards {
		n += shard.engine.IngressBytes()
	}
	return n
}

// CPUMicros reports the SP-side compute consumed.
func (p *Processor) CPUMicros() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.engine.CPUMicros()
	for _, shard := range p.shards {
		total += shard.engine.CPUMicros()
	}
	return total
}

// BuildingBlock wires one Processor to n in-process Sources — the
// paper's unit of scalability (§IV-A). It is the easiest way to run
// Jarvis end to end without a network.
type BuildingBlock struct {
	Proc    *Processor
	Sources []*Source
}

// NewBuildingBlock creates a processor and n sources for the query.
func NewBuildingBlock(q *plan.Query, n int, opts SourceOptions) (*BuildingBlock, error) {
	proc, err := NewProcessor(q)
	if err != nil {
		return nil, err
	}
	bb := &BuildingBlock{Proc: proc}
	for i := 0; i < n; i++ {
		src, err := NewSource(q, opts)
		if err != nil {
			return nil, err
		}
		bb.Sources = append(bb.Sources, src)
		proc.RegisterSource(uint32(i + 1))
	}
	return bb, nil
}

// RunEpoch drives every source with its batch (index-aligned) and feeds
// the processor, returning any final rows that became complete.
func (bb *BuildingBlock) RunEpoch(batches []telemetry.Batch) (telemetry.Batch, error) {
	for i, src := range bb.Sources {
		var batch telemetry.Batch
		if i < len(batches) {
			batch = batches[i]
		}
		res, err := src.RunEpoch(batch)
		if err != nil {
			return nil, err
		}
		if err := bb.Proc.Consume(uint32(i+1), res); err != nil {
			return nil, err
		}
	}
	out := bb.Proc.Results()
	if err := bb.Proc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
