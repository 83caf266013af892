package core

import (
	"fmt"
	"sync"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
)

// Processor is the stream-processor side of a core building block: the
// query's replicated operators plus multi-source watermark merging.
//
// There is one way in: a transport.Receiver over Engine(). Processes put
// their own receiver on it and serve sockets; Consume, the in-process
// entry, runs each epoch through the same sequenced protocol in memory —
// the source's DurableShipper encodes it, and one synchronous session
// (DurableShipper.Flush) carries the frames into the processor's own
// receiver, which stages, dedups and applies them exactly as it would
// off a connection. Both entries may feed one processor at once.
type Processor struct {
	query  *plan.Query
	engine *stream.SPEngine

	// The in-process sessions' endpoints, built on first Consume.
	mu    sync.Mutex
	rc    *transport.Receiver
	ships map[uint32]*transport.DurableShipper
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
	return &Processor{query: opt, engine: engine}, nil
}

// Engine exposes the SP engine (for transport.Receiver).
func (p *Processor) Engine() *stream.SPEngine { return p.engine }

// Restore folds a source checkpoint into the engine — the §IV-E
// source-failure path: the SP finishes the failed source's in-flight
// windows from its last checkpoint.
func (p *Processor) Restore(source uint32, cp *stream.Checkpoint) error {
	return p.engine.Restore(source, cp)
}

// LoadSnapshot atomically replaces the processor's state with a full
// snapshot (the HA promotion path: a standby's warm state becomes this
// processor's).
func (p *Processor) LoadSnapshot(stages map[int]telemetry.Batch, watermarks map[uint32]int64) error {
	return p.engine.LoadSnapshot(stages, watermarks)
}

// RegisterSource announces a source before its first epoch.
func (p *Processor) RegisterSource(id uint32) { p.engine.RegisterSource(id) }

// session returns a source's shipper and the processor's receiver,
// building either on first use.
func (p *Processor) session(source uint32) (*transport.DurableShipper, *transport.Receiver) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rc == nil {
		p.rc = transport.NewReceiver(p.engine)
		p.ships = make(map[uint32]*transport.DurableShipper)
	}
	ship := p.ships[source]
	if ship == nil {
		ship = transport.NewDurableShipper(source, 0)
		p.ships[source] = ship
	}
	return ship, p.rc
}

// Consume ingests one source's epoch result: each stage's drains enter
// the stage its proxy guarded, the results enter the result stage, and
// the source's watermark advances the merge. Each is one batch, its
// row-form records leading as one Rows section, read from the pipeline's
// buffers before Consume returns. Safe for concurrent use.
//
// The epoch's stage ranges are validated first; a result that fails
// there, or that cannot be encoded, is rejected whole. Past that point
// the source's shipper holds the epoch's encoded bytes, and it has been
// applied when Consume returns nil. If the session fails instead, the
// epoch stays in the shipper's replay buffer and the source's next
// Consume replays it ahead of its own; the receiver's sequence frontier
// discards whatever had already been applied. The caller must therefore
// never Consume the same result twice.
func (p *Processor) Consume(source uint32, res stream.EpochResult) error {
	nops := len(p.query.Ops)
	if len(res.Drains) > nops {
		return fmt.Errorf("core: %d drain stages for %d operators", len(res.Drains), nops)
	}
	if len(res.Results.Secs) > 0 && (res.ResultStage < 0 || res.ResultStage > nops) {
		return fmt.Errorf("core: result stage %d out of range [0,%d]", res.ResultStage, nops)
	}
	ship, rc := p.session(source)
	if err := ship.ShipEpoch(res); err != nil {
		return err
	}
	if err := ship.Flush(rc); err != nil {
		return fmt.Errorf("core: source %d session: %w", source, err)
	}
	return nil
}

// Results flushes closed windows across all merged sources and returns
// the final query output rows produced since the last call.
func (p *Processor) Results() telemetry.Batch {
	p.mu.Lock()
	rc := p.rc
	p.mu.Unlock()
	if rc == nil {
		// Nothing was consumed in process: a transport flow drives the
		// engine through a receiver of its own.
		return p.engine.Advance()
	}
	return rc.Advance()
}

// IngressBytes reports the network volume received from sources.
func (p *Processor) IngressBytes() int64 { return p.engine.IngressBytes() }

// CPUMicros reports the SP-side compute consumed.
func (p *Processor) CPUMicros() float64 { return p.engine.CPUMicros() }

// BuildingBlock wires one Processor to n in-process Sources — the
// paper's unit of scalability (§IV-A). It is the easiest way to run
// Jarvis end to end without a network: every epoch still crosses the
// wire encoding and the sequenced session (Processor.Consume), only the
// socket is missing.
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
	return bb.Proc.Results(), nil
}
