// Package core assembles Jarvis' pieces into the deployable units a user
// runs: a Source (the data-source agent: pipeline + control proxies +
// Jarvis runtime, fully decentralized) and a Processor (the SP side:
// replicated operators, multi-source merge). The root jarvis package
// re-exports this API.
package core

import (
	"fmt"

	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/runtime"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// SourceOptions configures a data source agent.
type SourceOptions struct {
	// ID tags this source's decision-trace events (obs package). Use the
	// same stream/source id the transport hello carries; 0 is fine for a
	// single-source process.
	ID uint32
	// BudgetFrac is the CPU budget as a fraction of one core.
	BudgetFrac float64
	// RateMbps is the expected input rate (profiling normalization).
	RateMbps float64
	// EpochMicros is the epoch length (default 1 s).
	EpochMicros int64
	// Runtime configures the adaptation algorithm (default:
	// runtime.Defaults() — LP init + fine tuning).
	Runtime *runtime.Config
	// Adapt disables the Jarvis runtime when false: load factors stay
	// wherever SetLoadFactors put them (baseline strategies).
	Adapt bool
}

// Source is a Jarvis data-source agent: the query's source-side replica
// plus the decentralized runtime that keeps it stable.
type Source struct {
	query    *plan.Query
	pipeline *stream.Pipeline
	rt       *runtime.Runtime
	opts     SourceOptions
	boundary int

	lastResult stream.EpochResult
	epochs     int64
}

// NewSource compiles the query (optimizer + rules R-1..R-4) and builds
// the agent.
func NewSource(q *plan.Query, opts SourceOptions) (*Source, error) {
	opt, err := plan.Optimize(q)
	if err != nil {
		return nil, err
	}
	if opts.EpochMicros <= 0 {
		opts.EpochMicros = 1_000_000
	}
	boundary := plan.EligiblePrefix(opt, plan.SourceRules())
	if boundary == 0 {
		return nil, fmt.Errorf("core: no operator of %q is source-eligible", q.Name)
	}
	po := stream.DefaultOptions(opts.BudgetFrac, boundary)
	po.EpochMicros = opts.EpochMicros
	pipe, err := stream.NewPipeline(opt, po)
	if err != nil {
		return nil, err
	}
	cfg := runtime.Defaults()
	if opts.Runtime != nil {
		cfg = *opts.Runtime
	}
	return &Source{
		query:    opt,
		pipeline: pipe,
		rt:       runtime.New(cfg),
		opts:     opts,
		boundary: boundary,
	}, nil
}

// Query returns the optimized query the source runs.
func (s *Source) Query() *plan.Query { return s.query }

// Boundary returns how many leading operators may run locally.
func (s *Source) Boundary() int { return s.boundary }

// SetBudget adjusts the CPU budget between epochs (resource shifts).
func (s *Source) SetBudget(frac float64) {
	s.opts.BudgetFrac = frac
	s.pipeline.SetBudget(frac)
}

// Budget returns the current CPU budget fraction.
func (s *Source) Budget() float64 { return s.pipeline.Budget() }

// LoadFactors returns the proxies' current load factors.
func (s *Source) LoadFactors() []float64 { return s.pipeline.LoadFactors() }

// SetLoadFactors pins load factors (only meaningful with Adapt=false).
func (s *Source) SetLoadFactors(f []float64) error { return s.pipeline.SetLoadFactors(f) }

// Phase reports the runtime's operational phase.
func (s *Source) Phase() runtime.Phase { return s.rt.Phase() }

// ObserveTime advances event time during quiet periods so windows close.
func (s *Source) ObserveTime(micros int64) { s.pipeline.ObserveTime(micros) }

// RunEpoch executes one epoch over a row batch, then lets the Jarvis
// runtime observe the epoch and refine the partitioning plan. The
// returned EpochResult carries everything that must ship to the SP.
func (s *Source) RunEpoch(input telemetry.Batch) (stream.EpochResult, error) {
	return s.afterEpoch(s.pipeline.RunEpoch(input))
}

// RunEpochColumnar is RunEpoch over a columnar (SoA) arrival wave: the
// generator's column sections run the local chain without materializing
// records wherever the plan has columnar kernels. See
// stream.Pipeline.RunEpochColumnar for the result's column-lifetime
// contract.
func (s *Source) RunEpochColumnar(cb *wire.ColumnarBatch) (stream.EpochResult, error) {
	return s.afterEpoch(s.pipeline.RunEpochColumnar(cb))
}

// afterEpoch records the epoch and lets the runtime adapt on it.
func (s *Source) afterEpoch(res stream.EpochResult) (stream.EpochResult, error) {
	// Keep only the scalar view: the caller owns the epoch's drain and
	// result buffers (and typically recycles them via Processor.Consume),
	// so LastResult must not alias pool-owned memory.
	s.lastResult = res
	s.lastResult.Drains = nil
	s.lastResult.Results = nil
	s.lastResult.ColDrains = nil
	s.lastResult.ColResults = wire.ColumnarBatch{}
	s.epochs++
	if !s.opts.Adapt {
		return res, nil
	}
	o := runtime.Observation{
		Stats:           res.Stats,
		LoadFactors:     s.pipeline.LoadFactors(),
		SpareBudgetFrac: res.SpareBudgetFrac,
		Boundary:        s.boundary,
	}
	act := s.rt.OnEpoch(o)
	if act.SetLoadFactors != nil {
		if err := s.pipeline.SetLoadFactors(act.SetLoadFactors); err != nil {
			return res, err
		}
		s.emitLoadFactors(o.LoadFactors, act.Phase)
	}
	if act.Profile {
		before := s.pipeline.LoadFactors()
		pact, err := s.rt.OnProfile(s.profile(res))
		if err != nil {
			return res, err
		}
		if pact.SetLoadFactors != nil {
			if err := s.pipeline.SetLoadFactors(pact.SetLoadFactors); err != nil {
				return res, err
			}
			s.emitLoadFactors(before, pact.Phase)
		}
	}
	return res, nil
}

// emitLoadFactors records one applied load-factor change in the
// process decision trace. After re-reads the pipeline (SetLoadFactors
// zeroes factors past the boundary), so consecutive decisions chain:
// each Before equals the previous After, which is what makes
// obs.LoadFactorTimeline replayable.
func (s *Source) emitLoadFactors(before []float64, phase runtime.Phase) {
	obs.Emit(obs.Decision{
		Kind:   "load_factors",
		Source: s.opts.ID,
		Epoch:  uint64(s.epochs),
		Cause:  phase.String(),
		Before: before,
		After:  s.pipeline.LoadFactors(),
	})
}

// profile builds cost/relay estimates for the runtime. The live agent
// reads its calibrated cost model (token accounting is exact, so the
// estimates carry no noise; the simulator explores the noisy-profiling
// regime of Fig. 8).
func (s *Source) profile(res stream.EpochResult) runtime.Estimates {
	q := s.query
	m := len(q.Ops)
	est := runtime.Estimates{
		CostPct:   make([]float64, m),
		Relay:     make([]float64, m),
		BudgetPct: s.pipeline.Budget() * 100,
		Quality:   make([]float64, m),
	}
	scale := 1.0
	if q.RefRateMbps > 0 && s.opts.RateMbps > 0 {
		scale = s.opts.RateMbps / q.RefRateMbps
	}
	for i, op := range q.Ops {
		est.CostPct[i] = op.CostPct * scale
		est.Relay[i] = op.RelayBytes
		est.Quality[i] = 1
	}
	return est
}

// Capture copies the pipeline's stateful operator state (§IV-E), in
// full or as a delta since the previous capture. Pair with
// RestoreCheckpoint via checkpoint.AgentRecovery for durable,
// epoch-aligned agent snapshots.
func (s *Source) Capture(full bool) stream.Checkpoint { return s.pipeline.Capture(full) }

// RestoreCheckpoint folds a checkpoint back into the pipeline after a
// restart: operator state merges in and the watermark resumes where the
// snapshot left it.
func (s *Source) RestoreCheckpoint(cp *stream.Checkpoint) error {
	return s.pipeline.RestoreCheckpoint(cp)
}

// LastResult returns the most recent epoch's result with the record
// buffers dropped: stats, watermark and byte/budget accounting are
// retained, Drains/Results are nil (they belong to the epoch's consumer
// and may already have been recycled).
func (s *Source) LastResult() stream.EpochResult { return s.lastResult }

// Epochs returns how many epochs have run.
func (s *Source) Epochs() int64 { return s.epochs }

// NewPingmeshSource is a quickstart helper: an S2SProbe source fed by a
// synthetic Pingmesh generator at the paper's 10×-scaled rate.
func NewPingmeshSource(seed uint64, budgetFrac float64) (*Source, *workload.PingGen, error) {
	src, err := NewSource(plan.S2SProbe(), SourceOptions{
		BudgetFrac: budgetFrac,
		RateMbps:   workload.PingmeshMbps10x,
		Adapt:      true,
	})
	if err != nil {
		return nil, nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(seed))
	return src, gen, nil
}
