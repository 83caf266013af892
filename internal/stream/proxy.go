package stream

import "jarvis/internal/telemetry"

// ProxyState is the control proxy's view of its downstream operator at an
// epoch boundary (paper §IV-C).
type ProxyState int

// Proxy states.
const (
	// StateStable: the operator is neither congested nor idle.
	StateStable ProxyState = iota
	// StateIdle: the operator stayed empty longer than IdleThres allows.
	StateIdle
	// StateCongested: more pending records than DrainedThres tolerates.
	StateCongested
)

func (s ProxyState) String() string {
	switch s {
	case StateStable:
		return "stable"
	case StateIdle:
		return "idle"
	case StateCongested:
		return "congested"
	default:
		return "unknown"
	}
}

// ProxyStats counts one epoch of activity at one control proxy.
type ProxyStats struct {
	// In is the number of records that arrived at the proxy.
	In int
	// Forwarded went to the local downstream operator's queue.
	Forwarded int
	// Processed were actually consumed by the operator within budget.
	Processed int
	// Drained went to the network for remote processing.
	Drained int
	// DrainedBytes is the drained volume.
	DrainedBytes int64
	// Pending are forwarded records still queued at epoch end.
	Pending int
	// State is the classification at the epoch boundary.
	State ProxyState
}

// Proxy is the control proxy in front of one operator: a light-weight
// router that forwards a fraction p (the load factor) of incoming records
// to the local operator and drains the rest to the replicated operator on
// the stream processor.
type Proxy struct {
	stage int
	p     float64
	// acc implements deterministic error-diffusion so the realized
	// forward fraction converges to p without randomness: each record
	// adds p; forwarding costs 1.
	acc   float64
	stats ProxyStats
}

// NewProxy creates a proxy for pipeline stage i with load factor 0
// (paper: Startup initializes all load factors to zero, everything
// drains).
func NewProxy(stage int) *Proxy { return &Proxy{stage: stage} }

// Stage returns the pipeline stage index this proxy guards.
func (px *Proxy) Stage() int { return px.stage }

// LoadFactor returns the current load factor p.
func (px *Proxy) LoadFactor() float64 { return px.p }

// SetLoadFactor updates p, clamped to [0, 1].
func (px *Proxy) SetLoadFactor(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	px.p = p
}

// Route decides one record's fate: true = forward to the local operator,
// false = drain to the stream processor. Deterministic: over n records
// exactly ⌊np⌋ or ⌈np⌉ are forwarded.
func (px *Proxy) Route(rec telemetry.Record) bool { return px.RouteSize(rec.WireSize) }

// RouteSize is Route for SoA sections: the decision and the accounting
// depend only on the record's wire size, which the sections supply
// straight from their columns without materializing the record.
// Route is RouteSize of the record's WireSize, so a routing sequence
// mixing the two is bit-identical to the same sequence of materialized
// records through Route alone.
func (px *Proxy) RouteSize(bytes int) bool {
	if px.route() {
		return true
	}
	px.stats.DrainedBytes += int64(bytes)
	return false
}

// route is RouteSize's decision and record counts without the drained
// bytes, for the caller that bills a section's drained rows in one sum.
func (px *Proxy) route() bool {
	px.stats.In++
	px.acc += px.p
	if px.acc >= 1-1e-12 {
		px.acc -= 1
		px.stats.Forwarded++
		return true
	}
	px.stats.Drained++
	return false
}

// routeRun routes n ≥ 1 rows that share one fate (p is 0, or p is 1 and
// no drain is forced): the first through route, the rest by count. That
// is n calls of route, since acc then stands still: at p = 0 acc + 0 is
// acc, always below 1 − 1e-12, so every row drains; at p = 1 acc ≥
// −1e-12, every row forwards, and one update leaves acc' = fl(acc+1) − 1
// exactly (Sterbenz: fl(acc+1) is in [1/2, 2]), a fixed point of
// acc + 1 − 1 in float64.
func (px *Proxy) routeRun(n int) bool {
	fwd := px.route()
	px.stats.In += n - 1
	if fwd {
		px.stats.Forwarded += n - 1
	} else {
		px.stats.Drained += n - 1
	}
	return fwd
}

// NoteProcessedN records n forwarded records consumed within budget by
// the downstream operator, in one amortized update.
func (px *Proxy) NoteProcessedN(n int) { px.stats.Processed += n }

// NoteForcedDrain accounts for a record the pipeline drained without
// consulting Route — its stage queue was full — keeping the proxy's
// arrived/drained counters consistent without exposing the stats field.
func (px *Proxy) NoteForcedDrain(bytes int) {
	px.stats.In++
	px.stats.Drained++
	px.stats.DrainedBytes += int64(bytes)
}

// EndEpoch classifies the proxy given queue occupancy and the node's
// spare budget, returns the epoch's stats, and resets counters for the
// next epoch. pending is the downstream queue length now; spareBudget is
// the node-wide unused budget fraction; thresholds per §IV-C.
func (px *Proxy) EndEpoch(pending int, spareBudget, drainedThres, idleThres float64) ProxyStats {
	s := px.stats
	s.Pending = pending
	switch {
	case float64(pending) > drainedThres*float64(max(s.In, 1)):
		s.State = StateCongested
	case spareBudget > idleThres && pending == 0 && (px.p < 1 || s.In == 0):
		// The node had spare compute and this operator stayed empty:
		// either its proxy withheld records (p < 1) or its upstream
		// starved it entirely (the paper's "operator stays empty"
		// condition).
		s.State = StateIdle
	default:
		s.State = StateStable
	}
	px.stats = ProxyStats{}
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
