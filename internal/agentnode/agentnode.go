// Package agentnode assembles a data-source agent: the query's
// source-side replica under the Jarvis runtime (core.Source), the
// sequenced durable shipper and, with a checkpoint directory, the
// snapshot store and the recovery manager that restores the newest
// snapshot. cmd/jarvis-agent, examples/cluster and sim.Cluster all build
// their agent with Open, which owns the epoch step (run, ship, snapshot)
// and what Close and Crash release.
//
// Open starts no goroutine (Async's snapshot writer aside) and dials
// nothing: callers connect the Shipper to their SPs, or drive sessions
// themselves through Shipper().Flush.
package agentnode

import (
	"errors"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
)

// Config is what varies between the agents callers build. The embedded
// SourceOptions configure the source; its ID is also the shipper's
// source id. MaxPending bounds the replay buffer (0 = the shipper's
// default). Tenant and Class, when either is set, are announced in the
// hello. Every is the snapshot cadence in epochs and Retain the chains
// compaction keeps (0 = all).
type Config struct {
	core.SourceOptions
	Query         *plan.Query
	MaxPending    int
	Compress      bool // flate-compress columnar data frames
	Tenant, Class string
	CheckpointDir string // "" = no snapshots
	Every, Retain int
	Async         bool // save snapshots on a writer goroutine
}

// Agent is one assembled agent. All its methods belong to one driving
// goroutine.
type Agent struct {
	src    *core.Source
	ship   *transport.DurableShipper
	store  *checkpoint.Store
	rec    *checkpoint.AgentRecovery
	resume uint64
	closed bool
}

// Open assembles the agent and restores its newest snapshot. On error it
// releases whatever it had opened.
func Open(cfg Config) (*Agent, error) {
	src, err := core.NewSource(cfg.Query, cfg.SourceOptions)
	if err != nil {
		return nil, err
	}
	a := &Agent{src: src, ship: transport.NewDurableShipper(cfg.ID, cfg.MaxPending)}
	a.ship.SetCompression(cfg.Compress)
	if cfg.Tenant != "" || cfg.Class != "" {
		class, err := admission.ParseClass(cfg.Class)
		if err != nil {
			return nil, err
		}
		a.ship.SetIdentity(cfg.Tenant, class)
	}
	if cfg.CheckpointDir == "" {
		return a, nil
	}
	if a.store, err = checkpoint.OpenStore(cfg.CheckpointDir); err != nil {
		return nil, err
	}
	a.store.SetRetention(cfg.Retain)
	a.rec = checkpoint.NewAgentRecovery(a.store, cfg.Every, src, a.ship)
	a.rec.SetAsync(cfg.Async)
	if a.resume, _, err = a.rec.Restore(); err != nil {
		a.Crash()
		return nil, err
	}
	return a, nil
}

// The agent's parts. Resume is the epoch the restored snapshot covers
// (0 without one): the driver re-feeds its input from the epoch after.
func (a *Agent) Source() *core.Source               { return a.src }
func (a *Agent) Shipper() *transport.DurableShipper { return a.ship }
func (a *Agent) Resume() uint64                     { return a.resume }

// Step runs one epoch over cb, ships it, and snapshots the agent when
// the cadence is due, in that order. genStart is when the driver began
// generating cb (zero = untraced): Step records the generate stage and
// the shipper seals both stamps into the epoch's trace context.
func (a *Agent) Step(cb *wire.ColumnarBatch, genStart time.Time) (stream.EpochResult, error) {
	var genDur time.Duration
	if !genStart.IsZero() {
		genDur = time.Since(genStart)
		obs.Observe(obs.StageGenerate, genDur)
	}
	res, err := a.src.RunEpochColumnar(cb)
	if err != nil {
		return res, err
	}
	if !genStart.IsZero() {
		res.Timing.StartMicros, res.Timing.GenMicros = genStart.UnixMicro(), genDur.Microseconds()
	}
	if err := a.ship.ShipEpoch(res); err != nil {
		return res, err
	}
	if a.rec != nil {
		err = a.rec.AfterEpoch(a.ship.Seq())
	}
	return res, err
}

// Close drains the async writer's queued snapshots and releases the
// store and the shipper's connection. Closing a closed or crashed agent
// does nothing.
func (a *Agent) Close() error { return a.shut(true) }

// Crash releases the store and the connection without saving queued
// snapshots: what a process kill leaves on disk.
func (a *Agent) Crash() { _ = a.shut(false) }

func (a *Agent) shut(drain bool) error {
	if a.closed {
		return nil
	}
	a.closed = true
	var errs []error
	if a.rec != nil {
		if drain {
			errs = append(errs, a.rec.Close())
		} else {
			a.rec.Abandon()
		}
		errs = append(errs, a.store.Close())
	}
	return errors.Join(append(errs, a.ship.Close())...)
}
