// Package spnode assembles a stream processor node: processor, receiver,
// HA gate, snapshot store, result log and recovery manager, plus the
// replication publisher or the warm standby by role. cmd/jarvis-sp,
// examples/cluster and sim.Cluster all build their SP with Open, which
// owns the refused configurations, the resume term, the counters the
// gate shares, source registration, and what Close and Crash release.
//
// Open binds listeners but starts no goroutine (Async's snapshot writer
// aside); only Serve does. sim.Cluster never calls it: it drives
// sessions itself through DurableShipper.Flush(node.Receiver()).
package spnode

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"sync"

	"jarvis/internal/admission"
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/ha"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
)

// Config is what varies between the SPs callers build. Every is the
// snapshot cadence in applied epochs and Retain the chains compaction
// keeps (0 = all). Admission is the caller's, so a node reopened after
// a crash keeps its tenants' budgets.
type Config struct {
	Query              *plan.Query
	Sources            []uint32 // the merged watermark waits for each
	CheckpointDir      string   // store + results.log; "" = a stateless primary
	Every, Retain      int
	Async              bool   // save snapshots on a writer goroutine
	Term               uint64 // a primary's fencing term; a restored higher one wins
	Standby            bool   // sync from Peer, the primary's replication address
	Peer               string
	Listen, ReplListen string // agent and replication listeners ("" = none)
	Admission          *admission.Controller
}

// Node is one assembled SP. Advance, Promote, Close and Crash belong to
// one driving goroutine; Serve runs beside it.
type Node struct {
	cfg      Config
	proc     *core.Processor
	rc       *transport.Receiver
	gate     *ha.Gate
	rlog     *checkpoint.ResultLog
	rm       *checkpoint.SPRecovery
	pub      *ha.Publisher
	st       *ha.Standby
	ln, rln  net.Listener
	restored bool
	closers  []func() error // what Open and Promote opened, in order

	mu      sync.Mutex
	closed  bool
	cancel  context.CancelFunc // ends Serve
	serving sync.WaitGroup     // Serve and the goroutines it started
}

// Open assembles the node for cfg's role and restores its newest
// snapshot. On error it releases whatever it had opened.
func Open(cfg Config) (n *Node, err error) {
	switch {
	case cfg.Standby && (cfg.CheckpointDir == "" || cfg.Peer == ""):
		return nil, errors.New("-standby requires -checkpoint-dir and -peer")
	case cfg.Standby && cfg.ReplListen != "":
		// Serving replicas from a (possibly promoted) standby is a manual
		// hand-off today; refusing beats silently dropping the listener.
		return nil, errors.New("-repl-listen is not supported with -standby: point new standbys at the promoted node explicitly")
	case cfg.ReplListen != "" && cfg.CheckpointDir == "":
		return nil, errors.New("-repl-listen requires -checkpoint-dir")
	}
	proc, err := core.NewProcessor(cfg.Query)
	if err != nil {
		return nil, err
	}
	n = &Node{cfg: cfg, proc: proc, rc: transport.NewReceiver(proc.Engine())}
	defer func() {
		if err != nil {
			n.Crash()
			n = nil
		}
	}()
	n.rc.SetAdmission(cfg.Admission)
	for _, src := range cfg.Sources {
		n.rc.RegisterSource(src)
	}
	switch {
	case cfg.Standby:
		n.gate = ha.NewGate(ha.RoleStandby, 0, nil)
		if n.st, err = ha.NewStandby(proc, cfg.CheckpointDir, n.gate.Counters()); err != nil {
			return n, err
		}
		n.rlog = n.st.ResultLog()
		n.st.Store().SetRetention(cfg.Retain)
		n.closers = append(n.closers, n.st.Store().Close, n.rlog.Close)
	case cfg.CheckpointDir != "":
		var store *checkpoint.Store
		if store, err = checkpoint.OpenStore(cfg.CheckpointDir); err != nil {
			return n, err
		}
		store.SetRetention(cfg.Retain)
		n.closers = append(n.closers, store.Close)
		logPath := filepath.Join(cfg.CheckpointDir, "results.log")
		if n.rlog, err = checkpoint.OpenResultLog(logPath); err != nil {
			return n, err
		}
		n.rm = checkpoint.NewSPRecovery(store, n.rlog, proc.Engine(), n.rc, cfg.Every)
		n.rm.SetAsync(cfg.Async)
		n.closers = append(n.closers, n.rlog.Close, n.rm.Close)
		if n.restored, err = n.rm.Restore(); err != nil {
			return n, err
		}
		// Resume at the highest term this node ever reached, so a
		// restarted promoted standby is not fenced by its own agents.
		// Snapshots, acks and replication carry the one term.
		term := max(cfg.Term, 1, n.rm.RestoredTerm())
		n.rm.SetTerm(term)
		n.gate = ha.NewGate(ha.RolePrimary, term, nil)
		if cfg.ReplListen != "" {
			n.pub = ha.NewPublisher(store, logPath, term, n.gate.Counters())
			n.rm.SetReplicator(n.pub, 0)
			n.closers = append(n.closers, n.pub.Close)
		}
	default:
		n.gate = ha.NewGate(ha.RolePrimary, cfg.Term, nil)
	}
	n.rc.SetHelloGate(n.gate)
	if n.ln, err = n.listen(cfg.Listen); err == nil {
		n.rln, err = n.listen(cfg.ReplListen)
	}
	return n, err
}

func (n *Node) listen(addr string) (net.Listener, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err == nil {
		n.closers = append(n.closers, ln.Close)
	}
	return ln, err
}

// The node's parts. Receiver is its one way in: serve it sockets, or
// drive sessions into it with DurableShipper.Flush. Engine is a
// standby's shadow; ResultLog its mirror, and nil when stateless;
// Standby and Publisher are nil outside their role. Restored reports
// whether Open restored a snapshot; Addr and ReplAddr are the bound
// listeners' addresses.
func (n *Node) Receiver() *transport.Receiver    { return n.rc }
func (n *Node) Engine() *stream.SPEngine         { return n.proc.Engine() }
func (n *Node) Gate() *ha.Gate                   { return n.gate }
func (n *Node) Standby() *ha.Standby             { return n.st }
func (n *Node) Publisher() *ha.Publisher         { return n.pub }
func (n *Node) ResultLog() *checkpoint.ResultLog { return n.rlog }
func (n *Node) Restored() bool                   { return n.restored }
func (n *Node) Addr() net.Addr                   { return n.ln.Addr() }
func (n *Node) ReplAddr() net.Addr               { return n.rln.Addr() }

// Advance flushes closed windows and returns the rows emitted for the
// first time, through the recovery manager when checkpointing. Only a
// primary emits: a standby mirrors rows the primary owns, and a fenced
// node was superseded. Rows and an error may come back together (rows
// logged, the follow-up snapshot failed).
func (n *Node) Advance() (telemetry.Batch, error) {
	if n.gate.Role() != ha.RolePrimary {
		return nil, nil
	}
	if n.rm != nil {
		return n.rm.Advance()
	}
	return n.rc.Advance(), nil
}

// Promote turns the standby into the primary: it adopts the warm
// shadow engine, checkpoints over the local store and mirrored log, and
// takes the next fencing term.
func (n *Node) Promote() error {
	if n.st == nil {
		return errors.New("spnode: only a standby promotes")
	}
	rm, err := n.st.Promote(n.rc, n.cfg.Every)
	if err != nil {
		return err
	}
	rm.SetAsync(n.cfg.Async)
	n.rm = rm
	n.closers = append(n.closers, rm.Close)
	n.gate.Promote(n.st.NextTerm())
	return nil
}

// Serve accepts agents, and feeds standbys (a publisher) or syncs from
// the primary (a standby), until ctx is cancelled, the node is closed or
// the agent listener fails.
func (n *Node) Serve(ctx context.Context) error {
	n.mu.Lock()
	if n.closed || n.cancel != nil {
		n.mu.Unlock()
		return errors.New("spnode: node closed or already serving")
	}
	ctx, n.cancel = context.WithCancel(ctx)
	n.serving.Add(1)
	n.mu.Unlock()
	defer n.serving.Done()
	defer n.cancel() // stops the goroutines below; Close and Crash wait for them
	if n.pub != nil {
		n.serving.Add(1)
		go func() { defer n.serving.Done(); _ = n.pub.Serve(ctx, n.rln) }()
	}
	if n.st != nil {
		n.serving.Add(1)
		go func() { defer n.serving.Done(); n.st.Run(ctx, n.cfg.Peer) }()
	}
	if n.ln == nil {
		<-ctx.Done()
		return nil
	}
	srv := transport.NewServer(n.rc)
	// Cancelling cuts live agent connections too, not just the listener;
	// the server's Serve then returns once their handlers have.
	defer context.AfterFunc(ctx, func() { _ = srv.Close() })()
	err := srv.Serve(ctx, n.ln)
	_ = srv.Close() // an accept error returns before the handlers do
	return err
}

// Close stops serving, saves a final snapshot covering every applied
// epoch, and releases everything Open opened. Closing a closed or
// crashed node does nothing.
func (n *Node) Close() error { return n.shut(true) }

// Crash stops serving and releases everything Open opened without a
// final snapshot or the async writer's queued ones (the save in
// progress completes): what a process kill leaves on disk.
func (n *Node) Crash() { _ = n.shut(false) }

func (n *Node) shut(final bool) error {
	n.mu.Lock()
	first, cancel := !n.closed, n.cancel
	n.closed = true
	n.mu.Unlock()
	if !first {
		return nil
	}
	if cancel != nil {
		cancel()
		n.serving.Wait()
	}
	var errs []error
	if n.rm != nil && final {
		errs = append(errs, n.rm.Snapshot())
	} else if n.rm != nil {
		n.rm.Abandon() // a kill saves nothing queued; rm.Close is then a no-op
	}
	// Newest first: listeners, publisher, the recovery manager's queued
	// saves, then the result log and store they write to.
	for i := len(n.closers) - 1; i >= 0; i-- {
		if err := n.closers[i](); !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
