// Cluster-scale deterministic simulation: where Node models one agent
// analytically, Cluster runs hundreds to thousands of REAL agents and
// SPs — the production assemblies agentnode.Open (load factors pinned)
// and spnode.Open (receiver, admission controller, checkpoint/recovery)
// — under one shared virtual clock. Scheduling is a discrete-event
// heap: no goroutines race, no wall-clock sleeps happen,
// and two runs of the same compiled spec produce byte-identical result
// logs and decision traces, which is what makes 1000-node failover
// scenarios regression-testable under -race.
//
// Cluster is also the one overload model: a hot-tenant spike is a spec
// (rate_spike fault, sp.admit_* sizing) driven through the production
// receiver's delay queue, shed-and-replay and degrade hysteresis, never
// a re-implementation of that discipline — ClusterResult reports what
// the controller and shippers themselves counted. Recorded traffic, a
// -record-traffic capture or a /flightrecorder dump alike, replays as an
// arrival source (ClusterConfig.Replay).
package sim

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/agentnode"
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/obs"
	"jarvis/internal/plan"
	"jarvis/internal/spnode"
	"jarvis/internal/telemetry"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload/spec"
)

// Simulation metric names (default registry).
const (
	GaugeSimVirtualSeconds = "sim_virtual_seconds"
	CtrSimEvents           = "sim_events_processed"
	CtrSimEpochs           = "sim_epochs_total"
	CtrSimFailovers        = "sim_failovers_total"
)

// simClockBase anchors the virtual clock at a fixed wall instant so
// time-based subsystems (admission token buckets) see identical
// timestamps in every run.
var simClockBase = time.Unix(1_700_000_000, 0)

// ClusterConfig configures a spec-driven cluster run.
type ClusterConfig struct {
	// Scenario is the compiled workload spec (spec.Spec.Compile).
	Scenario *spec.Scenario
	// CheckpointDir, when non-empty, gives every SP a durable
	// snapshot store and exactly-once result log under
	// <dir>/<query>; sp_crash faults then recover from the latest
	// snapshot instead of losing state.
	CheckpointDir string
	// Replay adds recorded wire-v4 traffic captures as additional
	// arrival sources: each capture's connections are split into
	// per-epoch frame runs and fed, one run per virtual epoch, into a
	// dedicated SP for the named query.
	Replay []ReplaySource
	// MaxPending overrides the shippers' replay-buffer bound
	// (0 selects a sim default comfortably above checkpoint cadence
	// plus outage length).
	MaxPending int
}

// ReplaySource is one recorded traffic capture replayed into the sim.
type ReplaySource struct {
	// Query names the canonical query the capture was recorded against.
	Query string
	// Capture is a transport traffic capture or ring dump (TrafficMagic
	// format).
	Capture []byte
}

// ClusterResult summarizes a completed run.
type ClusterResult struct {
	// Nodes is the number of simulated agents (spec nodes + replayed
	// connections).
	Nodes int
	// Epochs is the number of virtual epochs driven (data + drain).
	Epochs int
	// VirtualSeconds is the virtual time advanced.
	VirtualSeconds float64
	// Events is the number of discrete events processed.
	Events int64
	// WallSeconds is the real time the run took.
	WallSeconds float64
	// NodeEpochsPerSec is the wall-clock simulation throughput in
	// node-epochs per second.
	NodeEpochsPerSec float64
	// Rows is the total number of final result rows across SPs.
	Rows int
	// Failovers counts sp_crash faults executed.
	Failovers int
	// EpochsDelayed/EpochsDegraded sum the SPs' admission activity —
	// how often overload protection actually engaged during the run.
	EpochsDelayed  int64
	EpochsDegraded int64
	// Jain is each admission-controlled SP's budget-normalized fairness
	// index at the end of the run (keyed by SP name).
	Jain map[string]float64
	// Tenants is every tenant's cumulative admission activity, keyed by
	// tenant (the spec group name).
	Tenants map[string]admission.TenantStats
	// EpochGaps sums the sequence holes the SPs' receivers detected (an
	// SP's count restarts with its receiver at an sp_crash); Unacked is,
	// per spec node in scenario order, the epochs left in its shipper's
	// replay buffer when the run ended. Both zero means nothing shipped
	// was lost: every epoch, shed ones included, was applied and acked.
	EpochGaps int64
	Unacked   []int
	// ResultLogs holds one canonical result log per SP (keyed by SP
	// name): rows rendered sorted within each advance batch, so two
	// deterministic runs compare byte-for-byte.
	ResultLogs map[string][]byte
	// Decisions is the canonicalized decision trace of the run
	// (timestamps stripped; ordering and content preserved).
	Decisions []byte
}

// simEvent is one scheduled action. Ordering is (at, prio, seq): faults
// fire before node ticks, node ticks before SP advances, and insertion
// order breaks remaining ties — fully deterministic.
type simEvent struct {
	at   int64 // virtual micros
	prio int
	seq  int
	run  func()
}

const (
	prioFault = iota
	prioNode
	prioAdvance
)

type eventHeap []*simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*simEvent)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
func (h eventHeap) peekAt() (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}

// simSP is one simulated stream processor: the production SP assembly
// (spnode), optionally with admission control and durable recovery. A
// crash is node.Crash; recovery opens a new node from the same config.
type simSP struct {
	name string // SP key ("s2s", "spans", "replay:s2s", ...)
	cfg  spnode.Config
	node *spnode.Node
	down bool
	log  bytes.Buffer
	rows int
}

// clusterNode is one spec node: the production agent assembly
// (agentnode) with adaptation off and every load factor pinned to 1.
type clusterNode struct {
	spec      *spec.Node
	agent     *agentnode.Agent
	sp        *simSP
	eventTime int64
	cb        wire.ColumnarBatch
}

// replayNode feeds one recorded connection's epochs into its SP, one
// epoch run per virtual epoch.
type replayNode struct {
	src    uint32
	hello  *wire.Hello
	sp     *simSP
	runs   [][][]byte
	cursor int
	seqs   []uint64 // epoch seq per run (patched into re-hellos)
}

// Cluster is a compiled, ready-to-run simulation.
type Cluster struct {
	cfg     ClusterConfig
	sc      *spec.Scenario
	tor     *telemetry.ToRTable
	now     int64 // virtual micros
	seq     int
	events  eventHeap
	sps     map[string]*simSP
	spOrder []string
	nodes   []*clusterNode
	replays []*replayNode

	failovers int
	nEvents   int64

	gVirtual  obs.Gauge
	cEvents   obs.Counter
	cEpochs   obs.Counter
	cFailover obs.Counter
}

// NewCluster compiles a ClusterConfig into a runnable simulation.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	sc := cfg.Scenario
	if sc == nil || len(sc.Nodes) == 0 {
		return nil, fmt.Errorf("sim: cluster needs a compiled scenario with nodes")
	}
	maxPending := cfg.MaxPending
	if maxPending <= 0 {
		maxPending = 1024
	}
	reg := obs.Default()
	c := &Cluster{
		cfg: cfg, sc: sc,
		sps:       map[string]*simSP{},
		gVirtual:  reg.Gauge(GaugeSimVirtualSeconds),
		cEvents:   reg.Counter(CtrSimEvents),
		cEpochs:   reg.Counter(CtrSimEpochs),
		cFailover: reg.Counter(CtrSimFailovers),
	}

	// One SP per distinct query, in spec first-use order.
	for _, q := range sc.Queries {
		sp, err := c.newSP(q, q)
		if err != nil {
			return nil, err
		}
		c.sps[q] = sp
		c.spOrder = append(c.spOrder, q)
	}

	// Spec nodes: agent assemblies whose sessions their ticks drive.
	for i := range sc.Nodes {
		sn := &sc.Nodes[i]
		q, err := c.queryFor(sn.Query)
		if err != nil {
			return nil, err
		}
		src := uint32(sn.Index + 1)
		agent, err := agentnode.Open(agentnode.Config{
			SourceOptions: core.SourceOptions{ID: src, BudgetFrac: 4.0},
			Query:         q, MaxPending: maxPending, Tenant: sn.Group, Class: sn.Class,
		})
		if err != nil {
			return nil, err
		}
		if err := agent.Source().SetLoadFactors(slices.Repeat([]float64{1}, len(agent.Source().Query().Ops))); err != nil {
			return nil, err
		}
		sp := c.sps[sn.Query]
		sp.cfg.Sources = append(sp.cfg.Sources, src)
		c.nodes = append(c.nodes, &clusterNode{spec: sn, agent: agent, sp: sp})
	}

	// Replay sources: dedicated SPs so recorded watermark timelines
	// never hold back the spec-driven queries.
	for _, rs := range cfg.Replay {
		q, ok := spec.CanonicalQuery(rs.Query)
		if !ok {
			return nil, fmt.Errorf("sim: replay source names unknown query %q", rs.Query)
		}
		name := "replay:" + q
		sp := c.sps[name]
		if sp == nil {
			var err error
			if sp, err = c.newSP(name, q); err != nil {
				return nil, err
			}
			c.sps[name] = sp
			c.spOrder = append(c.spOrder, name)
		}
		conns, err := transport.ReadTrafficCapture(rs.Capture)
		if err != nil {
			return nil, err
		}
		for _, conn := range conns {
			rn, err := newReplayNode(conn, sp)
			if err != nil {
				return nil, err
			}
			sp.cfg.Sources = append(sp.cfg.Sources, rn.src)
			c.replays = append(c.replays, rn)
		}
	}
	for _, name := range c.spOrder {
		sp := c.sps[name]
		var err error
		if sp.node, err = spnode.Open(sp.cfg); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// queryFor resolves a canonical query name to a plan. T2T's join table
// is built once to cover every simulated source and peer address, so
// joins hit exactly as they would against a production ToR inventory.
func (c *Cluster) queryFor(name string) (*plan.Query, error) {
	if name == "t2t" {
		return plan.T2TProbe(c.torTable()), nil
	}
	q, _, err := plan.QueryByName(name)
	return q, err
}

// torTable covers the ping workloads' address space: every node's
// source IP plus the peer range any group can draw from.
func (c *Cluster) torTable() *telemetry.ToRTable {
	if c.tor != nil {
		return c.tor
	}
	peers := spec.DefaultSpecPeers
	for i := range c.sc.Spec.Groups {
		g := &c.sc.Spec.Groups[i]
		if g.Skew != nil && g.Skew.Keys > peers {
			peers = g.Skew.Keys
		}
	}
	ips := make([]uint32, 0, len(c.sc.Nodes)+peers)
	for i := range c.sc.Nodes {
		ips = append(ips, 0x0A000000+uint32(c.sc.Nodes[i].Index+1))
	}
	for i := 0; i < peers; i++ {
		ips = append(ips, 0x0B000000+uint32(i))
	}
	c.tor = telemetry.NewToRTable(ips, 40)
	return c.tor
}

// newSP configures one stream processor for a canonical query; NewCluster
// opens it once every source is known.
func (c *Cluster) newSP(name, query string) (*simSP, error) {
	q, err := c.queryFor(query)
	if err != nil {
		return nil, err
	}
	every := checkpoint.DefaultEvery
	if e := c.sc.Spec.SP.CheckpointEvery; e > 0 {
		every = e
	}
	sp := &simSP{name: name, cfg: spnode.Config{Query: q, Every: every, Retain: checkpoint.DefaultRetain}}
	if p := c.sc.Spec.SP; p.AdmitRateMbps > 0 {
		acfg := admission.DefaultConfig()
		acfg.RateBytesPerSec = p.AdmitRateMbps * 1e6 / 8
		acfg.BurstBytes = 2 * acfg.RateBytesPerSec
		if p.AdmitBurstKB > 0 {
			acfg.BurstBytes = p.AdmitBurstKB * 1024
		}
		if p.MaxDelayedEpochs > 0 {
			acfg.MaxDelayedEpochs = p.MaxDelayedEpochs
		}
		acfg.Now = c.virtualNow
		sp.cfg.Admission = admission.NewController(acfg)
	}
	if c.cfg.CheckpointDir != "" {
		sp.cfg.CheckpointDir = filepath.Join(c.cfg.CheckpointDir, sanitizeName(name))
	}
	return sp, nil
}

// virtualNow is the cluster's shared clock, injected into time-based
// subsystems so token buckets refill on virtual time.
func (c *Cluster) virtualNow() time.Time {
	return simClockBase.Add(time.Duration(c.now) * time.Microsecond)
}

func sanitizeName(s string) string { return strings.NewReplacer(":", "_", "/", "_").Replace(s) }

// advance drains delayed epochs, flushes closed windows, and appends
// the new rows to the SP's canonical result log (nothing while down).
func (sp *simSP) advance(epoch int) error {
	if sp.down {
		return nil
	}
	rows, err := sp.node.Advance()
	if len(rows) > 0 {
		fmt.Fprintf(&sp.log, "epoch %d\n", epoch)
		sp.log.Write(renderResultRows(rows))
		sp.rows += len(rows)
	}
	return err
}

// newReplayNode splits a recorded connection into per-epoch runs and
// pre-decodes the seq each run ends on (re-hellos carry it so the
// receiver's frontier logic treats every flush as a resumed session).
func newReplayNode(conn *transport.TrafficConn, sp *simSP) (*replayNode, error) {
	helloFrame, runs, err := conn.Epochs()
	if err != nil {
		return nil, err
	}
	hello, _, err := transport.DecodeControl(helloFrame)
	if err != nil {
		return nil, err
	}
	if hello == nil {
		return nil, fmt.Errorf("sim: recorded connection carries no hello")
	}
	rn := &replayNode{src: hello.Source, hello: hello, sp: sp, runs: runs}
	for _, run := range runs {
		_, end, err := transport.DecodeControl(run[len(run)-1])
		if err != nil {
			return nil, err
		}
		if end == nil {
			return nil, fmt.Errorf("sim: recorded epoch run does not end in EpochEnd")
		}
		rn.seqs = append(rn.seqs, end.Seq)
	}
	return rn, nil
}

// tick flushes the node's next recorded epoch into its SP.
func (rn *replayNode) tick() error {
	if rn.cursor >= len(rn.runs) || rn.sp.down {
		return nil
	}
	h := *rn.hello
	if rn.cursor > 0 {
		h.Seq = rn.seqs[rn.cursor-1]
	}
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf)
	rec := telemetry.Record{WireSize: 29, Data: &h}
	if err := fw.WriteFrame(wire.Frame{StreamID: wire.ControlStreamID, Source: h.Source, Records: telemetry.Batch{rec}}); err != nil {
		return err
	}
	if err := fw.Flush(); err != nil {
		return err
	}
	for _, f := range rn.runs[rn.cursor] {
		var hdr [4]byte
		hdr[0] = byte(len(f) >> 24)
		hdr[1] = byte(len(f) >> 16)
		hdr[2] = byte(len(f) >> 8)
		hdr[3] = byte(len(f))
		buf.Write(hdr[:])
		buf.Write(f)
	}
	rn.cursor++
	// A recording has no shipper to adopt acks: they are discarded.
	return rn.sp.node.Receiver().HandleConn(struct {
		io.Reader
		io.Writer
	}{&buf, io.Discard})
}

// tick runs one virtual epoch on a spec node: generate (or skip), step
// the agent (run the epoch and ship it), and flush the shipper's pending
// stream synchronously into the SP.
func (n *clusterNode) tick(epoch, dataEpochs int, durMicros int64) error {
	n.eventTime += durMicros
	n.cb.Reset()
	if epoch < dataEpochs && n.spec.Active(epoch) {
		n.spec.EmitWindow(durMicros, &n.cb)
	} else {
		if epoch < dataEpochs {
			// Churned out: the generator keeps event-time pace silently.
			n.spec.Skip(durMicros)
		}
		n.agent.Source().ObserveTime(n.eventTime)
	}
	if _, err := n.agent.Step(&n.cb, time.Time{}); err != nil {
		return err
	}
	if n.sp.down {
		// The SP is out: pending epochs accumulate in the replay buffer
		// and drain on the first flush after recovery.
		return nil
	}
	// Hello + all pending epochs in, acks out; a shed epoch's replay
	// request is served at once, not a full epoch later.
	if err := n.agent.Shipper().Flush(n.sp.node.Receiver()); err != nil {
		return fmt.Errorf("sim: node %d flush: %w", n.spec.Index, err)
	}
	return nil
}

// schedule pushes an event onto the heap.
func (c *Cluster) schedule(at int64, prio int, run func()) {
	c.seq++
	heap.Push(&c.events, &simEvent{at: at, prio: prio, seq: c.seq, run: run})
}

// Run executes the simulation to completion and returns the canonical
// result. The loop is single-threaded: events pop in (time, priority,
// insertion) order and run inline, so no scheduling nondeterminism can
// leak into the result.
func (c *Cluster) Run() (*ClusterResult, error) {
	wallStart := time.Now()
	obs.Decisions().Reset()

	dur := c.sc.EpochMicros
	dataEpochs := c.sc.Spec.Epochs
	total := dataEpochs + c.sc.DrainEpochs
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Fault timeline: crashes and their recoveries, scheduled up front.
	// An sp_crash with no query targets every live-spec SP (sorted for
	// schedule determinism); a query targets that SP alone.
	for i := range c.sc.Spec.Faults {
		f := c.sc.Spec.Faults[i]
		if f.Kind != spec.FaultSPCrash {
			continue
		}
		var targets []string
		if f.Query == "" {
			for name := range c.sps {
				if !strings.HasPrefix(name, "replay:") {
					targets = append(targets, name)
				}
			}
			sort.Strings(targets)
		} else if target, ok := spec.CanonicalQuery(f.Query); ok && c.sps[target] != nil {
			targets = append(targets, target)
		}
		outage := f.OutageEpochs
		if outage < 1 {
			outage = 1
		}
		for _, target := range targets {
			sp := c.sps[target]
			c.schedule(int64(f.Epoch)*dur, prioFault, func() {
				if sp.down {
					return
				}
				// A process kill: no final snapshot, no result flush.
				sp.node.Crash()
				sp.down = true
				c.failovers++
				c.cFailover.Inc()
				obs.Emit(obs.Decision{
					TsMicros: c.now, Kind: "sim_sp_crash", Cause: "fault_injection",
					Detail: sp.name, Epoch: uint64(c.now / dur),
				})
			})
			back := f.Epoch + outage
			if back < total {
				c.schedule(int64(back)*dur, prioFault, func() {
					if !sp.down {
						return
					}
					// Recovery reopens from durable state (or fresh, when
					// stateless). The admission controller survives: its
					// budgets are control-plane state, not process state.
					node, err := spnode.Open(sp.cfg)
					if err != nil {
						fail(err)
						return
					}
					sp.node, sp.down = node, false
					obs.Emit(obs.Decision{
						TsMicros: c.now, Kind: "sim_sp_recover", Cause: "outage_elapsed",
						Detail: sp.name, Epoch: uint64(c.now / dur),
					})
				})
			}
		}
	}

	// Node and SP events self-reschedule epoch over epoch, so the heap
	// holds one event per live entity rather than epochs×nodes.
	everyEpoch := func(prio int, step func(epoch int) error) {
		var fn func()
		fn = func() {
			epoch := int(c.now / dur)
			fail(step(epoch))
			if epoch+1 < total {
				c.schedule(c.now+dur, prio, fn)
			}
		}
		c.schedule(0, prio, fn)
	}
	for _, n := range c.nodes {
		everyEpoch(prioNode, func(epoch int) error { return n.tick(epoch, dataEpochs, dur) })
	}
	for _, rn := range c.replays {
		everyEpoch(prioNode, func(int) error { return rn.tick() })
	}
	for _, name := range c.spOrder {
		everyEpoch(prioAdvance, c.sps[name].advance)
	}

	epochsSeen := int64(0)
	for c.events.Len() > 0 {
		at, _ := c.events.peekAt()
		if at > c.now {
			// The virtual clock jumps straight to the next event: the gap
			// costs nothing, which is the whole point of simulated time.
			if at/dur > c.now/dur {
				c.cEpochs.Add(at/dur - c.now/dur)
				epochsSeen = at / dur
			}
			c.now = at
			c.gVirtual.Set(c.now / 1_000_000)
		}
		ev := heap.Pop(&c.events).(*simEvent)
		ev.run()
		c.nEvents++
		c.cEvents.Inc()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	c.now = int64(total) * dur
	c.gVirtual.Set(c.now / 1_000_000)
	if int64(total) > epochsSeen {
		c.cEpochs.Add(int64(total) - epochsSeen)
	}

	res := &ClusterResult{
		Nodes:          len(c.nodes) + len(c.replays),
		Epochs:         total,
		VirtualSeconds: float64(c.now) / 1e6,
		Events:         c.nEvents,
		Failovers:      c.failovers,
		ResultLogs:     map[string][]byte{},
		Jain:           map[string]float64{},
		Tenants:        map[string]admission.TenantStats{},
	}
	for _, n := range c.nodes {
		res.Unacked = append(res.Unacked, int(n.agent.Shipper().Seq()-n.agent.Shipper().Acked()))
	}
	for _, name := range c.spOrder {
		sp := c.sps[name]
		res.ResultLogs[name] = append([]byte(nil), sp.log.Bytes()...)
		res.Rows += sp.rows
		res.EpochGaps += sp.node.Receiver().Counters().Get(transport.CtrEpochGaps)
		if admit := sp.cfg.Admission; admit != nil {
			res.EpochsDelayed += admit.Counters().Counter(admission.CtrEpochsDelayed).Value()
			res.EpochsDegraded += admit.Counters().Counter(admission.CtrEpochsDegraded).Value()
			res.Jain[name] = admit.JainIndex()
			for tenant, st := range admit.TenantStats() {
				res.Tenants[tenant] = st
			}
		}
		_ = sp.node.Close() // a crashed node's Close does nothing
	}
	res.Decisions = renderDecisions(obs.Decisions().Recent(0))
	res.WallSeconds = time.Since(wallStart).Seconds()
	if res.WallSeconds > 0 {
		res.NodeEpochsPerSec = float64(res.Nodes*res.Epochs) / res.WallSeconds
	}
	return res, nil
}

// renderResultRows canonicalizes an advance batch: one line per row,
// sorted, so map-iteration order inside the engine cannot leak into the
// result log.
func renderResultRows(rows telemetry.Batch) []byte {
	lines := make([]string, 0, len(rows))
	for _, rec := range rows {
		row, ok := rec.Data.(*telemetry.AggRow)
		if !ok {
			lines = append(lines, fmt.Sprintf("t=%d other=%T", rec.Time, rec.Data))
			continue
		}
		lines = append(lines, fmt.Sprintf("w=%d key=%d/%q n=%d sum=%g min=%g max=%g",
			row.Window, row.Key.Num, row.Key.Str, row.Count, row.Sum, row.Min, row.Max))
	}
	sort.Strings(lines)
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// renderDecisions canonicalizes the decision trace: wall timestamps are
// stripped (Emit stamps them from the wall clock), everything else —
// order, kinds, causes, sources, state transitions — is preserved, so
// two deterministic runs must produce identical bytes.
func renderDecisions(ds []obs.Decision) []byte {
	var buf bytes.Buffer
	for _, d := range ds {
		fmt.Fprintf(&buf, "seq=%d kind=%s src=%d epoch=%d stage=%d cause=%s before=%v after=%v bstate=%s astate=%s term=%d detail=%s\n",
			d.Seq, d.Kind, d.Source, d.Epoch, d.Stage, d.Cause,
			d.Before, d.After, d.BeforeState, d.AfterState, d.Term, d.Detail)
	}
	return buf.Bytes()
}
