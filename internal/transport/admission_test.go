package transport

import (
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"jarvis/internal/admission"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/telemetry"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// fakeClock is a manually advanced clock shared between the test and the
// controller's bucket math (mutexed: receiver goroutines may read it).
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}
func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// probeFrames builds one epoch's staged frames: n ping probes in a
// single stage-0 data frame, columnar as the receiver stages it.
func probeFrames(src uint32, base int64, n int) []wire.Frame {
	batch := make(telemetry.Batch, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, telemetry.NewProbeRecord(&telemetry.PingProbe{
			Timestamp: base + int64(i), SrcIP: 1, DstIP: 2, RTTMicros: 500,
		}))
	}
	cb := rowsBatch(batch)
	return []wire.Frame{{StreamID: 0, Source: src, Cols: &cb}}
}

func newAdmissionReceiver(t *testing.T, cfg admission.Config) (*Receiver, *admission.Controller) {
	t.Helper()
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	rc.SetAdmission(admission.NewController(cfg))
	return rc, rc.Admission()
}

func discardAckWriter() *ackWriter {
	return &ackWriter{fw: wire.NewFrameWriter(io.Discard)}
}

// commit drives one EpochEnd through the receiver's commit path the way
// HandleConn does, returning the acks it would send.
func commit(t *testing.T, rc *Receiver, src uint32, seq uint64, frames []wire.Frame, aw *ackWriter) []ackTarget {
	t.Helper()
	targets, err := rc.commitEpoch(src, &wire.EpochEnd{Seq: seq, Watermark: int64(seq) * 1_000_000}, frames, aw)
	if err != nil {
		t.Fatal(err)
	}
	return targets
}

// TestAdmissionDelayAndDrain: an over-budget epoch parks in the delay
// queue instead of applying (or being dropped), and drains as the
// bucket refills — on the next commit and on Advance.
func TestAdmissionDelayAndDrain(t *testing.T) {
	clk := newFakeClock()
	frames := probeFrames(1, 0, 50)
	b := float64(framesBytes(frames))
	rc, ctrl := newAdmissionReceiver(t, admission.Config{
		RateBytesPerSec: b, BurstBytes: b, MaxDelayedEpochs: 16,
		DegradeAfter: 1 << 30, PromoteAfter: 1 << 30, DegradeRate: 0.25,
		Now: clk.now,
	})
	ctrl.Register(1, "acme", admission.Silver)
	aw := discardAckWriter()
	rc.registerConn(1, false, aw)

	commit(t, rc, 1, 1, frames, aw)
	if got := rc.AppliedSeq(1); got != 1 {
		t.Fatalf("burst epoch not applied: frontier %d", got)
	}
	// Same instant: the bucket is spent, the epoch must wait, and the ack
	// must keep pointing at the durable frontier (never ack-before-apply).
	targets := commit(t, rc, 1, 2, frames, aw)
	if got := rc.AppliedSeq(1); got != 1 {
		t.Fatalf("over-budget epoch applied immediately (frontier %d)", got)
	}
	if len(targets) != 1 || targets[0].seq != 1 || targets[0].replay {
		t.Fatalf("delayed-epoch ack = %+v, want durable seq 1", targets)
	}
	if got := ctrl.Counters().Get(admission.CtrEpochsDelayed); got != 1 {
		t.Fatalf("adm_epochs_delayed = %d, want 1", got)
	}
	if rc.throttleFor(1) == 0 {
		t.Fatal("delayed tenant must receive a throttle hint")
	}

	// A second of refill: the queued epoch drains ahead of the new one,
	// which in turn parks (order preserved, budget again spent).
	clk.advance(time.Second)
	commit(t, rc, 1, 3, frames, aw)
	if got := rc.AppliedSeq(1); got != 2 {
		t.Fatalf("frontier after drain = %d, want 2", got)
	}
	clk.advance(time.Second)
	rc.Advance()
	if got := rc.AppliedSeq(1); got != 3 {
		t.Fatalf("frontier after Advance = %d, want 3", got)
	}
	if got := rc.Counters().Get(CtrEpochsApplied); got != 3 {
		t.Fatalf("epochs applied = %d, want 3 (zero loss)", got)
	}
	if got := ctrl.Counters().Get(admission.GaugeDelayedEpochs); got != 0 {
		t.Fatalf("adm_delayed_epochs gauge = %d after full drain", got)
	}
}

// TestAdmissionShedAndGapHeal: overflowing the global delay-queue bound
// sheds the newest epoch of the lowest class with a replay-request ack;
// the sequence hole it leaves is detected on the successor and healed by
// replaying from the shipper's buffer — nothing is lost.
func TestAdmissionShedAndGapHeal(t *testing.T) {
	clk := newFakeClock()
	frames := probeFrames(2, 0, 40)
	b := float64(framesBytes(frames))
	// Weighted buckets: best-effort (0.5×) holds exactly one epoch, gold
	// (2×) four — so the noisy source queues while the gold one sails.
	rc, ctrl := newAdmissionReceiver(t, admission.Config{
		RateBytesPerSec: 2 * b, BurstBytes: 2 * b, MaxDelayedEpochs: 2,
		ClassWeight:  [admission.NumClasses]float64{0.5, 1, 2},
		DegradeAfter: 1 << 30, PromoteAfter: 1 << 30, DegradeRate: 0.25,
		Now: clk.now,
	})
	ctrl.Register(1, "vip", admission.Gold)
	ctrl.Register(2, "noisy", admission.BestEffort)
	awGold, awBE := discardAckWriter(), discardAckWriter()
	rc.registerConn(1, false, awGold)
	rc.registerConn(2, false, awBE)

	commit(t, rc, 2, 1, frames, awBE) // fills the BE burst
	commit(t, rc, 2, 2, frames, awBE) // delayed
	commit(t, rc, 2, 3, frames, awBE) // parks behind the queue
	if got := rc.AppliedSeq(2); got != 1 {
		t.Fatalf("BE frontier = %d, want 1", got)
	}
	// Queue bound is 2: the fourth epoch overflows it and the newest
	// best-effort epoch (this one) is shed with a replay request.
	targets := commit(t, rc, 2, 4, frames, awBE)
	if got := rc.Counters().Get(CtrEpochsShed); got != 1 {
		t.Fatalf("epochs_shed = %d, want 1", got)
	}
	var sawReplay bool
	for _, tg := range targets {
		if tg.src == 2 && tg.replay {
			sawReplay = true
		}
	}
	if !sawReplay {
		t.Fatalf("shed epoch must request a replay, targets = %+v", targets)
	}

	// Gold is untouched by the noisy neighbor: admitted on the spot.
	commit(t, rc, 1, 1, frames, awGold)
	if got := rc.AppliedSeq(1); got != 1 {
		t.Fatal("gold epoch was not admitted immediately")
	}

	// The shipper, not yet aware of the shed, sends epoch 5: the hole at
	// seq 4 is a gap — discarded, replay requested, counted.
	targets = commit(t, rc, 2, 5, frames, awBE)
	if got := rc.Counters().Get(CtrEpochGaps); got != 1 {
		t.Fatalf("epoch_gaps = %d, want 1", got)
	}
	if len(targets) != 1 || !targets[0].replay {
		t.Fatalf("gap must request a replay, targets = %+v", targets)
	}

	// Replay heals everything as budget refills, in order, exactly once.
	clk.advance(2 * time.Second)
	commit(t, rc, 2, 4, frames, awBE)
	clk.advance(2 * time.Second)
	commit(t, rc, 2, 5, frames, awBE)
	for i := 0; i < 2; i++ {
		clk.advance(2 * time.Second)
		rc.Advance()
	}
	if got := rc.AppliedSeq(2); got != 5 {
		t.Fatalf("BE frontier = %d, want 5 after heal", got)
	}
	if got := rc.Counters().Get(CtrEpochsApplied); got != 6 {
		t.Fatalf("epochs applied = %d, want 6 (5 BE + 1 gold, zero loss)", got)
	}
}

// TestAdmissionGapSeenTwiceForceDrains: when the agent replays and the
// same out-of-order sequence shows up again, the hole below it is
// unfillable (the shipper's buffer evicted it) — the queue force-drains
// into bucket debt and the jump is accepted rather than wedging forever.
func TestAdmissionGapSeenTwiceForceDrains(t *testing.T) {
	clk := newFakeClock()
	frames := probeFrames(1, 0, 40)
	b := float64(framesBytes(frames))
	rc, _ := newAdmissionReceiver(t, admission.Config{
		RateBytesPerSec: b, BurstBytes: b, MaxDelayedEpochs: 8,
		DegradeAfter: 1 << 30, PromoteAfter: 1 << 30, DegradeRate: 0.25,
		Now: clk.now,
	})
	rc.Admission().Register(1, "acme", admission.Silver)
	aw := discardAckWriter()
	rc.registerConn(1, false, aw)

	commit(t, rc, 1, 1, frames, aw) // admitted
	commit(t, rc, 1, 2, frames, aw) // delayed
	targets := commit(t, rc, 1, 4, frames, aw)
	if got := rc.Counters().Get(CtrEpochGaps); got != 1 {
		t.Fatalf("epoch_gaps = %d, want 1", got)
	}
	if len(targets) != 1 || !targets[0].replay {
		t.Fatalf("first sighting must request a replay: %+v", targets)
	}
	if got := rc.AppliedSeq(1); got != 1 {
		t.Fatalf("gapped epoch applied, frontier %d", got)
	}

	// Same sequence again: seq 3 is gone for good. Queue force-drains
	// (seq 2 applies on debt) and seq 4 proceeds through admission.
	commit(t, rc, 1, 4, frames, aw)
	if got := rc.AppliedSeq(1); got != 2 {
		t.Fatalf("queue not force-drained, frontier %d", got)
	}
	clk.advance(4 * time.Second) // repay debt + afford the parked epoch
	rc.Advance()
	if got := rc.AppliedSeq(1); got != 4 {
		t.Fatalf("jump not accepted after force drain, frontier %d", got)
	}
	if got := rc.Counters().Get(CtrEpochsApplied); got != 3 {
		t.Fatalf("epochs applied = %d, want 3 (seqs 1,2,4)", got)
	}
}

// TestAdmissionGapEscapeSurvivesMultiEpochReplay: an agent replaying
// more than one buffered epoch above an unfillable hole must still
// trigger the seen-twice escape. Regression for two wedges: the gap
// marker used to be overwritten by each higher epoch in the replay
// (two epochs alternated it forever), and a session re-hello used to
// wipe it entirely — a receiver recovering with an empty frontier
// against resuming agents (stateless SP restart) never applied another
// epoch.
func TestAdmissionGapEscapeSurvivesMultiEpochReplay(t *testing.T) {
	clk := newFakeClock()
	frames := probeFrames(1, 0, 40)
	b := float64(framesBytes(frames))
	rc, _ := newAdmissionReceiver(t, admission.Config{
		RateBytesPerSec: 100 * b, BurstBytes: 100 * b, MaxDelayedEpochs: 8,
		DegradeAfter: 1 << 30, PromoteAfter: 1 << 30, DegradeRate: 0.25,
		Now: clk.now,
	})
	rc.Admission().Register(1, "acme", admission.Silver)
	aw := discardAckWriter()

	// Session 1: the agent resumes at seq 4 and replays epochs 5 and 6;
	// the receiver has nothing applied, so 1..4 is the hole. Both
	// sightings must request replay without dislodging the marker.
	rc.registerConn(1, false, aw)
	if targets := commit(t, rc, 1, 5, frames, aw); len(targets) != 1 || !targets[0].replay {
		t.Fatalf("first sighting of 5 must request replay: %+v", targets)
	}
	if targets := commit(t, rc, 1, 6, frames, aw); len(targets) != 1 || !targets[0].replay {
		t.Fatalf("sighting of 6 above the marker must request replay: %+v", targets)
	}
	if got := rc.Counters().Get(CtrEpochGaps); got != 1 {
		t.Fatalf("epoch_gaps = %d, want 1 (higher epoch must not re-mark)", got)
	}

	// Session 2: the agent reconnects (re-hello, Seq > 0) and replays
	// the same two epochs — everything it still buffers. The second
	// sighting of 5 proves the hole unfillable: accept the jump.
	rc.registerConn(1, false, aw)
	commit(t, rc, 1, 5, frames, aw)
	if got := rc.AppliedSeq(1); got != 5 {
		t.Fatalf("jump not accepted on second sighting across sessions, frontier %d", got)
	}
	commit(t, rc, 1, 6, frames, aw)
	if got := rc.AppliedSeq(1); got != 6 {
		t.Fatalf("epoch after accepted jump did not apply, frontier %d", got)
	}
	if got := rc.Counters().Get(CtrEpochsApplied); got != 2 {
		t.Fatalf("epochs applied = %d, want 2 (seqs 5,6)", got)
	}
}

// TestStagedOverflowShedsNotFatal: a peer streaming more frames than the
// staging bound between commit markers used to kill the connection; now
// the epoch sheds (metered, replay-requested) and the connection — and
// the epochs after it — live on. The shipper's next epoch, already
// pipelined, arrives across the hole before the replay: with or without
// an admission controller the receiver must not apply it there, or the
// shed epoch's replay is discarded as a duplicate and lost.
func TestStagedOverflowShedsNotFatal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		admit bool
	}{{"admission on", true}, {"admission off", false}} {
		t.Run(tc.name, func(t *testing.T) {
			engine, err := stream.NewSPEngine(plan.S2SProbe())
			if err != nil {
				t.Fatal(err)
			}
			rc := NewReceiver(engine)
			if tc.admit {
				rc.SetAdmission(admission.NewController(admission.Config{
					RateBytesPerSec: 1 << 30, BurstBytes: 1 << 30, MaxDelayedEpochs: 64,
					DegradeAfter: 1 << 30, PromoteAfter: 1 << 30, DegradeRate: 0.25,
					Now: time.Now,
				}))
				rc.Admission().Register(7, "acme", admission.Silver)
			}
			server, client := net.Pipe()
			done := make(chan error, 1)
			go func() { done <- rc.HandleConn(server) }()

			acks := make(chan *wire.Ack, 1024)
			go func() {
				defer close(acks)
				fr := wire.NewFrameReader(client)
				for {
					f, err := fr.ReadFrame()
					if err != nil {
						return
					}
					for _, rec := range f.Records {
						if a, ok := rec.Data.(*wire.Ack); ok {
							acks <- a
						}
					}
				}
			}()

			fw := wire.NewFrameWriter(client)
			writeControl := func(rec telemetry.Record) {
				t.Helper()
				if err := fw.WriteFrame(wire.Frame{StreamID: wire.ControlStreamID, Source: 7, Records: telemetry.Batch{rec}}); err != nil {
					t.Fatal(err)
				}
				if err := fw.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			one := probeFrames(7, 0, 1)[0]
			writeEpoch := func(seq uint64, frames int) {
				t.Helper()
				for i := 0; i < frames; i++ {
					if err := fw.WriteFrame(one); err != nil {
						t.Fatal(err)
					}
				}
				writeControl(telemetry.Record{WireSize: 33, Data: &wire.EpochEnd{Seq: seq, Watermark: int64(seq) * 1_000_000}})
			}
			writeControl(telemetry.Record{WireSize: 29, Data: &wire.Hello{
				Source: 7, Seq: 0, Version: wire.CurrentWireVersion,
				Class: admission.Silver.Wire(), Tenant: "acme",
			}})

			// One more frame than the staging bound: the epoch must shed.
			writeEpoch(1, maxStagedFrames+1)
			deadline := time.After(10 * time.Second)
			var sawReplay bool
			for !sawReplay {
				select {
				case a := <-acks:
					sawReplay = a.Replay
				case <-deadline:
					t.Fatal("no replay-request ack after staged overflow")
				}
			}
			if got := rc.Counters().Get(CtrEpochsShed); got != 1 {
				t.Fatalf("epochs_shed = %d, want 1", got)
			}

			// Epoch 2 was pipelined before the shipper saw the replay
			// request: it lands on the hole. The replay then re-sends
			// epochs 1 (smaller this time) and 2, and the second replay
			// request (the one epoch 2's gap earned) re-sends epoch 2 once
			// more, by now a duplicate. All on the same, still-open
			// connection.
			writeEpoch(2, 1)
			writeEpoch(1, 4)
			writeEpoch(2, 1)
			writeEpoch(2, 1)
			_ = client.Close()
			if err := <-done; err != nil {
				t.Fatalf("staged overflow must not kill the connection: %v", err)
			}
			if got := rc.Counters().Get(CtrEpochsApplied); got != 2 {
				t.Fatalf("epochs applied = %d, want 2", got)
			}
			if got := rc.AppliedSeq(7); got != 2 {
				t.Fatalf("applied seq = %d, want 2", got)
			}
			if got := rc.Counters().Get(CtrEpochsReplayed); got != 1 {
				t.Fatalf("epochs_replayed = %d, want 1 (the one duplicate of epoch 2)", got)
			}
		})
	}
}

// TestConnectAnyBackoffBoundsDialRate: with every endpoint down, the
// jittered exponential backoff bounds how many dials a tight reconnect
// loop can fire — and keeps retrying at the cap rather than giving up.
func TestConnectAnyBackoffBoundsDialRate(t *testing.T) {
	ship := NewDurableShipper(3, 4)
	dials := 0
	ship.SetDialer(func(addr string) (io.ReadWriteCloser, error) {
		dials++
		return nil, io.ErrClosedPipe
	})
	clk := newFakeClock()
	ship.mu.Lock()
	ship.nowFn = clk.now
	ship.mu.Unlock()

	eps := []string{"10.0.0.1:7000", "10.0.0.2:7000"}
	backoffs := 0
	// A reconnect loop hammering ConnectAny once per millisecond for a
	// simulated minute.
	for i := 0; i < 60_000; i++ {
		if _, err := ship.ConnectAny(eps); err == ErrBackoff {
			backoffs++
		}
		clk.advance(time.Millisecond)
	}
	// Schedule: 100ms doubling to a 5s cap, jittered no lower than half.
	// The ramp is 6 rounds; at the cap a round fires at most every 2.5s —
	// well under 30 rounds (60 dials) in a minute, and at least ~17.
	rounds := dials / len(eps)
	if rounds > 40 {
		t.Fatalf("%d dial rounds over a simulated minute: backoff not bounding the rate", rounds)
	}
	if rounds < 10 {
		t.Fatalf("%d dial rounds over a simulated minute: backoff overshooting (agent stopped retrying?)", rounds)
	}
	if backoffs == 0 {
		t.Fatal("ErrBackoff never surfaced")
	}
	if got := ship.Counters().Get(CtrDialBackoffs); got == 0 {
		t.Fatal("dial_backoffs counter never incremented")
	}

	// A successful connect resets the schedule: the very next ConnectAny
	// must dial instead of returning ErrBackoff.
	engine, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := startTestServer(t, NewReceiver(engine))
	defer stop()
	ship.SetDialer(func(string) (io.ReadWriteCloser, error) {
		dials++
		return net.Dial("tcp", addr)
	})
	clk.advance(2 * DialBackoffCap)
	if _, err := ship.ConnectAny([]string{addr}); err != nil {
		t.Fatalf("connect after backoff window: %v", err)
	}
	before := dials
	if _, err := ship.ConnectAny([]string{addr}); err != nil || dials == before {
		t.Fatalf("backoff not reset by success (err %v, dials %d→%d)", err, before, dials)
	}
	_ = ship.Close()
}

// TestThrottleHintReachesShipper: end to end over TCP, a starved budget
// turns into a positive pacing hint on the agent side of the ack stream.
func TestThrottleHintReachesShipper(t *testing.T) {
	rc, ctrl := newAdmissionReceiver(t, admission.Config{
		RateBytesPerSec: 1, BurstBytes: 1, MaxDelayedEpochs: 64,
		MaxThrottle:  2 * time.Second,
		DegradeAfter: 1 << 30, PromoteAfter: 1 << 30, DegradeRate: 0.25,
		Now: time.Now,
	})
	addr, stop := startTestServer(t, rc)
	defer stop()

	q := plan.S2SProbe()
	src, err := stream.NewPipeline(q, stream.DefaultOptions(4.0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = src.SetLoadFactors([]float64{1, 1, 1})
	gen := workload.NewPingGen(workload.DefaultPingConfig(17))
	ship := NewDurableShipper(5, 64)
	ship.SetIdentity("hot", admission.BestEffort)
	if err := ship.ConnectConn(mustDial(t, addr)); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 3; e++ {
		if err := ship.ShipEpoch(src.RunEpoch(gen.NextWindow(1_000_000))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ship.ThrottleHint() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("throttle hint never reached the shipper")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := ctrl.Counters().Get(admission.CtrEpochsDelayed); got == 0 {
		t.Fatal("starved budget produced no delayed epochs")
	}
	if got := ctrl.Counters().Get(admission.GaugeThrottleMicros); got == 0 {
		t.Fatal("throttle gauge never set")
	}
	_ = ship.Close()
}

// TestDegradeDontDropBoundedError: a tenant at a sustained multiple of
// its budget degrades to sampled ingestion; its histogram results come
// back rescaled within the recorded error bound, and the tenant promotes
// back to exact once pressure clears.
func TestDegradeDontDropBoundedError(t *testing.T) {
	q := plan.LogAnalytics()
	engine, err := stream.NewSPEngine(q)
	if err != nil {
		t.Fatal(err)
	}
	rc := NewReceiver(engine)
	clk := newFakeClock()

	gen := workload.NewLogGen(workload.LogConfig{
		Seed: 11, Tenants: 1, MatchRate: 1, IntervalMicros: 250,
	})
	const heavyEpochs = 6
	epochs := make([]telemetry.Batch, heavyEpochs)
	for i := range epochs {
		epochs[i] = gen.NextWindow(1_000_000)
	}
	var b int64
	for _, rec := range epochs[0] {
		b += int64(rec.WireSize)
	}

	ctrl := admission.NewController(admission.Config{
		// Half an epoch per second of budget: every commit is over budget,
		// a 2-commit streak degrades, 2 affordable commits promote back.
		RateBytesPerSec: float64(b) / 2, BurstBytes: float64(b) / 2,
		MaxDelayedEpochs: 16, DegradeAfter: 2, PromoteAfter: 2,
		DegradeRate: 0.25, Now: clk.now,
	})
	rc.SetAdmission(ctrl)
	ctrl.Register(1, "tenant-000", admission.BestEffort)
	// Best-effort weight defaults to 0.5×; keep the math above exact.
	aw := discardAckWriter()
	rc.registerConn(1, false, aw)

	frame := func(batch telemetry.Batch) []wire.Frame {
		cb := rowsBatch(batch)
		return []wire.Frame{{StreamID: 0, Source: 1, Cols: &cb}}
	}
	for i, batch := range epochs {
		commit(t, rc, 1, uint64(i+1), frame(batch), aw)
		clk.advance(time.Second)
	}
	if ctrl.DegradedRate(1) == 0 {
		t.Fatal("tenant at a sustained multiple of its budget never degraded")
	}
	if got := ctrl.Counters().Get(admission.CtrEpochsDegraded); got == 0 {
		t.Fatal("no epochs admitted in degraded form")
	}

	// Pressure clears: tiny epochs that fit the exact budget promote the
	// tenant back (draining whatever the queue still holds on the way).
	for i := 0; i < 6; i++ {
		clk.advance(2 * time.Second)
		commit(t, rc, 1, uint64(heavyEpochs+i+1), nil, aw)
	}
	if ctrl.DegradedRate(1) != 0 {
		t.Fatal("tenant did not promote back after pressure cleared")
	}
	if got := rc.AppliedSeq(1); got != heavyEpochs+6 {
		t.Fatalf("frontier = %d, want %d (degrade must not drop epochs)", got, heavyEpochs+6)
	}

	// Flush everything and compare against an exact replica fed the same
	// batches: per-window totals must agree within the recorded bound.
	high := int64(heavyEpochs+20) * 1_000_000
	rc.mu.Lock()
	rc.engine.ObserveWatermark(1, high)
	rc.mu.Unlock()
	got := rowTotals(rc.Advance())

	exact, err := stream.NewSPEngine(plan.LogAnalytics())
	if err != nil {
		t.Fatal(err)
	}
	exact.RegisterSource(1)
	for _, batch := range epochs {
		if err := exact.Ingest(0, batch); err != nil {
			t.Fatal(err)
		}
	}
	exact.ObserveWatermark(1, high)
	want := rowTotals(exact.Advance())

	if len(got) == 0 || len(want) == 0 {
		t.Fatalf("no results to compare (got %d, want %d rows)", len(got), len(want))
	}
	var sumGot, sumWant float64
	for _, c := range got {
		sumGot += c
	}
	for _, c := range want {
		sumWant += c
	}
	relErr := math.Abs(sumGot-sumWant) / sumWant
	// ~20k sampled records at rate 0.25: the 95% bound is well under 5%;
	// allow 15% so the test never flakes on an unlucky seed.
	if relErr > 0.15 {
		t.Fatalf("degraded total count off by %.1f%% (got %.0f, exact %.0f)", 100*relErr, sumGot, sumWant)
	}
	if got := ctrl.Counters().Get(admission.CtrSampledOut); got == 0 {
		t.Fatal("degraded ingestion sampled nothing out")
	}
}

// rowTotals folds a result batch into per-key counts.
func rowTotals(batch telemetry.Batch) map[string]float64 {
	out := make(map[string]float64)
	for _, rec := range batch {
		if row, ok := rec.Data.(*telemetry.AggRow); ok {
			out[row.Key.Str] += float64(row.Count)
		}
	}
	return out
}
