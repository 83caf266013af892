package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"jarvis/internal/benchcase"
	"jarvis/internal/checkpoint"
	"jarvis/internal/core"
	"jarvis/internal/ha"
	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/transport"
	"jarvis/internal/wire"
	"jarvis/internal/workload"
)

// haBenchmarks measures the high-availability subsystem's hot paths:
// what it costs a warm standby to apply one replicated snapshot
// (decode + fold + local save + shadow-engine reload), and what an
// actual kill-the-primary failover costs end to end — wall-clock
// downtime until the promoted standby has caught up, and how many
// epochs stalled in the agent's replay buffer across the outage.
func haBenchmarks() ([]BenchRecord, error) {
	records := []BenchRecord{}

	apply, err := replicationApplyBenchmark()
	if err != nil {
		return nil, err
	}
	records = append(records, apply)

	downtime, err := failoverDowntime()
	if err != nil {
		return nil, err
	}
	return append(records, downtime...), nil
}

// replicationApplyBenchmark times Standby.ApplySnapshot on a full
// S2SProbe snapshot at the canonical warm-pipeline scale — the per-
// snapshot cost a standby pays to stay warm.
func replicationApplyBenchmark() (BenchRecord, error) {
	// State donor: an SP engine warmed with one shipped epoch.
	_, epochBytes, err := benchcase.ShippedEpoch()
	if err != nil {
		return BenchRecord{}, err
	}
	donor, err := stream.NewSPEngine(plan.S2SProbe())
	if err != nil {
		return BenchRecord{}, err
	}
	if err := replayEpoch(donor, epochBytes); err != nil {
		return BenchRecord{}, err
	}
	snap := &checkpoint.Snapshot{
		Seq:     1,
		Stages:  donor.SnapshotStages(),
		Sources: map[uint32]checkpoint.SourceState{1: {Watermark: 1_000_000, AppliedSeq: 1}},
	}
	var enc bytes.Buffer
	if err := snap.Encode(&enc); err != nil {
		return BenchRecord{}, err
	}

	shadow, err := core.NewProcessor(plan.S2SProbe())
	if err != nil {
		return BenchRecord{}, err
	}
	dir, err := os.MkdirTemp("", "jarvis-bench-ha-*")
	if err != nil {
		return BenchRecord{}, err
	}
	defer os.RemoveAll(dir)
	st, err := ha.NewStandby(shadow, dir, nil)
	if err != nil {
		return BenchRecord{}, err
	}
	id := uint64(0)
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id++
			rep := &wire.ReplSnapshot{ID: id, Seq: id, Term: 1, Data: enc.Bytes()}
			if err := st.ApplySnapshot(rep); err != nil {
				b.Fatal(err)
			}
		}
	})
	return record("BenchmarkReplicationApply", int64(enc.Len()), r), nil
}

// failoverDowntime runs one in-process kill-the-primary failover on
// S2SProbe over loopback TCP and reports the measured downtime — the
// wall time from killing the primary until the promoted standby has
// applied every epoch the agent produced — plus the number of epochs
// that stalled in the replay buffer (shipped but not standby-durable at
// the kill).
func failoverDowntime() ([]BenchRecord, error) {
	const (
		epochs    = 8
		killAfter = 6
	)
	q := plan.S2SProbe()
	priDir, err := os.MkdirTemp("", "jarvis-bench-ha-pri-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(priDir)
	sbDir, err := os.MkdirTemp("", "jarvis-bench-ha-sb-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sbDir)

	// Primary: engine + receiver + recovery (cadence 2) + publisher.
	priEngine, err := stream.NewSPEngine(q)
	if err != nil {
		return nil, err
	}
	store, err := checkpoint.OpenStore(priDir)
	if err != nil {
		return nil, err
	}
	rlog, err := checkpoint.OpenResultLog(priDir + "/results.log")
	if err != nil {
		return nil, err
	}
	priRC := transport.NewReceiver(priEngine)
	priRC.SetHelloGate(ha.NewGate(ha.RolePrimary, 1, nil))
	rm := checkpoint.NewSPRecovery(store, rlog, priEngine, priRC, 2)
	pub := ha.NewPublisher(store, priDir+"/results.log", 1, nil)
	rm.SetReplicator(pub, 10*time.Second)
	priRC.RegisterSource(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listen unavailable: %w", err)
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := transport.NewServer(priRC)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.Serve(ctx, ln) }()
	go func() { _ = pub.Serve(ctx, rln) }()

	// Standby.
	sbProc, err := core.NewProcessor(q)
	if err != nil {
		return nil, err
	}
	st, err := ha.NewStandby(sbProc, sbDir, nil)
	if err != nil {
		return nil, err
	}
	sbGate := ha.NewGate(ha.RoleStandby, 0, st.Counters())
	sbRC := transport.NewReceiver(sbProc.Engine())
	sbRC.SetHelloGate(sbGate)
	sbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sbSrv := transport.NewServer(sbRC)
	go func() { _ = sbSrv.Serve(ctx, sbLn) }()
	go st.Run(ctx, rln.Addr().String())

	// Agent.
	pipe, err := benchcase.WarmPipeline(0)
	if err != nil {
		return nil, err
	}
	ship := transport.NewDurableShipper(1, 64)
	endpoints := []string{ln.Addr().String(), sbLn.Addr().String()}
	if _, err := ship.ConnectAny(endpoints); err != nil {
		return nil, err
	}
	gen := workload.NewPingGen(workload.DefaultPingConfig(1))
	for e := 1; e <= killAfter; e++ {
		res := pipe.RunEpoch(gen.NextWindow(1_000_000))
		if err := ship.ShipEpoch(res); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(10 * time.Second)
		for priRC.AppliedSeq(1) < ship.Seq() {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("primary never applied epoch %d", ship.Seq())
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := rm.Advance(); err != nil {
			return nil, err
		}
	}

	// Kill the primary and fail over.
	killAt := time.Now()
	_ = srv.Close()
	_ = pub.Close()
	_ = rlog.Close()
	stalled := ship.Seq() - ship.Acked()
	prm, err := st.Promote(sbRC, 2, checkpoint.DefaultRetain)
	if err != nil {
		return nil, err
	}
	sbGate.Promote(st.NextTerm())
	for e := killAfter + 1; e <= epochs; e++ {
		res := pipe.RunEpoch(gen.NextWindow(1_000_000))
		if !ship.Connected() {
			if _, err := ship.ConnectAny(endpoints); err != nil {
				return nil, err
			}
		}
		if err := ship.ShipEpoch(res); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for sbRC.AppliedSeq(1) < ship.Seq() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("standby never caught up to epoch %d", ship.Seq())
		}
		if !ship.Connected() {
			_, _ = ship.ConnectAny(endpoints)
		}
		time.Sleep(time.Millisecond)
	}
	downtime := time.Since(killAt)
	if _, err := prm.Advance(); err != nil {
		return nil, err
	}
	_ = prm.Close()
	_ = sbSrv.Close()

	return []BenchRecord{
		{Name: "FailoverDowntime", NsPerOp: float64(downtime.Nanoseconds()), Iterations: 1},
		{Name: "FailoverEpochsStalled", NsPerOp: float64(stalled), Iterations: 1},
	}, nil
}
