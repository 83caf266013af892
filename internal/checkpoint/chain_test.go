package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jarvis/internal/plan"
	"jarvis/internal/stream"
	"jarvis/internal/transport"
	"jarvis/internal/workload"
)

// blockNextSave makes the store's next Save fail without touching what
// it already holds: a directory squats on the file name the next id
// maps to. The returned func removes it again.
func blockNextSave(t *testing.T, store *Store) (unblock func()) {
	t.Helper()
	store.mu.Lock()
	path := filepath.Join(store.dir, SnapshotFileName(store.nextID))
	store.mu.Unlock()
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
}

// manifestShape renders the manifest as "f d d f …" and checks the
// linkage the chain promises: every delta extends the entry before it.
func manifestShape(t *testing.T, store *Store) string {
	t.Helper()
	ents, err := store.entries()
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(ents))
	for i, e := range ents {
		kinds[i] = "f"
		if e.delta {
			kinds[i] = "d"
			if i == 0 || e.base != ents[i-1].id {
				t.Fatalf("delta %d extends %d, not the entry before it: %+v", e.id, e.base, ents)
			}
		} else if e.base != 0 {
			t.Fatalf("base %d names a base id %d", e.id, e.base)
		}
	}
	return strings.Join(kinds, " ")
}

func rep(s string, n int) string { return strings.TrimSpace(strings.Repeat(s+" ", n)) }

// TestChainPolicy drives the one base/delta policy — Store.Chain — the
// way its three holders do: Next before each capture, Save after it,
// either back to back (sync) or with captures running ahead of saves
// (the async writer), Reset on restore/prime.
func TestChainPolicy(t *testing.T) {
	type step struct {
		op   string // capture | save | block | unblock | reset
		full bool   // capture: what Next must answer
		want string // save: ok | err | dropped
		ents int    // save: manifest entries afterwards (0 = unchecked)
	}
	capture := func(full bool) step { return step{op: "capture", full: full} }
	save := func(want string) step { return step{op: "save", want: want} }
	// pairs is n sync capture+save rounds of the given kind.
	pairs := func(n int, full bool) (out []step) {
		for i := 0; i < n; i++ {
			out = append(out, capture(full), save("ok"))
		}
		return out
	}
	cat := func(parts ...[]step) (out []step) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	const link = DefaultMaxChain + 1 // a base and a full run of deltas
	cases := []struct {
		name   string
		retain int
		steps  []step
		shape  string
	}{
		{
			name: "first capture is a base, DefaultMaxChain deltas, then a forced base", retain: 0,
			steps: cat(pairs(1, true), pairs(DefaultMaxChain, false), pairs(1, true), pairs(1, false)),
			shape: "f " + rep("d", DefaultMaxChain) + " f d",
		},
		{
			name: "failed save forces the next capture full (sync)", retain: 0,
			steps: cat(pairs(1, true), pairs(1, false),
				[]step{{op: "block"}, capture(false), save("err"), {op: "unblock"}},
				pairs(1, true), pairs(1, false)),
			shape: "f d f d",
		},
		{
			name: "failed save drops the deltas captured behind it (async)", retain: 0,
			steps: []step{
				capture(true), capture(false), capture(false), capture(false),
				save("ok"), {op: "block"}, save("err"), save("dropped"), save("dropped"),
				// Still failed until a base lands: every capture is full.
				capture(true), capture(true), {op: "unblock"},
				save("ok"), save("ok"), capture(false), save("ok"),
			},
			shape: "f f f d",
		},
		{
			name: "a failed base save is retried as a base", retain: 0,
			steps: cat([]step{{op: "block"}, capture(true), save("err"), {op: "unblock"}},
				pairs(1, true), pairs(1, false)),
			shape: "f d",
		},
		{
			name: "restore and prime reset to base due", retain: 0,
			steps: cat(pairs(1, true), pairs(2, false), []step{{op: "reset"}}, pairs(1, true), pairs(1, false)),
			shape: "f d d f d",
		},
		{
			name: "compaction runs at bases only", retain: 1,
			steps: cat(pairs(1, true), pairs(DefaultMaxChain-1, false),
				[]step{capture(false), {op: "save", want: "ok", ents: link}},
				[]step{capture(true), {op: "save", want: "ok", ents: 1}},
				pairs(1, false)),
			shape: "f d",
		},
		{
			name: "retention keeps that many chains", retain: 2,
			steps: cat(pairs(1, true), pairs(DefaultMaxChain, false), pairs(1, true), pairs(DefaultMaxChain, false),
				[]step{capture(true), {op: "save", want: "ok", ents: link + 1}}),
			shape: "f " + rep("d", DefaultMaxChain) + " f",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			store.SetRetention(tc.retain)
			chain := store.Chain()
			var queue []*Snapshot
			var unblock func()
			seq := uint64(0)
			for i, st := range tc.steps {
				at := fmt.Sprintf("step %d (%s)", i, st.op)
				switch st.op {
				case "capture":
					full := chain.Next()
					if full != st.full {
						t.Fatalf("%s: Next() = full %v, want %v", at, full, st.full)
					}
					seq++
					queue = append(queue, &Snapshot{Seq: seq, Checkpoint: stream.Checkpoint{Delta: !full}})
				case "save":
					snap := queue[0]
					queue = queue[1:]
					before, _ := store.Snapshots()
					id, err := chain.Save(snap)
					after, _ := store.Snapshots()
					switch {
					case st.want == "ok" && (err != nil || id == 0):
						t.Fatalf("%s: id %d err %v, want a saved snapshot", at, id, err)
					case st.want == "err" && err == nil:
						t.Fatalf("%s: save into a blocked store did not error", at)
					case st.want == "dropped" && (err != nil || id != 0 || after != before):
						t.Fatalf("%s: id %d err %v entries %d→%d, want the delta dropped", at, id, err, before, after)
					}
					if st.ents != 0 && after != st.ents {
						t.Fatalf("%s: manifest holds %d entries, want %d", at, after, st.ents)
					}
				case "block":
					unblock = blockNextSave(t, store)
				case "unblock":
					unblock()
				case "reset":
					chain.Reset()
				}
			}
			if got := manifestShape(t, store); got != tc.shape {
				t.Fatalf("manifest %q, want %q", got, tc.shape)
			}
			if snap, ok, err := store.Latest(); err != nil || !ok || snap.Seq != seq {
				t.Fatalf("latest: ok=%v err=%v snap=%+v, want seq %d", ok, err, snap, seq)
			}
		})
	}
}

// TestAgentRecoveryUsesChain: the agent manager reaches the shared chain
// — a restore makes the next snapshot a base, not a delta onto the
// restored history. (Its failed-save path is TestSaveFailureForcesFullBase.)
func TestAgentRecoveryUsesChain(t *testing.T) {
	pipe, next := runPipeline(t, 9)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	arec := NewAgentRecovery(store, 1, pipe, nil)
	for e := 1; e <= 3; e++ {
		pipe.RunEpoch(next(1_000_000))
		if err := arec.AfterEpoch(uint64(e)); err != nil {
			t.Fatal(err)
		}
	}
	fresh, _ := runPipeline(t, 9)
	arec2 := NewAgentRecovery(store, 1, fresh, nil)
	if _, ok, err := arec2.Restore(); err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	fresh.RunEpoch(next(1_000_000))
	if err := arec2.AfterEpoch(4); err != nil {
		t.Fatal(err)
	}
	if got := manifestShape(t, store); got != "f d d f" {
		t.Fatalf("manifest %q, want the post-restore snapshot to be a base", got)
	}
}

// TestSPRecoveryUsesChain: the SP manager's save path goes through the
// shared chain, sync and async. A failed save surfaces as an error,
// releases no ack, forces the next snapshot to be a base carrying the
// lost rows, and a delta captured behind the failure (async) is dropped;
// Prime resets the chain like Restore does.
func TestSPRecoveryUsesChain(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			engine, err := stream.NewSPEngine(plan.S2SProbe())
			if err != nil {
				t.Fatal(err)
			}
			engine.RegisterSource(1)
			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			rc := transport.NewReceiver(engine)
			rm := NewSPRecovery(store, nil, engine, rc, 1)
			rm.SetAsync(async)
			defer rm.Close()
			gen := workload.NewPingGen(workload.DefaultPingConfig(3))
			seq := uint64(0)
			// apply stands in for one applied epoch; snapshot then captures
			// on the cadence path (queued on the writer when async).
			apply := func() {
				seq++
				if err := engine.Ingest(0, gen.NextWindow(1_000_000)); err != nil {
					t.Fatal(err)
				}
				rc.SetApplied(1, seq)
			}
			snapshot := func() error {
				if err := rm.MaybeSnapshot(); err != nil {
					return err
				}
				return rm.Flush()
			}
			for i := 0; i < 2; i++ { // base, delta
				apply()
				if err := snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			unblock := blockNextSave(t, store)
			apply()
			var failed error
			if async {
				// Two captures run into the blocked store: the first fails; the
				// second is dropped rather than chained onto it — or, when the
				// writer reported the failure before it was captured, is
				// already the forced base and fails too.
				failed = rm.MaybeSnapshot()
				apply()
			}
			// Drain the writer before unblocking, whichever call reported.
			for _, err := range []error{rm.MaybeSnapshot(), rm.Flush()} {
				if err != nil {
					failed = err
				}
			}
			if failed == nil {
				t.Fatal("save into a blocked store did not error")
			}
			unblock()
			apply()
			if err := snapshot(); err != nil {
				t.Fatal(err)
			}
			if got := manifestShape(t, store); got != "f d f" {
				t.Fatalf("manifest %q, want a base after the failed save", got)
			}
			got, ok, err := store.Latest()
			if err != nil || !ok || got.Seq != seq {
				t.Fatalf("latest: ok=%v err=%v", ok, err)
			}
			want := engine.Capture(true)
			gotRows, wantRows := stageKeyRows(t, got.Stages), stageKeyRows(t, want.Stages)
			if len(gotRows) != len(wantRows) {
				t.Fatalf("post-failure base has %d rows, want %d", len(gotRows), len(wantRows))
			}
			for k, w := range wantRows {
				if g := gotRows[k]; g != w {
					t.Fatalf("row %v: %+v, want %+v", k, g, w)
				}
			}

			// Capture(true) above started a dirty generation behind the
			// manager's back; Prime — the promotion entry — makes the next
			// snapshot a base regardless.
			rm.Prime(got)
			apply()
			if err := snapshot(); err != nil {
				t.Fatal(err)
			}
			if got := manifestShape(t, store); got != "f d f f" {
				t.Fatalf("manifest %q, want a base after Prime", got)
			}
		})
	}
}
