package operator

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"jarvis/internal/telemetry"
)

// checkOrder runs keyOrder over keys and fails unless it visits every
// position once and lists the keys exactly as slices.SortFunc by (Num,
// Str) does.
func checkOrder(t *testing.T, o *keyOrder, keys []telemetry.GroupKey) {
	t.Helper()
	got := o.sort(len(keys), func(i int) telemetry.GroupKey { return keys[i] })
	if len(got) != len(keys) {
		t.Fatalf("ordered %d of %d keys", len(got), len(keys))
	}
	seen := make([]bool, len(keys))
	for _, e := range got {
		if seen[e.idx] {
			t.Fatalf("position %d listed twice", e.idx)
		}
		seen[e.idx] = true
	}
	want := slices.Clone(keys)
	slices.SortFunc(want, func(a, b telemetry.GroupKey) int {
		if c := cmp.Compare(a.Num, b.Num); c != 0 {
			return c
		}
		return strings.Compare(a.Str, b.Str)
	})
	for i, e := range got {
		if keys[e.idx] != want[i] {
			t.Fatalf("rank %d of %d: got key %+v, want %+v", i, len(keys), keys[e.idx], want[i])
		}
	}
}

// uniqueKeys draws n distinct keys from gen.
func uniqueKeys(n int, gen func() telemetry.GroupKey) []telemetry.GroupKey {
	seen := make(map[telemetry.GroupKey]bool, n)
	keys := make([]telemetry.GroupKey, 0, n)
	for len(keys) < n {
		if k := gen(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestGroupOrder holds the window-close ordering routine to the
// comparison sort it replaced, from empty and tiny windows up to 50 000
// groups, and on the key shapes whose digit skipping or string
// tie-breaks could go wrong. One keyOrder serves every case, so scratch
// left by a larger window must not leak into a smaller one.
func TestGroupOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 32))
	full := func() telemetry.GroupKey { return telemetry.NumKey(rng.Uint64()) }
	pairs := func() telemetry.GroupKey { // two agents' (src, dst) pairs: high bytes shared
		return telemetry.NumKey(uint64(0x0A000001+rng.IntN(2))<<32 | uint64(0x0B000000+rng.IntN(1<<20)))
	}
	topByte := func() telemetry.GroupKey { return telemetry.NumKey(uint64(rng.IntN(256)) << 56) }
	str := func() telemetry.GroupKey {
		return telemetry.StrKey(fmt.Sprintf("tenant-%d|cpu|%d", rng.IntN(500), rng.IntN(40)))
	}
	mixed := func() telemetry.GroupKey {
		switch rng.IntN(3) {
		case 0:
			return telemetry.NumKey(uint64(rng.IntN(64)))
		case 1:
			return telemetry.GroupKey{Num: uint64(rng.IntN(64)), Str: fmt.Sprint(rng.IntN(100))}
		}
		return str()
	}
	var o keyOrder
	for _, tc := range []struct {
		name string
		n    int
		gen  func() telemetry.GroupKey
	}{
		{"50000 full-range", 50_000, full},
		{"empty", 0, full},
		{"one", 1, full},
		{"two", 2, full},
		{"255 full-range", 255, full},
		{"256 full-range", 256, full},
		{"shared high bytes", 40_000, pairs},
		{"255 shared high bytes", 255, pairs},
		{"top byte only", 256, topByte},
		{"all strings", 5_000, str},
		{"100 strings", 100, str},
		{"mixed", 3_000, mixed},
	} {
		t.Run(tc.name, func(t *testing.T) { checkOrder(t, &o, uniqueKeys(tc.n, tc.gen)) })
	}
	t.Run("one distinct key", func(t *testing.T) {
		checkOrder(t, &o, slices.Repeat([]telemetry.GroupKey{telemetry.NumKey(42)}, 1000))
	})
}

// FuzzGroupOrder drives the ordering routine with generated key sets:
// size (up to 4095 keys), the bits the numeric keys may use (mask:
// where the digit skipping happens) and the share of string keys. Keys
// may repeat; the key sequence must still equal the comparison sort's.
func FuzzGroupOrder(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint64(0), uint8(0))
	f.Add(uint64(2), uint16(255), ^uint64(0), uint8(0))
	f.Add(uint64(3), uint16(3000), uint64(0xFF)<<56, uint8(0))
	f.Add(uint64(4), uint16(2000), uint64(0x3_000F_FFFF), uint8(0))
	f.Add(uint64(5), uint16(1500), uint64(0), uint8(255))
	f.Add(uint64(6), uint16(900), uint64(0xFF00FF), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, mask uint64, strPct uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		keys := make([]telemetry.GroupKey, int(n)%4096)
		for i := range keys {
			keys[i].Num = rng.Uint64() & mask
			if rng.IntN(255) < int(strPct) {
				keys[i].Str = fmt.Sprint(rng.IntN(1 + len(keys)))
			}
		}
		var o keyOrder
		checkOrder(t, &o, keys)
	})
}

// TestNumTable pins the flat table's contract: every inserted key is
// found at its cell — in insertion order, where the cursor answers, and
// in reverse, where the index does — absent keys are not, cells stay in
// insertion order across growth, a table presized for its group count
// never grows, and a reset table is empty and takes the same keys again
// without growing.
func TestNumTable(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	keys := uniqueKeys(10_000, func() telemetry.GroupKey { return telemetry.NumKey(rng.Uint64() >> rng.IntN(64)) })
	for _, hint := range []int{0, len(keys)} {
		tbl := newNumTable(hint)
		for round := range 2 {
			slots := len(tbl.slots)
			for i, k := range keys {
				found, slot := tbl.find(k.Num)
				if found != nil {
					t.Fatalf("hint %d round %d: key %d found before its insert", hint, round, k.Num)
				}
				if i%2 == 1 {
					slot = nil // insert without the slot find handed back
				}
				c := tbl.insert(slot, aggCell{row: telemetry.NewAggRow(k, 0, float64(i))})
				if c.row.Key != k {
					t.Fatalf("hint %d: insert returned the cell of %+v", hint, c.row.Key)
				}
			}
			for pass := range 2 {
				for j := range keys {
					i := j
					if pass == 1 {
						i = len(keys) - 1 - j
					}
					if c, _ := tbl.find(keys[i].Num); c == nil || c.row.Sum != float64(i) {
						t.Fatalf("hint %d round %d pass %d: key %d found as %+v", hint, round, pass, keys[i].Num, c)
					}
				}
			}
			for i, k := range keys {
				if tbl.cells[i].row.Key != k {
					t.Fatalf("hint %d: cell %d holds %+v, want insertion order", hint, i, tbl.cells[i].row.Key)
				}
			}
			if (hint > 0 || round > 0) && len(tbl.slots) != slots {
				t.Fatalf("hint %d round %d: the table grew from %d to %d slots", hint, round, slots, len(tbl.slots))
			}
			if 4*len(tbl.cells) > 3*len(tbl.slots) {
				t.Fatalf("hint %d: %d groups in %d slots is past the 3/4 load bound", hint, len(tbl.cells), len(tbl.slots))
			}
			tbl.reset()
		}
	}
	var empty numTable
	for _, k := range []uint64{0, 1} {
		if c, s := empty.find(k); c != nil || s != nil {
			t.Fatal("an empty table found a key or handed out a slot")
		}
	}
}

// TestGroupAggOrderAndCapture checks GroupAgg's two emission orders on a
// mixed-key window: Flush leaves in (Num, Str) order whatever the input
// order, and a snapshot lists the numeric groups in first-seen order
// then the string ones — so two operators fed the same input snapshot
// the same numeric rows in the same order.
func TestGroupAggOrderAndCapture(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	key := func(rec telemetry.Record) telemetry.GroupKey { return rec.Data.(*telemetry.AggRow).Key }
	var in telemetry.Batch
	for _, k := range uniqueKeys(1000, func() telemetry.GroupKey {
		if rng.IntN(4) == 0 {
			return telemetry.StrKey(fmt.Sprint("k", rng.IntN(1000)))
		}
		return telemetry.NumKey(rng.Uint64())
	}) {
		in = append(in, telemetry.NewAggRecord(telemetry.NewAggRow(k, 0, 1), winDur))
	}
	feed := func() *GroupAgg {
		g := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
		g.observeRows(in)
		return g
	}

	var snap telemetry.Batch
	feed().SnapshotWindow(0, collect(&snap))
	next := 0
	for _, r := range snap {
		if k := key(r); k.Str == "" {
			for key(in[next]).Str != "" {
				next++
			}
			if key(in[next]) != k {
				t.Fatalf("snapshot lists numeric key %d where first-seen order has %d", k.Num, key(in[next]).Num)
			}
			next++
		}
	}

	var out telemetry.Batch
	feed().Flush(winDur, collect(&out))
	if len(out) != len(in) {
		t.Fatalf("flushed %d of %d groups", len(out), len(in))
	}
	if !slices.IsSortedFunc(out, func(a, b telemetry.Record) int {
		if c := cmp.Compare(key(a).Num, key(b).Num); c != 0 {
			return c
		}
		return strings.Compare(key(a).Str, key(b).Str)
	}) {
		t.Fatal("Flush did not emit in (Num, Str) order")
	}
}

// TestAbsorbSnapshotPresizesPerWindow restores a two-window snapshot —
// one batch, as a stage's capture lists every open window — and checks
// that each window's table is sized for its own numeric rows, not the
// batch's, and that the restored operator flushes what the source does.
func TestAbsorbSnapshotPresizesPerWindow(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	src := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	var in telemetry.Batch
	for w, n := range []int{3000, 500} {
		for _, k := range uniqueKeys(n, func() telemetry.GroupKey { return telemetry.NumKey(rng.Uint64()) }) {
			in = append(in, telemetry.NewAggRecord(telemetry.NewAggRow(k, int64(w), 1), int64(w+1)*winDur))
		}
		in = append(in, telemetry.NewAggRecord(telemetry.NewAggRow(telemetry.StrKey("s"), int64(w), 1), int64(w+1)*winDur))
	}
	src.observeRows(in)
	var snap telemetry.Batch
	for _, w := range src.OpenWindows() {
		src.SnapshotWindow(w, collect(&snap))
	}

	dst := NewGroupAgg("g", winDur, ProbePairKey, ProbeRTT)
	if !dst.AbsorbSnapshot(snap) {
		t.Fatal("AbsorbSnapshot refused AggRow records")
	}
	for w, want := range []int{3000, 500} {
		if got := cap(dst.state[int64(w)].nums.cells); got != want {
			t.Fatalf("window %d: table presized for %d cells, want its own %d numeric rows", w, got, want)
		}
	}
	var got, want telemetry.Batch
	src.Flush(2*winDur, collect(&want))
	dst.Flush(2*winDur, collect(&got))
	if len(got) != len(want) {
		t.Fatalf("restored operator flushed %d rows, source %d", len(got), len(want))
	}
	for i := range want {
		if *got[i].Data.(*telemetry.AggRow) != *want[i].Data.(*telemetry.AggRow) {
			t.Fatalf("row %d: restored %+v, source %+v", i, got[i].Data, want[i].Data)
		}
	}
}
