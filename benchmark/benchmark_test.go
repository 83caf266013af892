package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"jarvis/internal/transport"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 98}, {500, 98}, {499, 95},
		{100, 90}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},          // overlaps a: [10,50) counts once
		{Name: "c", Start: 90, End: 120, Parent: 0},         // clipped to the parent's end
		{Name: "grandchild", Start: 12, End: 18, Parent: 1}, // comes off a, not off parent
		{Name: "other root", Start: 0, End: 7, Parent: -1},
	}
	want := []int64{50, 14, 30, 30, 6, 7}
	if got := selfNanos(spans); !slices.Equal(got, want) {
		t.Errorf("selfNanos = %v, want %v", got, want)
	}
}

// The wire-bytes metric counts at the agents' wrapped connections. What
// the receiver's frame readers saw must be the same number: its
// wire_bytes_in counter. (Receiver.BytesIn is a different quantity, the
// records' logical payload size, so it is not the comparand.)
func TestWrappedConnCountsWireBytes(t *testing.T) {
	s, err := specByName("s2s-neardata")
	if err != nil {
		t.Fatal(err)
	}
	top, err := standUp(s, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer top.close()
	top.attach(newPools(s, 7))
	for k := 0; k < 12; k++ {
		for _, a := range top.agents {
			if err := a.runEpoch(time.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	top.drain()
	var sent int64
	for _, a := range top.agents {
		if a.unacked() != 0 {
			t.Fatalf("agent %d has %d unacked epochs after drain", a.id, a.unacked())
		}
		sent += a.conn.bytesOut.Load()
	}
	if got := top.rc.Counters().Get(transport.CtrWireBytesIn); got != sent || sent == 0 {
		t.Errorf("agents wrote %d bytes, receiver read %d", sent, got)
	}
}

// s2s-drain and s2s-neardata must be fed the same trace, so that their
// result logs — each held against its oracle on every window — are equal
// to each other and wire_bytes_per_record of one over the other is the
// paper's reduction.
func TestS2SWorkloadsShareInput(t *testing.T) {
	drain, _ := specByName("s2s-drain")
	near, _ := specByName("s2s-neardata")
	a, err := oracle(drain, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := oracle(near, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Errorf("oracles differ: %d vs %d keys", len(a), len(b))
	}
}

// The capture sink must find records by the capture format, not by how
// the recorder happens to split its stream into Write calls: however the
// same bytes are chunked, it keeps each connection's first frame and
// everything after it was armed, and the result parses.
func TestGatedCaptureIgnoresWriteBoundaries(t *testing.T) {
	record := func(conn uint64, size int, fill byte) []byte {
		b := binary.AppendUvarint(nil, conn)
		b = binary.AppendUvarint(b, uint64(size))
		return append(b, bytes.Repeat([]byte{fill}, size)...)
	}
	hello0, hello1 := record(0, 20, 'h'), record(1, 300, 'H')
	before := slices.Concat([]byte(transport.TrafficMagic), hello0, record(0, 300, 'a'), hello1, record(1, 5, 'b'), record(0, 130, 'c'))
	after := slices.Concat(record(1, 300, 'd'), record(0, 1, 'e'), record(1, 200, 'f'))
	want := slices.Concat([]byte(transport.TrafficMagic), hello0, hello1, after)

	for _, chunk := range []int{1, 2, 7, 64, 1 << 20} {
		g := newGatedCapture()
		feed := func(b []byte) {
			for len(b) > 0 {
				n := min(chunk, len(b))
				if _, err := g.Write(b[:n]); err != nil {
					t.Fatalf("chunk %d: %v", chunk, err)
				}
				b = b[n:]
			}
		}
		feed(before)
		g.arm()
		feed(after)
		if !bytes.Equal(g.bytes(), want) {
			t.Errorf("chunk %d: kept %d bytes, want %d", chunk, len(g.bytes()), len(want))
		}
	}
	conns, err := transport.ReadTrafficCapture(want)
	if err != nil || len(conns) != 2 || len(conns[0].Frames) != 2 || len(conns[1].Frames) != 3 {
		t.Errorf("ReadTrafficCapture of the kept bytes: %d conns, err %v", len(conns), err)
	}
	if _, err := newGatedCapture().Write(append([]byte(transport.TrafficMagic), bytes.Repeat([]byte{0xff}, 11)...)); err == nil {
		t.Error("an overlong uvarint header was accepted")
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, m, c)
		}
	}
}

// checkMetrics requires a result to carry exactly the named metrics with
// the named units.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// TestSmoke drives the whole harness with one-second phases: every
// workload's untraced run with the oracle on, and the traced run on the
// two workloads that between them reach every drill.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	for i := range specs {
		s := &specs[i]
		o := options{workload: s.name, seed: 11, smoke: true, scratch: t.TempDir()}
		rep, err := runEndToEnd(s, o)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if rep.result.Attempted < 1 || rep.result.Failed != 0 {
			t.Errorf("%s: attempted %d failed %d", s.name, rep.result.Attempted, rep.result.Failed)
		}
		checkMetrics(t, s.name, rep.result.Metrics, e2e)
		if s.name != "s2s-drain" && !s.ha {
			continue
		}
		rep, err = runTraced(s, o)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		checkMetrics(t, s.name+" traced", rep.result.Metrics, layers)
		if s.ha && rep.result.Metrics["checkpoint.restore_ms"].Value <= 0 {
			t.Errorf("%s traced: the restore drill measured nothing", s.name)
		}
	}
}
