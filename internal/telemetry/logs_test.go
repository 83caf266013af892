package telemetry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParseJobStats(t *testing.T) {
	line := "tenant name=alpha-07, job running time=532, cpu util=74.2, memory util=31.0"
	stats, err := ParseJobStats(42, line)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d stats, want 3", len(stats))
	}
	want := map[string]float64{
		"job running time": 532,
		"cpu util":         74.2,
		"memory util":      31.0,
	}
	for _, s := range stats {
		if s.Tenant != "alpha-07" {
			t.Fatalf("tenant = %q", s.Tenant)
		}
		if s.Timestamp != 42 {
			t.Fatalf("ts = %d", s.Timestamp)
		}
		if w, ok := want[s.StatName]; !ok || w != s.Stat {
			t.Fatalf("stat %q = %v, want %v", s.StatName, s.Stat, w)
		}
	}
}

func TestParseJobStatsErrors(t *testing.T) {
	if _, err := ParseJobStats(0, "job running time=5"); err == nil {
		t.Fatal("missing tenant should error")
	}
	if _, err := ParseJobStats(0, "tenant name=x, cpu util=abc"); err == nil {
		t.Fatal("non-numeric stat should error")
	}
	// Fields without '=' are skipped, not fatal.
	stats, err := ParseJobStats(0, "garbage, tenant name=x, cpu util=5")
	if err != nil || len(stats) != 1 {
		t.Fatalf("got %v, %v", stats, err)
	}
}

// TestParseJobStatsRejectsNonDecimal pins the shared scanner's number
// grammar: strconv.ParseFloat reads nan, inf and hex floats, but
// WidthBucket(NaN) is an implementation-defined float→int conversion —
// the group key would differ by architecture — so such a line is
// malformed, for ParseJobStats and the parse kernel alike.
func TestParseJobStatsRejectsNonDecimal(t *testing.T) {
	for _, v := range []string{"nan", "NaN", "+Inf", "-inf", "infinity", "0x1p-2", "0X1P-2", "1e999"} {
		line := "tenant name=x, cpu util=" + v
		if stats, err := ParseJobStats(0, line); err == nil {
			t.Errorf("%q parsed to %+v, want an error", line, stats)
		}
		calls := 0
		if _, err := ScanJobStats("memory util=1, "+line, func(string, float64) { calls++ }); err == nil || calls != 1 {
			t.Errorf("ScanJobStats(%q): err %v after %d stats, want an error after 1", line, err, calls)
		}
	}
	stats, err := ParseJobStats(0, "tenant name=x, cpu util=-0.5e1, memory util=+7.")
	if err != nil || len(stats) != 2 || stats[0].Stat != -5 || stats[1].Stat != 7 {
		t.Fatalf("decimal forms: %+v, %v", stats, err)
	}
}

func TestWidthBucket(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0},
		{0, 1},
		{9.99, 1},
		{10, 2},
		{55, 6},
		{99.9, 10},
		{100, 11},
		{150, 11},
	}
	for _, c := range cases {
		if got := WidthBucket(c.v, 0, 100, 10); got != c.want {
			t.Errorf("WidthBucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if WidthBucket(5, 0, 100, 0) != 0 {
		t.Fatal("n<=0 should return 0")
	}
}

func TestWidthBucketRange(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		b := WidthBucket(v, 0, 100, 10)
		return b >= 0 && b <= 11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewLogRecordSize(t *testing.T) {
	r := NewLogRecord(7, "hello world")
	if r.WireSize != len("hello world") {
		t.Fatalf("WireSize = %d", r.WireSize)
	}
	ll := r.Data.(*LogLine)
	if ll.Timestamp != 7 || ll.Raw != "hello world" {
		t.Fatalf("bad payload %+v", ll)
	}
}

func TestJobStatsWireSize(t *testing.T) {
	j := &JobStats{Tenant: "abcd", StatName: "cpu util"}
	if got := j.JobStatsWireSize(); got != 4+8+8+8+4+16 {
		t.Fatalf("wire size = %d", got)
	}
}
