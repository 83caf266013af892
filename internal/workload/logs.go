package workload

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"jarvis/internal/telemetry"
)

// Paper constants for the LogAnalytics workload (§VI-A): guided by Chi's
// report of 10s of PB/day across 200 K nodes, each node generates
// 0.62 MBps = 4.96 Mbps of text logs, scaled 10× for experiments.
const (
	LogMbps1x  = 4.96
	LogMbps10x = 49.6
)

// LogConfig configures a LogAnalytics text-log generator.
type LogConfig struct {
	Seed uint64
	// Tenants is the number of distinct tenant names.
	Tenants int
	// MatchRate is the fraction of lines containing one of the query's
	// patterns (tenant/job/cpu/memory); the rest are unrelated chatter
	// filtered out by the pattern-match Filter.
	MatchRate float64
	// FirstTenant offsets the generated tenant names (tenant-%03d starting
	// here), so several generators can emit disjoint tenant populations —
	// one per agent when a test needs per-agent tenancy.
	FirstTenant int
	// StartMicros and IntervalMicros pace event time like PingConfig.
	StartMicros    int64
	IntervalMicros int64
	// NextGap, when set, replaces the fixed IntervalMicros pacing (see
	// PingConfig.NextGap).
	NextGap func() int64
	// TenantPick, when set, replaces uniform tenant selection on
	// matching lines: it returns the tenant index out of n (hot-key
	// skew). Out-of-range picks are clamped into [0, n).
	TenantPick func(n int) int
}

// DefaultLogConfig matches the evaluation setup: mostly matching lines
// (the query's filter-out rate is low, which is why Filter-Src stays
// network bound in Fig. 7(c)).
func DefaultLogConfig(seed uint64) LogConfig {
	return LogConfig{
		Seed:           seed,
		Tenants:        64,
		MatchRate:      0.9,
		StartMicros:    0,
		IntervalMicros: int64(1e6 / RecordsPerSec(LogMbps10x, AvgLogLineBytes)),
	}
}

// AvgLogLineBytes is the approximate average emitted line length, used to
// convert between line rates and Mbps.
const AvgLogLineBytes = 130

// logPad is the padding oneLine draws from.
var logPad = strings.Repeat("x", AvgLogLineBytes)

// LogGen generates deterministic LogAnalytics lines.
type LogGen struct {
	cfg     LogConfig
	rng     *rand.Rand
	next    int64
	tenants []string
	arena   logArena
	line    []byte // oneLine's formatting buffer
}

// NewLogGen builds a generator with a fixed tenant population.
func NewLogGen(cfg LogConfig) *LogGen {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 64
	}
	if cfg.IntervalMicros <= 0 {
		cfg.IntervalMicros = 1
	}
	g := &LogGen{
		cfg:  cfg,
		rng:  rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xDA442D24)),
		next: cfg.StartMicros,
	}
	g.tenants = make([]string, cfg.Tenants)
	for i := range g.tenants {
		g.tenants[i] = fmt.Sprintf("tenant-%03d", cfg.FirstTenant+i)
	}
	return g
}

// Tenants returns the tenant population (ground truth for tests).
func (g *LogGen) Tenants() []string { return g.tenants }

// Next emits the next n log records.
func (g *LogGen) Next(n int) telemetry.Batch {
	out := make(telemetry.Batch, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.one())
	}
	return out
}

// NextWindow emits all lines with event time in [cur, cur+durMicros).
func (g *LogGen) NextWindow(durMicros int64) telemetry.Batch {
	end := g.next + durMicros
	var out telemetry.Batch
	for g.next < end {
		out = append(out, g.one())
	}
	return out
}

func (g *LogGen) one() telemetry.Record {
	ts, line := g.oneLine()
	return telemetry.NewLogRecord(ts, line)
}

// oneLine draws the next line without building the record (shared by the
// row and columnar emitters). The line is formatted into the generator's
// reused buffer and copied out once.
func (g *LogGen) oneLine() (int64, string) {
	ts := g.next
	g.next += g.gap()
	b := g.line[:0]
	if g.rng.Float64() < g.cfg.MatchRate {
		tenant := g.tenants[g.pickTenant()]
		// Zipf-ish job time: mostly short, occasionally long jobs.
		jobMs := int(g.rng.ExpFloat64() * 40)
		cpu := g.rng.Float64() * 100
		mem := g.rng.Float64() * 100
		// Mixed case and padding exercise the query's trim+lowercase Map.
		b = append(append(b, "  Tenant Name="...), tenant...)
		b = strconv.AppendInt(append(b, ", Job Running Time="...), int64(jobMs), 10)
		b = strconv.AppendFloat(append(b, ", CPU Util="...), cpu, 'f', 1, 64)
		b = strconv.AppendFloat(append(b, ", Memory Util="...), mem, 'f', 1, 64)
		b = append(b, "  "...)
	} else {
		b = strconv.AppendInt(append(b, "kernel: eth0 link state change seq="...), int64(g.rng.Int32()), 10)
		b = strconv.AppendInt(append(b, " flags=0x"...), int64(g.rng.Int32()), 16)
	}
	// Pad to keep average line size near AvgLogLineBytes so Mbps
	// accounting matches the configured rate.
	if pad := AvgLogLineBytes - len(b) - 10; pad > 0 {
		b = append(append(b, " #"...), logPad[:pad]...)
	}
	g.line = b
	return ts, string(b)
}

// gap returns the event-time advance to the next line.
func (g *LogGen) gap() int64 {
	if g.cfg.NextGap != nil {
		if d := g.cfg.NextGap(); d > 0 {
			return d
		}
		return 1
	}
	return g.cfg.IntervalMicros
}

// pickTenant selects the tenant of a matching line: the configured
// hook (hot-key skew) or the default uniform draw.
func (g *LogGen) pickTenant() int {
	if g.cfg.TenantPick != nil {
		i := g.cfg.TenantPick(len(g.tenants))
		if i < 0 || i >= len(g.tenants) {
			i = 0
		}
		return i
	}
	return g.rng.IntN(len(g.tenants))
}

// SkipWindow advances event time by durMicros without emitting records
// (see PingGen.SkipWindow).
func (g *LogGen) SkipWindow(durMicros int64) { g.next += durMicros }

// Patterns are the substrings the LogAnalytics query greps for
// (Listing 3); matching is done on the lowercased line.
var Patterns = []string{"tenant name", "job running time", "cpu util", "memory util"}

// MatchesPatterns reports whether a (lowercased) line contains any query
// pattern.
func MatchesPatterns(line string) bool {
	for _, p := range Patterns {
		if strings.Contains(line, p) {
			return true
		}
	}
	return false
}
