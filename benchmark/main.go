// Command benchmark is the repository's end-to-end benchmark: in one
// process it stands up what jarvis-sp and jarvis-agent stand up, drives
// it over loopback TCP through those packages' exported functions, and
// reports epoch-ack latency, saturation throughput and wire bytes for
// four named workloads — or, with -trace 1, the per-layer metrics of a
// separate traced run. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// maxProcs pins the scheduler to the two cores the bounds were fixed on;
// agents and SP share them.
const maxProcs = 2

// warmUp is the unmeasured start of every open loop: the runtime
// converges, pools and arenas fill.
const warmUp = 2 * time.Second

// setupRounds is how many times a run sets up to take the median set-up
// time (the last round is the one the run then uses).
const setupRounds = 15

// aaRuns is how many runs per workload each set of the A/A helper makes
// (medians are compared). It is fixed so that two people's A/A verdicts
// against the same bounds are comparable.
const aaRuns = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	scratch  string
	smoke    bool
}

// metric is one reported number. The JSON form is the result line's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	var cpuProfile, memProfile string
	var aa bool
	flag.StringVar(&o.workload, "workload", "s2s-drain", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 20, "seconds of measured phases")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
	flag.StringVar(&o.scratch, "scratch", "", "directory for temporary snapshot stores (default: the system temp dir)")
	flag.BoolVar(&o.smoke, "smoke", false, "one-second phases: exercises the harness and the oracle, the numbers mean nothing")
	flag.BoolVar(&aa, "aa", false, "run two interleaved sets of all workloads on this binary and compare them against the bounds")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&memProfile, "memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	o.trace = traceFlag != 0
	runtime.GOMAXPROCS(maxProcs)

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() { pprof.StopCPUProfile(); _ = f.Close() }()
	}
	code := 0
	if aa {
		code = runAA(o)
	} else if err := runOne(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		_ = f.Close()
	}
	if code != 0 {
		pprof.StopCPUProfile()
		os.Exit(code)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i := range specs {
		names[i] = specs[i].name
	}
	return names
}

// runOne runs one workload and prints its report and result line. A run
// whose outputs are wrong, or that lost its connection, is an error: it
// prints no result.
func runOne(o options) error {
	s, err := specByName(o.workload)
	if err != nil {
		return err
	}
	printFingerprint(s, o)
	var rep *report
	if o.trace {
		rep, err = runTraced(s, o)
	} else {
		rep, err = runEndToEnd(s, o)
	}
	if err != nil {
		return err
	}
	rep.print()
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// report is one run's output: the machine-readable result plus the lines
// printed above it.
type report struct {
	result result
	order  []string // metric names in print order
	notes  []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.result.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.result.Metrics[name] = metric{v, unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, name := range r.order {
		m := r.result.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

func printFingerprint(s *spec, o options) {
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", s.name, o.seed, o.seconds, o.trace)
	fmt.Printf("  why: %s\n", s.why)
	fmt.Printf("  query %s, %d agents, epoch %d ms of event time, budget %g, open-loop period %v, sp tick %v\n",
		s.query().Name, numAgents, s.epochMicros/1000, s.budget, s.period, spTick)
	fmt.Printf("machine: %s %s/%s nproc %d GOMAXPROCS %d cpu %q commit %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), commit())
}

// cpuModel reads the CPU model name; it is only a label in the report.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// phases splits the measured seconds: the open loop needs the samples,
// the saturation rate settles quickly.
func (o options) phases() (warm, open, sat time.Duration) {
	if o.smoke {
		return 400 * time.Millisecond, 700 * time.Millisecond, 300 * time.Millisecond
	}
	total := time.Duration(o.seconds * float64(time.Second))
	open = total * 7 / 10
	return warmUp, open, total - open
}

// setUpOnce is one set-up round, timed in seconds: everything from
// nothing to the first epoch of every agent acked — constructors, stores,
// standby attach, listeners, dial and handshake, and the first epoch's
// cold path through every layer. Input generation is not part of it: the
// pools are the benchmark's, not the system's.
func setUpOnce(s *spec, o options, pools []*pool) (*topology, float64, error) {
	start := time.Now()
	t, err := standUp(s, o.scratch, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	t.attach(pools)
	if err := t.each(func(_ int, a *agent) error { return a.runEpoch(time.Now()) }); err != nil {
		t.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	t.drain()
	return t, time.Since(start).Seconds(), nil
}

// setUp sets up setupRounds times and returns the last round's topology,
// the median time (setup_s) and the first round's. Work an optimisation
// moves into a constructor, or into a lazy first use of something built
// per instance, is paid every round and shows in the median. Work moved
// into process-wide one-time state (a sync.Once table, a package-level
// pool) is paid once, in the first round or in the oracle's fold before
// it, and the median discards it: only the first round's time, printed
// beside the median and reported by the traced run as
// setup.first_round_s, can show it, and that number is not gated.
func setUp(s *spec, o options, pools []*pool) (t *topology, medianS, firstS float64, err error) {
	rounds := setupRounds
	if o.smoke {
		rounds = 2
	}
	times := make([]float64, rounds)
	for i := range times {
		if t != nil {
			t.close()
		}
		if t, times[i], err = setUpOnce(s, o, pools); err != nil {
			return nil, 0, 0, err
		}
	}
	return t, median(times), times[0], nil
}

// newPools generates every agent's input for a seed.
func newPools(s *spec, seed uint64) []*pool {
	pools := make([]*pool, numAgents)
	for i := range pools {
		pools[i] = newPool(s, seed, i)
	}
	return pools
}

// attach hands the agents their pools. A pool carries its own shift
// state, so a later topology can take over an earlier one's.
func (t *topology) attach(pools []*pool) {
	for i, a := range t.agents {
		a.pool = pools[i]
	}
}

// runEndToEnd is the untraced run: set-up, warm-up, open loop,
// saturation, drain, verify.
func runEndToEnd(s *spec, o options) (*report, error) {
	warm, open, sat := o.phases()
	pools := newPools(s, o.seed)
	// The oracle's fold runs first: it is needed anyway, and a second of
	// steady work brings an idle box up to speed before set-up is timed.
	want, err := oracle(s, o.seed)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	t, setupS, setupFirstS, err := setUp(s, o, pools)
	if err != nil {
		return nil, err
	}
	defer t.close()

	nWarm, nOpen := int(warm/s.period), int(open/s.period)
	st, err := t.openLoop(nWarm, nOpen)
	if err != nil {
		return nil, err
	}
	if !t.connected() {
		return nil, errors.New("an agent was disconnected at the end of the open loop")
	}
	factors := t.loadFactors()
	satRate, err := t.saturate(sat)
	if err != nil {
		return nil, err
	}
	if !t.connected() {
		return nil, errors.New("an agent was disconnected at the end of the saturation phase")
	}
	t.drain()
	or := t.reduce(st)
	attempted, failed := t.failures()
	windows, err := t.checkLog(want)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	drainedFrac := float64(or.drained) / float64(or.records)
	if err := s.partition(drainedFrac, factors); err != nil && !o.smoke {
		return nil, err
	}
	unsustainable := st.backlogEnd-st.backlogMid > 2

	rep := newReport()
	rep.result.Attempted, rep.result.Failed = attempted, failed
	rep.note("phases: warm-up %d epochs/agent, open loop %d epochs/agent over %v, saturation %v (window %d)", nWarm, nOpen, open, sat, satWindow)
	rep.note("oracle: %d windows equal the unpartitioned fold of the regenerated input", windows)
	rep.note("set-up: first round %.4f s (pays the process's one-time work; not gated), median of all rounds %.4f s", setupFirstS, setupS)
	rep.note("epochs_attempted %d epochs_failed %d unsustainable %v (backlog mid %.2f end %.2f)", attempted, failed, unsustainable, st.backlogMid, st.backlogEnd)
	rep.note("records/epoch %.0f, shipped raw %.2f%%, load factors %.3f", mean(or.epochRecord), drainedFrac*100, factors)
	tail := supportedTail(len(or.latencies))
	rep.note("ack latency: %d samples; highest percentile with >= 10 samples beyond it is p%g = %.3f ms", len(or.latencies), tail, percentile(or.latencies, tail))
	slices.Sort(st.lateMs)
	rep.note("generator lateness: p50 %.3f ms p99 %.3f ms max %.3f ms over %d epochs", percentile(st.lateMs, 50), percentile(st.lateMs, 99), percentile(st.lateMs, 100), len(st.lateMs))
	if unsustainable && !o.smoke {
		return nil, errors.New("open loop unsustainable: the unacked backlog grew by more than 2 epochs over the second half, latencies are void")
	}
	if or.unacked > 0 {
		return nil, fmt.Errorf("%d open-loop epochs were never acked", or.unacked)
	}
	rep.set("setup_s", setupS, "s")
	rep.set("sat_records_per_s", satRate, "1/s")
	p50, segs := or.segmentMedian(50)
	rep.note("ack latency over all samples: p50 %.3f p90 %.3f p99 %.3f ms; the reported p50 is the median over %d segments of %v", percentile(or.latencies, 50), percentile(or.latencies, 90), percentile(or.latencies, 99), segs, segment)
	rep.set("ack_p50_ms", p50, "ms")
	rep.set("wire_bytes_per_record", float64(or.wireBytes)/float64(or.records), "B")
	return rep, nil
}
