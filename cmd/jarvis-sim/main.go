// Command jarvis-sim runs the deterministic simulators.
//
// Without -spec it runs the epoch-level convergence simulator: a
// single data source under a scripted resource scenario, tracing the
// Jarvis runtime's phases and states per epoch (the raw data behind
// Fig. 8).
//
// With -spec it runs the cluster simulator: a declarative workload
// spec compiled to hundreds or thousands of real agent pipelines
// shipping wire-v4 epochs into real SP engines under one shared
// virtual clock — no goroutines, no wall-clock sleeps, byte-identical
// result logs and decision traces on every run of the same spec.
//
// Usage:
//
//	jarvis-sim -query s2s -budget 0.1 -epochs 30 \
//	    -event 3:budget=0.9 -event 18:budget=0.6 -variant jarvis
//
//	jarvis-sim -spec cluster.json -nodes 1000 -checkpoint-dir /tmp/ckpt \
//	    -replay s2s=traffic.capture
//
// -replay takes either recording a jarvis-sp produces: a -record-traffic
// capture or an anomaly dump fetched from /flightrecorder.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"jarvis/internal/plan"
	"jarvis/internal/runtime"
	"jarvis/internal/sim"
	"jarvis/internal/transport"
	"jarvis/internal/workload/spec"
)

type eventFlags []string

func (e *eventFlags) String() string     { return strings.Join(*e, ",") }
func (e *eventFlags) Set(v string) error { *e = append(*e, v); return nil }

func main() {
	queryName := flag.String("query", "s2s", "query to simulate (s2s|t2t|log)")
	budget := flag.Float64("budget", 0.1, "initial CPU budget fraction")
	epochs := flag.Int("epochs", 30, "epochs to simulate")
	variant := flag.String("variant", "jarvis", "runtime variant (jarvis|lponly|nolpinit)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	specPath := flag.String("spec", "", "cluster mode: workload spec JSON (see internal/workload/spec)")
	nodes := flag.Int("nodes", 0, "cluster mode: rescale the spec to this many total nodes")
	checkpointDir := flag.String("checkpoint-dir", "", "cluster mode: durable SP checkpoints under this directory")
	resultLogs := flag.Bool("result-logs", false, "cluster mode: print each SP's canonical result log")
	var events, replays eventFlags
	flag.Var(&events, "event", "scripted change, e.g. 3:budget=0.9 or 12:opcost=2x3.0 (epoch:kind=value)")
	flag.Var(&replays, "replay", "cluster mode: recorded traffic capture as arrival source, query=path (repeatable)")
	flag.Parse()

	var err error
	if *specPath != "" {
		err = runCluster(*specPath, *nodes, *checkpointDir, *resultLogs, replays)
	} else {
		err = run(*queryName, *budget, *epochs, *variant, *seed, events)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jarvis-sim:", err)
		os.Exit(1)
	}
}

// runCluster compiles a workload spec and drives the shared-clock
// cluster simulation, printing the run summary and determinism digest.
func runCluster(specPath string, nodes int, checkpointDir string, printLogs bool, replays []string) error {
	doc, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	s, err := spec.Parse(doc)
	if err != nil {
		return err
	}
	if nodes > 0 {
		s.ScaleNodes(nodes)
	}
	sc, err := s.Compile()
	if err != nil {
		return err
	}
	cfg := sim.ClusterConfig{Scenario: sc, CheckpointDir: checkpointDir}
	for _, r := range replays {
		query, path, ok := strings.Cut(r, "=")
		if !ok {
			return fmt.Errorf("bad -replay %q (want query=path)", r)
		}
		capture, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		// A /flightrecorder dump is the same format plus a header record
		// saying why it was taken; a malformed file fails in NewCluster.
		if meta, _ := transport.ReadDumpMeta(capture); meta != nil {
			fmt.Printf("replay %s: anomaly dump #%d (%s), %d decisions, counter deltas %v\n",
				path, meta.Seq, meta.Reason, len(meta.Decisions), meta.CounterDeltas)
		}
		cfg.Replay = append(cfg.Replay, sim.ReplaySource{Query: query, Capture: capture})
	}
	c, err := sim.NewCluster(cfg)
	if err != nil {
		return err
	}
	res, err := c.Run()
	if err != nil {
		return err
	}

	fmt.Printf("spec %s: %d nodes, %d epochs (%.0fs virtual)\n",
		s.Name, res.Nodes, res.Epochs, res.VirtualSeconds)
	fmt.Printf("wall %.2fs, %.0f node-epochs/sec, %d events\n",
		res.WallSeconds, res.NodeEpochsPerSec, res.Events)
	fmt.Printf("rows %d, failovers %d, epochs delayed %d, degraded %d\n",
		res.Rows, res.Failovers, res.EpochsDelayed, res.EpochsDegraded)
	names := make([]string, 0, len(res.ResultLogs))
	for name := range res.ResultLogs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		log := res.ResultLogs[name]
		fmt.Printf("  sp %-12s %6d bytes result log\n", name, len(log))
		if printLogs {
			os.Stdout.Write(log)
		}
	}
	return nil
}

func run(queryName string, budget float64, epochs int, variant string, seed uint64, eventSpecs []string) error {
	q, rate, err := plan.QueryByName(queryName)
	if err != nil {
		return err
	}
	cfg := sim.DefaultNodeConfig(q, rate, budget)
	cfg.Seed = seed
	node, err := sim.NewNode(cfg)
	if err != nil {
		return err
	}
	var rc runtime.Config
	switch strings.ToLower(variant) {
	case "jarvis":
		rc = runtime.Defaults()
	case "lponly":
		rc = runtime.LPOnly()
	case "nolpinit":
		rc = runtime.NoLPInit()
	default:
		return fmt.Errorf("unknown variant %q", variant)
	}
	events, err := parseEvents(eventSpecs)
	if err != nil {
		return err
	}
	trace, err := sim.Run(node, rc, epochs, events)
	if err != nil {
		return err
	}
	fmt.Printf("query %s, rate %.1f Mbps, %d epochs, variant %s\n", q.Name, rate, epochs, variant)
	fmt.Println("epoch  state      phase    tput(Mbps)  out(Mbps)  lat(s)  factors")
	for _, e := range trace {
		fmt.Printf("%5d  %-9v  %-7v  %9.2f  %8.2f  %6.2f  %s\n",
			e.Epoch, e.State, e.Phase, e.ThroughputMbps, e.OutMbps, e.LatencySec,
			fmtFactors(e.Factors))
	}
	printSummary(trace)
	return nil
}

// printSummary condenses the trace into the numbers the figures report:
// how long the runtime took to stabilize, how the epochs distributed
// across proxy states, and the converged throughput.
func printSummary(trace sim.Trace) {
	const hold = 3
	stateEpochs := map[string]int{}
	profiled := 0
	for _, e := range trace {
		stateEpochs[e.State.String()]++
		if e.Profiled {
			profiled++
		}
	}
	fmt.Println("--- summary ---")
	fmt.Printf("epochs %d, profiling epochs %d\n", len(trace), profiled)
	keys := make([]string, 0, len(stateEpochs))
	for k := range stateEpochs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-9s %d epochs\n", k, stateEpochs[k])
	}
	if at := trace.ConvergedAt(0, hold); at >= 0 {
		fmt.Printf("converged at epoch %d (stable for %d epochs); mean throughput after: %.2f Mbps\n",
			at, hold, trace.MeanThroughput(at, len(trace)))
	} else {
		fmt.Printf("did not converge (%d-epoch stability window)\n", hold)
	}
}

func parseEvents(specs []string) ([]sim.Event, error) {
	var out []sim.Event
	for _, spec := range specs {
		epochStr, rest, ok := strings.Cut(spec, ":")
		if !ok {
			return nil, fmt.Errorf("bad event %q (want epoch:kind=value)", spec)
		}
		epoch, err := strconv.Atoi(epochStr)
		if err != nil {
			return nil, fmt.Errorf("bad event epoch in %q: %w", spec, err)
		}
		kind, value, ok := strings.Cut(rest, "=")
		if !ok {
			return nil, fmt.Errorf("bad event body %q", rest)
		}
		ev := sim.Event{Epoch: epoch}
		switch kind {
		case "budget":
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, err
			}
			ev.BudgetFrac = &v
		case "rate":
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return nil, err
			}
			ev.RateMbps = &v
		case "opcost": // opcost=<opIdx>x<factor>
			idxStr, facStr, ok := strings.Cut(value, "x")
			if !ok {
				return nil, fmt.Errorf("bad opcost %q (want IDXxFACTOR)", value)
			}
			idx, err := strconv.Atoi(idxStr)
			if err != nil {
				return nil, err
			}
			fac, err := strconv.ParseFloat(facStr, 64)
			if err != nil {
				return nil, err
			}
			ev.ScaleOpCost = map[int]float64{idx: fac}
		case "reset":
			ev.ResetFactors = true
			ev.ClearBacklog = value == "all"
		default:
			return nil, fmt.Errorf("unknown event kind %q", kind)
		}
		out = append(out, ev)
	}
	return out, nil
}

func fmtFactors(f []float64) string {
	parts := make([]string, len(f))
	for i, v := range f {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
