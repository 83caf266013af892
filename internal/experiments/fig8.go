package experiments

import (
	"fmt"

	"jarvis/internal/plan"
	"jarvis/internal/runtime"
	"jarvis/internal/sim"
	"jarvis/internal/workload"
)

// Fig8Config names the three adaptation variants of §VI-C.
var Fig8Configs = []struct {
	Name string
	Cfg  runtime.Config
}{
	{"LP only", runtime.LPOnly()},
	{"w/o LP-init", runtime.NoLPInit()},
	{"Jarvis", runtime.Defaults()},
}

// Fig8Result is one convergence panel: the per-epoch state trace of each
// variant under a scripted resource scenario plus convergence counts.
type Fig8Result struct {
	Name string
	// ChangeEpochs are the epochs at which resource conditions change.
	ChangeEpochs []int
	// Traces maps variant name → epoch trace.
	Traces map[string]sim.Trace
	// Convergence maps variant name → change epoch → epochs to
	// restabilize (-1: never within the run).
	Convergence map[string]map[int]int
	Epochs      int
}

func runFig8(name string, mkNode func(seed uint64) (*sim.Node, error),
	epochs int, changes []int, events []sim.Event) (*Fig8Result, error) {
	res := &Fig8Result{
		Name:         name,
		ChangeEpochs: changes,
		Traces:       map[string]sim.Trace{},
		Convergence:  map[string]map[int]int{},
		Epochs:       epochs,
	}
	for i, variant := range Fig8Configs {
		node, err := mkNode(uint64(i + 1))
		if err != nil {
			return nil, err
		}
		trace, err := sim.Run(node, variant.Cfg, epochs, events)
		if err != nil {
			return nil, err
		}
		res.Traces[variant.Name] = trace
		conv := map[int]int{}
		for _, ce := range changes {
			conv[ce] = trace.ConvergenceEpochs(ce, 3)
		}
		res.Convergence[variant.Name] = conv
	}
	return res, nil
}

// Fig8S2S reproduces Fig. 8(a): the S2SProbe budget script
// 10% → 90% (epoch 3) → 60% (epoch 18).
func Fig8S2S() (*Fig8Result, error) {
	mk := func(seed uint64) (*sim.Node, error) {
		cfg := sim.DefaultNodeConfig(plan.S2SProbe(), workload.PingmeshMbps10x, 0.10)
		cfg.Seed = seed
		return sim.NewNode(cfg)
	}
	events := []sim.Event{
		{Epoch: 3, BudgetFrac: sim.Budget(0.90)},
		{Epoch: 18, BudgetFrac: sim.Budget(0.60)},
	}
	return runFig8("S2SProbe", mk, 30, []int{3, 18}, events)
}

// Fig8T2T reproduces Fig. 8(b): T2TProbe with a table of 50 at 10% CPU,
// 100% CPU at epoch 3, table ×10 at epoch 12, manual reset at epoch 18
// (as the paper does to stabilize the next run).
func Fig8T2T() (*Fig8Result, error) {
	mk := func(seed uint64) (*sim.Node, error) {
		cfg := sim.DefaultNodeConfig(plan.T2TQuery(50), workload.PingmeshMbps10x, 0.10)
		cfg.Seed = seed
		return sim.NewNode(cfg)
	}
	growth := plan.JoinCostPct(500) / plan.JoinCostPct(50)
	events := []sim.Event{
		{Epoch: 3, BudgetFrac: sim.Budget(1.0)},
		{Epoch: 12, ScaleOpCost: map[int]float64{2: growth, 3: growth}},
		{Epoch: 18, ResetFactors: true, ClearBacklog: true},
	}
	return runFig8("T2TProbe", mk, 30, []int{3, 12, 18}, events)
}

// Fig8Log reproduces Fig. 8(c): LogAnalytics under a budget script
// 10% → 80% (epoch 3) → 25% (epoch 15).
func Fig8Log() (*Fig8Result, error) {
	mk := func(seed uint64) (*sim.Node, error) {
		cfg := sim.DefaultNodeConfig(plan.LogAnalytics(), workload.LogMbps10x, 0.10)
		cfg.Seed = seed
		return sim.NewNode(cfg)
	}
	events := []sim.Event{
		{Epoch: 3, BudgetFrac: sim.Budget(0.80)},
		{Epoch: 15, BudgetFrac: sim.Budget(0.25)},
	}
	return runFig8("LogAnalytics", mk, 26, []int{3, 15}, events)
}

// String renders the state trace per epoch (the paper plots the same
// series as Detect/Idle/Profile/Congested/Stable bands).
func (r *Fig8Result) String() string {
	var t table
	t.title(fmt.Sprintf("Fig.8 (%s): convergence trace (change epochs %v)", r.Name, r.ChangeEpochs))
	for _, variant := range Fig8Configs {
		trace := r.Traces[variant.Name]
		line := fmt.Sprintf("%-12s ", variant.Name)
		for _, e := range trace {
			line += stateGlyph(e)
		}
		t.line(line)
		for _, ce := range r.ChangeEpochs {
			c := r.Convergence[variant.Name][ce]
			if c < 0 {
				t.line(fmt.Sprintf("             change@%d: never restabilized", ce))
			} else {
				t.line(fmt.Sprintf("             change@%d: %d epochs to stable", ce, c))
			}
		}
	}
	t.line("legend: . stable  i idle  C congested  P profile epoch")
	return t.String()
}

func stateGlyph(e sim.TraceEntry) string {
	if e.Profiled {
		return "P"
	}
	switch e.State.String() {
	case "stable":
		return "."
	case "idle":
		return "i"
	default:
		return "C"
	}
}
