// Command jarvis-bench regenerates the paper's evaluation tables and
// figures (§VI). Run everything with -exp all, or name a single
// experiment from the table below (-h lists them). The engine's layer
// micro-benchmarks are not here: they are `go test -bench` functions in
// the repository root (bench_test.go).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"jarvis/internal/experiments"
)

// experimentTable is the one ordered list of what -exp accepts: `all` runs
// it top to bottom, and the help string and the unknown-experiment error
// are generated from it.
var experimentTable = []struct {
	name string
	run  func(seed uint64) ([]fmt.Stringer, error)
}{
	{"fig3", one(experiments.Fig3)},
	{"fig7", func(uint64) ([]fmt.Stringer, error) {
		results, err := experiments.Fig7All()
		if err != nil {
			return nil, err
		}
		return []fmt.Stringer{results["s2s"], results["t2t"], results["log"]}, nil
	}},
	{"fig8", func(uint64) ([]fmt.Stringer, error) {
		var out []fmt.Stringer
		for _, f := range []func() (*experiments.Fig8Result, error){
			experiments.Fig8S2S, experiments.Fig8T2T, experiments.Fig8Log,
		} {
			r, err := f()
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}},
	{"fig9", func(seed uint64) ([]fmt.Stringer, error) {
		r, err := experiments.Fig9(seed)
		if err != nil {
			return nil, err
		}
		return []fmt.Stringer{r}, nil
	}},
	{"fig10", many(experiments.Fig10All)},
	{"fig11", many(experiments.Fig11All)},
	{"latency", one(experiments.Latency)},
	{"opcount", one(experiments.OpCount)},
	{"ablation", one(func() (*experiments.AblationResult, error) { return experiments.Ablation(0.60) })},
	{"overhead", one(experiments.Overhead)},
}

// one and many adapt the seedless experiment functions to the table.
func one[T fmt.Stringer](f func() (T, error)) func(uint64) ([]fmt.Stringer, error) {
	return func(uint64) ([]fmt.Stringer, error) {
		r, err := f()
		if err != nil {
			return nil, err
		}
		return []fmt.Stringer{r}, nil
	}
}

func many[T fmt.Stringer](f func() ([]T, error)) func(uint64) ([]fmt.Stringer, error) {
	return func(uint64) ([]fmt.Stringer, error) {
		results, err := f()
		if err != nil {
			return nil, err
		}
		out := make([]fmt.Stringer, len(results))
		for i, r := range results {
			out[i] = r
		}
		return out, nil
	}
}

// experimentNames is "all|fig3|…|overhead", in table order.
func experimentNames() string {
	names := []string{"all"}
	for _, e := range experimentTable {
		names = append(names, e.name)
	}
	return strings.Join(names, "|")
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+experimentNames()+")")
	seed := flag.Uint64("seed", 7, "seed for randomized workloads")
	flag.Parse()

	if err := run(*exp, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "jarvis-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, seed uint64) error {
	ran := false
	for _, e := range experimentTable {
		if exp != "all" && exp != e.name {
			continue
		}
		ran = true
		results, err := e.run(seed)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println(r)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want %s)", exp, experimentNames())
	}
	return nil
}
