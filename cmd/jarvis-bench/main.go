// Command jarvis-bench regenerates the paper's evaluation tables and
// figures (§VI). Run everything with -exp all, or name a single
// experiment: fig3, fig7, fig8, fig9, fig10, fig11, latency, opcount,
// overhead. `-exp micro` runs the engine micro-benchmarks (agent epoch
// rows/SoA, the end-to-end building block, SP ingest, checkpoint save/
// restore/delta, epoch replay and decode, replication apply and failover
// downtime, obs overhead, admission, cluster sim)
// and writes them as JSON to -benchout; the committed BENCH_<n>.json
// files are such runs, one per PR that moved the numbers.
package main

import (
	"flag"
	"fmt"
	"os"

	"jarvis/internal/experiments"
	"jarvis/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all|fig3|fig7|fig8|fig9|fig10|fig11|latency|opcount|ablation|overhead|micro)")
	seed := flag.Uint64("seed", 7, "seed for randomized workloads")
	benchOut := flag.String("benchout", "BENCH_local.json", "output file for -exp micro results")
	obsOff := flag.Bool("obs-off", false, "disable epoch-lifecycle timing (obs.SetEnabled(false)) for A/B overhead runs")
	flag.Parse()

	if *obsOff {
		obs.SetEnabled(false)
	}

	if *exp == "micro" {
		if err := runMicro(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, "jarvis-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "jarvis-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, seed uint64) error {
	all := exp == "all"
	ran := false

	if all || exp == "fig3" {
		ran = true
		r, err := experiments.Fig3()
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if all || exp == "fig7" {
		ran = true
		results, err := experiments.Fig7All()
		if err != nil {
			return err
		}
		for _, name := range []string{"s2s", "t2t", "log"} {
			fmt.Println(results[name])
		}
	}
	if all || exp == "fig8" {
		ran = true
		for _, f := range []func() (*experiments.Fig8Result, error){
			experiments.Fig8S2S, experiments.Fig8T2T, experiments.Fig8Log,
		} {
			r, err := f()
			if err != nil {
				return err
			}
			fmt.Println(r)
		}
	}
	if all || exp == "fig9" {
		ran = true
		r, err := experiments.Fig9(seed)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if all || exp == "fig10" {
		ran = true
		results, err := experiments.Fig10All()
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println(r)
		}
	}
	if all || exp == "fig11" {
		ran = true
		results, err := experiments.Fig11All()
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println(r)
		}
	}
	if all || exp == "latency" {
		ran = true
		r, err := experiments.Latency()
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if all || exp == "opcount" {
		ran = true
		r, err := experiments.OpCount()
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if all || exp == "ablation" {
		ran = true
		r, err := experiments.Ablation(0.60)
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if all || exp == "overhead" {
		ran = true
		r, err := experiments.Overhead()
		if err != nil {
			return err
		}
		fmt.Println(r)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
