// Command mixedsim reproduces the paper's evaluation: it assembles the
// emulated Bayreuth environment, runs the profiling campaigns, pushes the
// 54-DAG suite through the three simulators and the emulated cluster, and
// prints any (or all) of the paper's tables and figures. With -campaign it
// instead executes a declarative what-if sweep (docs/CAMPAIGNS.md) over
// hypothetical platforms, workloads, algorithms and models; with -robust it
// executes a Monte Carlo winner-stability study (docs/ROBUSTNESS.md) on top
// of such a sweep; with -arrival it executes an online-arrival scenario
// (docs/WORKLOADS.md): jobs arriving over time on a shared cluster,
// scheduled online against the fitted models.
//
// Usage:
//
//	mixedsim -experiment all
//	mixedsim -experiment fig1            # analytic sim vs experiment
//	mixedsim -experiment fig8 -seed 7    # error boxplots, different noise
//	mixedsim -campaign spec.json         # declarative §IX what-if sweep
//	mixedsim -robust spec.json           # §V winner-stability stress test
//	mixedsim -arrival spec.json          # online arrivals on a shared cluster
//
// Experiments: table1, fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8,
// table2, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mixedsim: ")
	var (
		experiment   = flag.String("experiment", "all", "which experiment to run (table1, fig1..fig8, table2, ablation, scaling, all)")
		campaignPath = flag.String("campaign", "", "run the campaign spec (JSON) at this path instead of an experiment")
		robustPath   = flag.String("robust", "", "run the robustness spec (JSON, docs/ROBUSTNESS.md) at this path instead of an experiment")
		arrivalPath  = flag.String("arrival", "", "run the online-arrival spec (JSON, docs/WORKLOADS.md) at this path instead of an experiment")
		suiteSeed    = flag.Int64("suite-seed", 2011, "seed for the 54-DAG suite")
		noiseSeed    = flag.Int64("seed", 42, "seed for the environment's run-to-run noise")
		trials       = flag.Int("trials", 1, "emulated cluster runs averaged per measured makespan")
		parallel     = flag.Int("parallel", 0, "study-execution worker pool size (0 = one per CPU); output is identical for every value")
		jsonPath     = flag.String("json", "", "additionally write the full machine-readable report to this path")
		progress     = flag.Bool("progress", false, "print a live progress ticker to stderr (-campaign and -robust modes)")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.SuiteSeed = *suiteSeed
	cfg.NoiseSeed = *noiseSeed
	cfg.ExpTrials = *trials
	cfg.Parallelism = *parallel

	// Each spec flag is named after the job family it runs.
	specFlags := map[string]string{"campaign": *campaignPath, "robust": *robustPath, "arrival": *arrivalPath}
	var family *service.Family
	specs := 0
	for _, f := range service.Families(service.NewModelRegistry(cfg.Profile, cfg.Empirical), cfg.Parallelism) {
		if specFlags[f.Name] != "" {
			specs++
			family = f
		}
	}
	if specs > 1 {
		log.Fatal("-campaign, -robust and -arrival are mutually exclusive; pass one spec")
	}
	if family != nil {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "experiment" || f.Name == "json" {
				log.Fatalf("-%s is not supported in -%s mode", f.Name, family.Name)
			}
		})
		var prog *obs.Progress
		if *progress {
			prog = &obs.Progress{}
			stop := startTicker(prog)
			defer stop()
		}
		if err := runSpec(family, specFlags[family.Name], cfg, prog, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *progress {
		log.Fatal("-progress is only supported in -campaign, -robust and -arrival modes")
	}

	lab, err := experiments.NewLab(cfg)
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	labFn := func() (*experiments.Lab, error) { return lab, nil }
	run := func(name string) error {
		return experiments.RenderStudy(context.Background(), name, cfg, labFn, w)
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = experiments.StudyNames()
	}
	for i, name := range names {
		if i > 0 {
			separator(w)
		}
		if err := run(name); err != nil {
			log.Fatal(err)
		}
	}

	if *jsonPath != "" {
		report, err := lab.BuildReport()
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(w, "wrote", *jsonPath)
	}
}

// startTicker prints the progress record to stderr twice a second (and once
// more on stop), so long sweeps show cells and trials advancing without
// touching the report on stdout. The returned stop must be called before the
// process exits.
func startTicker(prog *obs.Progress) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	line := func() {
		s := prog.Snapshot()
		fmt.Fprintf(os.Stderr, "\rprogress: cells %d/%d", s.CellsDone, s.CellsTotal)
		if s.TrialBudget > 0 {
			fmt.Fprintf(os.Stderr, "  trials %d/%d", s.TrialsUsed, s.TrialBudget)
		}
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				line()
				fmt.Fprintln(os.Stderr)
				return
			case <-tick.C:
				line()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// runSpec loads one job family's spec — a what-if campaign, a robustness
// study, an online-arrival scenario — and executes it against a fresh
// fit-once registry: prepare, every cell, merge, exactly as a reprosrv job of
// the family runs. The CLI flags supply the spec's seed and trial defaults.
func runSpec(f *service.Family, path string, cfg experiments.Config, prog *obs.Progress, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	plan, err := f.Prepare(data, service.Defaults{Seed: cfg.NoiseSeed, SuiteSeed: cfg.SuiteSeed, Trials: cfg.ExpTrials})
	if err != nil {
		return err
	}
	report, err := plan.Run(context.Background(), prog)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, report)
	return err
}

func separator(w io.Writer) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 72))
	fmt.Fprintln(w)
}
