// Command profilecluster runs the paper's measurement campaigns against the
// emulated cluster (§VI–§VII) and writes the results: the brute-force task
// profile, the startup series, the redistribution surface, and the fitted
// empirical models in Table II form.
//
// Usage:
//
//	profilecluster                  # campaign summary to stdout
//	profilecluster -json profile.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/profiler"
)

// profileDump is the JSON export layout.
type profileDump struct {
	TaskTimes []taskEntry        `json:"task_times"`
	Startup   map[string]float64 `json:"startup_seconds"`
	RedistDst map[string]float64 `json:"redist_overhead_seconds_by_dst"`
	Fits      fitsDump           `json:"empirical_fits"`
}

type taskEntry struct {
	Kernel  string  `json:"kernel"`
	N       int     `json:"n"`
	P       int     `json:"p"`
	Seconds float64 `json:"seconds"`
}

type fitsDump struct {
	StartupA  float64               `json:"startup_a"`
	StartupB  float64               `json:"startup_b"`
	RedistAms float64               `json:"redist_a_ms"`
	RedistBms float64               `json:"redist_b_ms"`
	Mul       map[string][4]float64 `json:"mul_abcd_by_n"`
	Add       map[string][2]float64 `json:"add_ab_by_n"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("profilecluster: ")
	var (
		seed     = flag.Int64("seed", 42, "environment noise seed")
		parallel = flag.Int("parallel", 0, "worker pool size for the fit-validation sweep (0 = one per CPU)")
		jsonPath = flag.String("json", "", "write the full profile as JSON to this path")
	)
	flag.Parse()
	if err := report(os.Stdout, *seed, *parallel, *jsonPath); err != nil {
		log.Fatal(err)
	}
}

// report runs the campaigns on a Bayreuth emulator seeded with seed, writes
// the summary to w and, when jsonPath is not empty, the full profile as JSON
// to jsonPath. The summary is the same for every parallel value.
func report(w io.Writer, seed int64, parallel int, jsonPath string) error {
	em, err := cluster.NewEmulator(cluster.Bayreuth(), seed)
	if err != nil {
		return err
	}

	prof, err := profiler.BuildProfileModel(em, profiler.DefaultProfileOptions())
	if err != nil {
		return err
	}
	emp, err := profiler.BuildEmpiricalModel(em, profiler.DefaultEmpiricalOptions())
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "brute-force task profile (mean seconds):")
	keys := make([]perfmodel.TaskKey, 0, len(prof.Data.TaskTimes))
	for k := range prof.Data.TaskTimes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.Kernel != kb.Kernel {
			return ka.Kernel < kb.Kernel
		}
		if ka.N != kb.N {
			return ka.N < kb.N
		}
		return ka.P < kb.P
	})
	for _, k := range keys {
		if k.P == 1 || k.P%8 == 0 {
			fmt.Fprintf(w, "  %-4s n=%d p=%-3d %8.2f\n", k.Kernel, k.N, k.P, prof.Data.TaskTimes[k])
		}
	}
	fmt.Fprintf(w, "startup overhead: p=1 %.3fs ... p=32 %.3fs\n",
		prof.Data.Startup[1], prof.Data.Startup[32])
	fmt.Fprintf(w, "redistribution overhead: p(dst)=1 %.1fms ... p(dst)=32 %.1fms\n",
		1000*prof.Data.RedistByDst[1], 1000*prof.Data.RedistByDst[32])
	fmt.Fprintln(w)
	fmt.Fprintln(w, "empirical fits (Table II form):")
	for _, n := range []int{2000, 3000} {
		pw := emp.MulFits[n]
		fmt.Fprintf(w, "  mul n=%d: low (a,b)=(%.2f, %.2f)  high (c,d)=(%.2f, %.2f)\n",
			n, pw.Low.A, pw.Low.B, pw.High.A, pw.High.B)
		f := emp.AddFits[n]
		fmt.Fprintf(w, "  add n=%d: (a,b)=(%.2f, %.2f)\n", n, f.A, f.B)
	}
	fmt.Fprintf(w, "  startup: (a,b)=(%.3f, %.3f) s\n", emp.StartupFit.A, emp.StartupFit.B)
	fmt.Fprintf(w, "  redistribution: (a,b)=(%.2f, %.2f) ms\n",
		1000*emp.RedistFit.A, 1000*emp.RedistFit.B)

	// Cross-validate the sparse fits against fresh held-out measurements
	// (draws the campaigns never saw): one (kernel, n) series per cell of
	// the study engine's worker pool, each on a deterministic private
	// noise session, so the table is identical for every pool size.
	fmt.Fprintln(w)
	fmt.Fprintln(w, "empirical fits vs held-out measurements (relative error, p=1..32, 3 trials):")
	type valSeries struct {
		kernel dag.Kernel
		n      int
	}
	series := []valSeries{
		{dag.KernelMul, 2000}, {dag.KernelMul, 3000},
		{dag.KernelAdd, 2000}, {dag.KernelAdd, 3000},
	}
	type valRow struct{ mean, max float64 }
	rows := make([]valRow, len(series))
	maxP := em.Hidden.Cluster.Nodes
	if err := experiments.ForEachCell(parallel, len(series), func(i int) error {
		s := series[i]
		c := profiler.Campaign{Em: em.Session(experiments.CellSeed(seed, "validate", i))}
		task := &dag.Task{Kernel: s.kernel, N: s.n}
		var sum, max float64
		for p := 1; p <= maxP; p++ {
			meas := c.MeasureTaskMean(s.kernel, s.n, p, 3)
			e := emp.TaskTime(task, p) - meas
			if e < 0 {
				e = -e
			}
			e /= meas
			sum += e
			if e > max {
				max = e
			}
		}
		rows[i] = valRow{mean: sum / float64(maxP), max: max}
		return nil
	}); err != nil {
		return err
	}
	for i, s := range series {
		fmt.Fprintf(w, "  %-4s n=%d: mean %5.1f%%  max %5.1f%%\n",
			s.kernel, s.n, 100*rows[i].mean, 100*rows[i].max)
	}

	if jsonPath == "" {
		return nil
	}
	dump := profileDump{
		Startup:   map[string]float64{},
		RedistDst: map[string]float64{},
		Fits: fitsDump{
			StartupA:  emp.StartupFit.A,
			StartupB:  emp.StartupFit.B,
			RedistAms: 1000 * emp.RedistFit.A,
			RedistBms: 1000 * emp.RedistFit.B,
			Mul:       map[string][4]float64{},
			Add:       map[string][2]float64{},
		},
	}
	for _, k := range keys {
		dump.TaskTimes = append(dump.TaskTimes, taskEntry{
			Kernel: k.Kernel.String(), N: k.N, P: k.P, Seconds: prof.Data.TaskTimes[k],
		})
	}
	for p, v := range prof.Data.Startup {
		dump.Startup[fmt.Sprint(p)] = v
	}
	for p, v := range prof.Data.RedistByDst {
		dump.RedistDst[fmt.Sprint(p)] = v
	}
	for _, n := range []int{2000, 3000} {
		pw := emp.MulFits[n]
		dump.Fits.Mul[fmt.Sprint(n)] = [4]float64{pw.Low.A, pw.Low.B, pw.High.A, pw.High.B}
		f := emp.AddFits[n]
		dump.Fits.Add[fmt.Sprint(n)] = [2]float64{f.A, f.B}
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dump); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", jsonPath)
	return nil
}
