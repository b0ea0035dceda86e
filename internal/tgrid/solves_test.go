package tgrid_test

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// globalSolves reads repro_simgrid_global_solves_total off the process
// registry, the way a /metrics scrape would.
func globalSolves(t *testing.T) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "repro_simgrid_global_solves_total "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatal("repro_simgrid_global_solves_total is not exposed")
	return 0
}

// distinctInstants counts the distinct completion times of a run's tasks
// and redistributions. Every one ended an engine event, and every event
// began with a rate solve, so this is a lower bound on the run's solves.
func distinctInstants(res *tgrid.Result) int {
	seen := map[float64]bool{}
	for _, f := range res.TaskFinish {
		seen[f] = true
	}
	for _, f := range res.RedistFinish {
		seen[f] = true
	}
	return len(seen)
}

// TestGlobalSolvesRare guards the selective solve against a silent
// performance cliff: over the Table I suite × {CPA, HCPA, MCPA} × the three
// simulator models on the Bayreuth star, rate solves that fall back to one
// solve over every running action must stay at or below 1 % of all solves
// (bounded below by the runs' distinct completion instants).
func TestGlobalSolvesRare(t *testing.T) {
	suite, err := dag.GenerateSuite(2011)
	if err != nil {
		t.Fatal(err)
	}
	c := platform.Bayreuth()
	net, err := simgrid.NewNet(c)
	if err != nil {
		t.Fatal(err)
	}
	before := globalSolves(t)
	solves := 0
	for _, m := range fittedModels(t) {
		cost, comm := perfmodel.CostFunc(m), perfmodel.CommFunc(m, c)
		timing := tgrid.ModelTiming{Model: m}
		for _, inst := range suite {
			for _, algo := range []sched.Algorithm{sched.CPA{}, sched.HCPA{}, sched.MCPA{}} {
				s, err := sched.Build(algo, inst.Graph, c.Nodes, cost, comm)
				if err != nil {
					t.Fatal(err)
				}
				res, err := tgrid.Run(net, s, timing)
				if err != nil {
					t.Fatal(err)
				}
				solves += distinctInstants(res)
			}
		}
	}
	global := globalSolves(t) - before
	t.Logf("%d global solves against at least %d solves", global, solves)
	if 100*global > uint64(solves) {
		t.Errorf("%d global solves against at least %d solves: more than 1 %%", global, solves)
	}
}
