package campaign_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/perfmodel"
	"repro/internal/profiler"
	"repro/internal/service"
)

// newEngine pairs a fresh fit-once registry with a campaign engine.
func newEngine(workers int) campaign.Engine {
	reg := service.NewModelRegistry(profiler.DefaultProfileOptions(), profiler.DefaultEmpiricalOptions())
	return campaign.Engine{Source: reg, Workers: workers}
}

// testSpec is the acceptance-criterion grid: 4 platform scales × 2
// algorithms × 2 models over the n=2000 half of the suite.
func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:       "engine-test",
		Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{6, 8, 12, 16}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"HCPA", "MCPA"},
		Models:     []string{"analytic", "empirical"},
	}
}

// registryHits sums the registry's per-model hit counters.
func registryHits(reg *service.ModelRegistry) (hits int64) {
	for _, info := range reg.Models() {
		hits += info.Hits
	}
	return hits
}

// TestCampaignDeterministicAcrossWorkerCounts pins the acceptance
// criterion: the rendered report is byte-identical at workers=1 and
// workers=8, each on a fresh registry.
func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) string {
		eng := newEngine(workers)
		res, err := eng.Run(context.Background(), testSpec())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.Write(&buf)
		return buf.String()
	}
	serial, parallel := run(1), run(8)
	if serial != parallel {
		t.Errorf("campaign report differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestCampaignReusesFitsWithinOneGrid checks the registry economics: each
// cell resolves its model once and amortizes it over the cell's algorithm
// runs, and a repeated campaign against the same registry refits nothing.
func TestCampaignReusesFitsWithinOneGrid(t *testing.T) {
	reg := service.NewModelRegistry(profiler.DefaultProfileOptions(), profiler.DefaultEmpiricalOptions())
	eng := campaign.Engine{Source: reg, Workers: 4}
	res, err := eng.Run(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// 4 platforms × 1 workload × 2 models = 8 cells of 2 algorithm runs
	// each: one registry lookup per cell, every one a fresh fit, and the
	// second run of every cell rides its cell's resolution.
	if got := len(reg.Models()); got != res.Plan.Cells() {
		t.Errorf("first campaign registered %d models, want one per cell (%d)", got, res.Plan.Cells())
	}
	if hits := registryHits(reg); hits != 0 {
		t.Errorf("first campaign hit the cache %d times, want 0: one lookup per cell", hits)
	}
	// A second identical campaign hits the cache on every cell: it refits
	// nothing, and the registry's hit counters move by one per cell.
	if res, err = eng.Run(context.Background(), testSpec()); err != nil {
		t.Fatal(err)
	}
	if got := len(reg.Models()); got != res.Plan.Cells() {
		t.Errorf("second campaign grew the registry to %d models, want %d", got, res.Plan.Cells())
	}
	if hits, want := registryHits(reg), int64(res.Plan.Cells()); hits != want {
		t.Errorf("second campaign hit the cache %d times, want every cell (%d)", hits, want)
	}
}

// TestCampaignCoversAllAxes runs one cell of every axis flavour: scaled
// node counts, bandwidth/latency scaling, two-speed heterogeneity, an
// MHEFT run on the homogeneous grid, and a profile-model cell.
func TestCampaignCoversAllAxes(t *testing.T) {
	eng := newEngine(0)
	res, err := eng.Run(context.Background(), campaign.Spec{
		Platforms: campaign.PlatformAxis{
			Base:           "bayreuth",
			Nodes:          []int{8},
			BandwidthScale: []float64{0.5},
			LatencyScale:   []float64{2},
			SpeedRatios:    []float64{2},
		},
		Workloads:  campaign.WorkloadAxis{SuiteSeeds: []int64{7}, Sizes: []int{3000}},
		Algorithms: []string{"CPA", "HCPA", "MCPA"},
		Models:     []string{"profile"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	cell := res.Cells[0]
	if cell.Platform.Env != "bayreuth-x8-bw0.5-lat2-het2" {
		t.Errorf("cell platform = %q", cell.Platform.Env)
	}
	if cell.Instances != 27 {
		t.Errorf("cell has %d instances, want 27 (n=3000 half of the suite)", cell.Instances)
	}
	if len(cell.Algos) != 3 || len(cell.Pairs) != 3 {
		t.Errorf("cell has %d algo scores and %d pair scores, want 3 and 3", len(cell.Algos), len(cell.Pairs))
	}
	for _, a := range cell.Algos {
		if a.MedianExp <= 0 {
			t.Errorf("%s: non-positive median measured makespan %g", a.Algorithm, a.MedianExp)
		}
	}

	// MHEFT works on homogeneous grids through its one-phase builder.
	res, err = eng.Run(context.Background(), campaign.Spec{
		Platforms:  campaign.PlatformAxis{Base: "modern", Nodes: []int{8}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"MHEFT", "HCPA"},
		Models:     []string{"analytic"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Write(&buf)
	if !strings.Contains(buf.String(), "MHEFT vs HCPA") {
		t.Errorf("report missing the MHEFT pair:\n%s", buf.String())
	}
}

// TestCampaignCancellation checks that a cancelled context aborts the run.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := newEngine(2)
	if _, err := eng.Run(ctx, testSpec()); err == nil {
		t.Error("cancelled campaign reported success")
	}
}

// TestKeptSchedulesMatchFreshBuilds checks the schedules a cell keeps for
// the robustness engine's replay path: each equals a fresh BuildSchedule of
// its (instance, algorithm), labelled with the cell's model, and none shares
// storage with a scheduling scratch — a second run of the cells, on the same
// pooled scratches, must leave the first run's schedules as they were.
func TestKeptSchedulesMatchFreshBuilds(t *testing.T) {
	reg := service.NewModelRegistry(profiler.DefaultProfileOptions(), profiler.DefaultEmpiricalOptions())
	eng := campaign.Engine{Source: reg, Workers: 2, Keep: true}
	p, err := eng.Prepare(campaign.Spec{
		Platforms:  campaign.PlatformAxis{Base: "bayreuth", Nodes: []int{8}},
		Workloads:  campaign.WorkloadAxis{Sizes: []int{2000}},
		Algorithms: []string{"CPA", "HCPA", "MHEFT", "DATAPAR"},
		Models:     []string{"analytic", "profile"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cells := make([]campaign.CellScore, p.NumCells())
	for i := range cells {
		if cells[i], err = eng.RunCellIndex(ctx, p, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := range cells {
		if _, err := eng.RunCellIndex(ctx, p, i); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[*int]string{}
	for i, cell := range cells {
		pt, wp, kind := p.CellPoint(i)
		truth, err := reg.Environment(pt.Env)
		if err != nil {
			t.Fatal(err)
		}
		model, _, err := reg.GetModel(pt.Env, kind, p.Plan.Spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cost, comm := perfmodel.CostFunc(model), perfmodel.CommFunc(model, truth.Cluster)
		suite, err := wp.Instances()
		if err != nil {
			t.Fatal(err)
		}
		if cell.Raw == nil || len(cell.Raw.Schedules) != len(suite) {
			t.Fatalf("cell %d kept no schedule per instance: %+v", i, cell.Raw)
		}
		for k, inst := range suite {
			kept := cell.Raw.Schedules[k]
			if len(kept) != len(p.Plan.Algorithms) {
				t.Fatalf("cell %d instance %d kept %d schedules, want %d", i, k, len(kept), len(p.Plan.Algorithms))
			}
			for a, name := range p.Plan.Algorithms {
				fresh, err := campaign.BuildSchedule(name, inst.Graph, truth.Cluster, cost, comm)
				if err != nil {
					t.Fatal(err)
				}
				where := kind + "/" + name + " on " + inst.Name()
				if kept[a].Graph.Name != inst.Graph.Name {
					t.Fatalf("cell %d: kept %s is of DAG %s", i, where, kept[a].Graph.Name)
				}
				// The cell regenerated its suite, so the graphs are equal
				// values at other addresses, whose lazily filled analyses
				// differ; the rest of the schedule must match exactly.
				got := *kept[a]
				fresh.Model, fresh.Graph, got.Graph = kind, nil, nil
				if !reflect.DeepEqual(&got, fresh) {
					t.Errorf("cell %d: kept %s differs from a fresh build", i, where)
				}
				if other, ok := seen[&kept[a].Alloc[0]]; ok {
					t.Errorf("cell %d: kept %s shares its allocation with %s", i, where, other)
				}
				seen[&kept[a].Alloc[0]] = where
			}
		}
	}
}
