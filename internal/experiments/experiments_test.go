package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/profiler"
)

// lab is shared across tests; building it runs both profiling campaigns.
var lab *Lab

func TestMain(m *testing.M) {
	var err error
	lab, err = NewLab(DefaultConfig())
	if err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestTable1MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	lab.writeTableI(&buf)
	for _, row := range [][2]string{{"number of tasks", "10"}, {"number of samples", "3"}, {"total DAG instances", "54"}} {
		if want := fmt.Sprintf("  %-42s %s\n", row[0], row[1]); !strings.Contains(buf.String(), want) {
			t.Errorf("Table1 output missing %q:\n%s", want, buf.String())
		}
	}
	for _, want := range []string{"number of tasks", "54", "[2 4 8]", "[0.5 0.75 1]", "[2000 3000]"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table1 output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRunSuiteCachedAndComplete(t *testing.T) {
	recs, err := lab.RunSuite("analytic")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 54 {
		t.Fatalf("RunSuite returned %d records", len(recs))
	}
	for _, rec := range recs {
		for _, algo := range []string{"HCPA", "MCPA"} {
			if rec.Sim[algo] <= 0 || rec.Exp[algo] <= 0 {
				t.Fatalf("%s: non-positive makespans %v %v", rec.Instance.Params.Name(), rec.Sim, rec.Exp)
			}
			// Analytic simulation must underestimate the experiment.
			if rec.Sim[algo] >= rec.Exp[algo] {
				t.Errorf("%s/%s: analytic sim %g ≥ experiment %g",
					rec.Instance.Params.Name(), algo, rec.Sim[algo], rec.Exp[algo])
			}
		}
	}
	again, err := lab.RunSuite("analytic")
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &recs[0] {
		t.Error("RunSuite results not cached")
	}
}

// TestSuitePassesShareTheRecordCache: a suite study's merge leaves the
// passes it folded in the lab its cells ran on, and a plan's cells answer
// from the passes a lab holds; a plan none of whose cells ran — a
// coordinator that only gathers — merges without a lab.
func TestSuitePassesShareTheRecordCache(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden/fig1.txt")
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Lab {
		l, err := AssembleLab(lab.Cfg, lab.Truth, lab.Em, lab.Profile, lab.Empirical)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := fresh()
	p, err := PlanStudy("fig1", l.Cfg, l.Cluster().Nodes, func() (*Lab, error) { return l, nil })
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, p.NumCells())
	for i := range frames {
		if frames[i], err = p.RunCell(context.Background(), i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := p.Merge(frames); err != nil || out != string(golden) {
		t.Fatalf("fig1 merge = %v, want the golden report:\n%s", err, out)
	}
	kept := l.suiteRecords("analytic", nil)
	want, err := lab.RunSuite("analytic")
	if err != nil {
		t.Fatal(err)
	}
	pass := func(recs []Record) string {
		var b strings.Builder
		for _, rec := range recs {
			fmt.Fprintln(&b, rec.Instance.Params, rec.floats())
		}
		return b.String()
	}
	if pass(kept) != pass(want) {
		t.Fatalf("merge left %d records in the lab's cache, not RunSuite's", len(kept))
	}

	sentinel := fresh()
	recs := make([]Record, len(want))
	for i := range recs {
		recs[i] = Record{Sim: map[string]float64{"HCPA": 1, "MCPA": 2}, Exp: map[string]float64{"HCPA": 3, "MCPA": 4}}
	}
	sentinel.suiteRecords("analytic", recs)
	p, err = PlanStudy("fig1", l.Cfg, l.Cluster().Nodes, func() (*Lab, error) { return sentinel, nil })
	if err != nil {
		t.Fatal(err)
	}
	if frame, err := p.RunCell(context.Background(), 5, nil); err != nil || fmt.Sprint(decodeFloats(frame, 4)) != "[1 2 3 4] <nil>" {
		t.Errorf("cell 5 on a lab holding the pass = %v, %v; want the cached record", frame, err)
	}

	p, err = PlanStudy("fig1", l.Cfg, l.Cluster().Nodes, func() (*Lab, error) {
		t.Error("merging built a lab")
		return nil, errors.New("no lab")
	})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := p.Merge(frames); err != nil || out != string(golden) {
		t.Errorf("gather-only merge = %v, want the golden report:\n%s", err, out)
	}
}

func TestRunSuiteUnknownModel(t *testing.T) {
	if _, err := lab.RunSuite("quantum"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestComparisonHeadlines(t *testing.T) {
	total := map[string]int{}
	for _, model := range perfmodel.Kinds() {
		for _, n := range []int{2000, 3000} {
			c, err := lab.CompareHCPAMCPA(model, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(c.Points) != 27 {
				t.Fatalf("%s n=%d: %d points", model, n, len(c.Points))
			}
			for i := 1; i < len(c.Points); i++ {
				if c.Points[i-1].SimRel > c.Points[i].SimRel {
					t.Errorf("%s n=%d: points not sorted by simulated rel", model, n)
				}
			}
			// HCPA and MCPA schedules always differ in simulation.
			for _, p := range c.Points {
				if p.SimHCPA == p.SimMCPA {
					t.Errorf("%s n=%d %s: identical simulated makespans", model, n, p.Name)
				}
			}
			total[model] += c.Mispredicted
		}
	}
	// The paper's core finding, as shape: the analytic simulator flips the
	// winner on a large fraction of DAGs; the profile-based one on very
	// few; the empirical one in between.
	if total["analytic"] < 8 {
		t.Errorf("analytic mispredictions %d/54, want ≥ 8", total["analytic"])
	}
	if total["profile"] > 5 {
		t.Errorf("profile mispredictions %d/54, want ≤ 5", total["profile"])
	}
	if total["analytic"] <= total["profile"] {
		t.Errorf("analytic (%d) not worse than profile (%d)", total["analytic"], total["profile"])
	}
	if total["empirical"] > total["analytic"] {
		t.Errorf("empirical (%d) worse than analytic (%d)", total["empirical"], total["analytic"])
	}
	if total["empirical"] < total["profile"] {
		t.Logf("note: empirical (%d) below profile (%d); paper has empirical ≥ profile",
			total["empirical"], total["profile"])
	}
}

func TestComparisonWriteFormat(t *testing.T) {
	c, err := lab.CompareHCPAMCPA("analytic", 2000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "wrong winner") {
		t.Errorf("comparison output malformed:\n%s", out)
	}
}

func TestFigure2JavaErrors(t *testing.T) {
	cells, err := lab.cells("fig2")
	if err != nil {
		t.Fatal(err)
	}
	series := figure2Java(cells, lab.Cluster().Nodes)
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	maxErr := 0.0
	for _, s := range series {
		if len(s.P) != 32 {
			t.Fatalf("series %s has %d points", s.Label, len(s.P))
		}
		for i, e := range s.Err {
			if e < 0 || e > 0.95 {
				t.Errorf("%s p=%d error %g out of band", s.Label, s.P[i], e)
			}
			if e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr < 0.5 {
		t.Errorf("max Java analytic error %g, want ≥ 0.5 (paper: up to 60%%)", maxErr)
	}
}

func TestFigure2FranklinErrors(t *testing.T) {
	series := figure2Franklin()
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		for i, e := range s.Err {
			if e > 0.30 {
				t.Errorf("%s p=%d error %g, want ≤ 0.30 (paper: ≤ ~20%%)", s.Label, s.P[i], e)
			}
		}
	}
}

func TestFigure3Startup(t *testing.T) {
	cells, err := lab.cells("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 32 {
		t.Fatalf("%d points", len(cells))
	}
	monotone := true
	for i := 1; i < len(cells); i++ {
		if cells[i][0] < cells[i-1][0] {
			monotone = false
		}
	}
	if monotone {
		t.Error("startup series monotone; Figure 3 is not")
	}
	var buf bytes.Buffer
	writeFigure3(&buf, cells)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("missing header")
	}
}

func TestFigure4Surface(t *testing.T) {
	rows, err := lab.cells("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 32 {
		t.Fatalf("surface has %d rows", len(rows))
	}
	if byDst := profiler.RedistByDst(rows); byDst[32] <= byDst[1] {
		t.Error("overhead not increasing with p(dst)")
	}
	var buf bytes.Buffer
	writeFigure4(&buf, rows)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("missing header")
	}
}

func TestFigure6FitQuality(t *testing.T) {
	for _, n := range []int{2000, 3000} {
		study, err := lab.figure6(n)
		if err != nil {
			t.Fatal(err)
		}
		// The final point set must beat the naive one clearly.
		if study.FinalMeanErr >= study.NaiveMeanErr {
			t.Errorf("n=%d: final fit mean error %g not below naive %g",
				n, study.FinalMeanErr, study.NaiveMeanErr)
		}
		// The scan must flag the paper's p=8 and p=16 outliers for
		// n = 3000 (Figure 6's caption names that size).
		if n == 3000 {
			found := map[float64]bool{}
			for _, p := range study.DetectedOutliers {
				found[p] = true
			}
			if !found[8] || !found[16] {
				t.Errorf("n=3000: outliers detected %v, want both 8 and 16", study.DetectedOutliers)
			}
		}
		var buf bytes.Buffer
		study.Write(&buf)
		if !strings.Contains(buf.String(), "Figure 6") {
			t.Error("missing header")
		}
	}
}

func TestFigure8Separation(t *testing.T) {
	boxes, err := lab.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(boxes) != 6 {
		t.Fatalf("%d boxes", len(boxes))
	}
	med := map[string]float64{}
	for _, b := range boxes {
		if len(b.Errors) != 54 {
			t.Errorf("%s/%s: %d errors", b.Model, b.Algo, len(b.Errors))
		}
		if cur, ok := med[b.Model]; !ok || b.Box.Median > cur {
			med[b.Model] = b.Box.Median
		}
	}
	// The paper: analytic errors are larger than the other two versions by
	// orders of magnitude.
	if med["analytic"] < 10*med["profile"] {
		t.Errorf("analytic median %g not ≫ profile median %g", med["analytic"], med["profile"])
	}
	if med["analytic"] < 5*med["empirical"] {
		t.Errorf("analytic median %g not ≫ empirical median %g", med["analytic"], med["empirical"])
	}
	if med["empirical"] < med["profile"] {
		t.Logf("note: empirical median %g below profile %g", med["empirical"], med["profile"])
	}
}

func TestTable2Coefficients(t *testing.T) {
	var buf bytes.Buffer
	lab.writeTable2(&buf)
	out := buf.String()
	for _, want := range []string{"Table II", "multiplication", "addition", "redistribution", "task startup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
	// The fitted overhead coefficients must land near the ground truth
	// that generated them (Table II: 0.03·p + 0.65 and 7.88·p + 108.58).
	e := lab.Empirical
	if e.StartupFit.A < 0.005 || e.StartupFit.A > 0.08 {
		t.Errorf("startup slope %g far from 0.03", e.StartupFit.A)
	}
	if e.StartupFit.B < 0.3 || e.StartupFit.B > 1.1 {
		t.Errorf("startup intercept %g far from 0.65", e.StartupFit.B)
	}
	if a := 1000 * e.RedistFit.A; a < 4 || a > 12 {
		t.Errorf("redistribution slope %g ms far from 7.88", a)
	}
	if b := 1000 * e.RedistFit.B; b < 60 || b > 180 {
		t.Errorf("redistribution intercept %g ms far from 108.58", b)
	}
}

func TestModelLookup(t *testing.T) {
	for _, name := range perfmodel.Kinds() {
		m, err := lab.Model(name)
		if err != nil || m.Name() != name {
			t.Errorf("Model(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := lab.Model("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}
