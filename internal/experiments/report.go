package experiments

import (
	"encoding/json"
	"io"

	"repro/internal/profiler"
)

// Report is the machine-readable record of the whole evaluation — the data
// behind EXPERIMENTS.md, exportable as JSON for regression tracking and
// external plotting.
type Report struct {
	// Config echoes the seeds and trial counts.
	Config Config `json:"config"`
	// Comparisons holds the Figure 1/5/7 data per model and matrix size.
	Comparisons []ComparisonReport `json:"comparisons"`
	// ErrorBoxes holds the Figure 8 distributions.
	ErrorBoxes []ErrorBoxReport `json:"error_boxes"`
	// Startup is the Figure 3 series (seconds, index p−1).
	Startup []float64 `json:"startup_seconds"`
	// RedistByDst is the Figure 4 reduction (seconds, index p(dst)−1).
	RedistByDst []float64 `json:"redist_overhead_seconds_by_dst"`
	// TableII holds the fitted empirical coefficients.
	TableII TableIIReport `json:"table2"`
	// Ablation holds the overhead-attribution rows.
	Ablation []Summary `json:"ablation"`
}

// ComparisonReport is the JSON shape of one Figure 1/5/7 panel.
type ComparisonReport struct {
	Model        string      `json:"model"`
	N            int         `json:"n"`
	Mispredicted int         `json:"mispredicted"`
	Total        int         `json:"total"`
	Points       []PairPoint `json:"points"`
}

// ErrorBoxReport is the JSON shape of one Figure 8 box.
type ErrorBoxReport struct {
	Model  string  `json:"model"`
	Algo   string  `json:"algo"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// TableIIReport is the JSON shape of the fitted Table II coefficients.
type TableIIReport struct {
	// Mul maps matrix size to (a, b, c, d): low-regime then high-regime.
	Mul map[int][4]float64 `json:"mul"`
	// Add maps matrix size to (a, b).
	Add map[int][2]float64 `json:"add"`
	// StartupA/B are the task-startup fit in seconds.
	StartupA, StartupB float64
	// RedistAms/Bms are the redistribution fit in milliseconds.
	RedistAms, RedistBms float64
}

// BuildReport runs every suite-wide experiment and assembles the record.
func (l *Lab) BuildReport() (*Report, error) {
	r := &Report{Config: l.Cfg}
	for _, model := range ModelNames() {
		for _, n := range []int{2000, 3000} {
			c, err := l.CompareHCPAMCPA(model, n)
			if err != nil {
				return nil, err
			}
			r.Comparisons = append(r.Comparisons, ComparisonReport{
				Model:        model,
				N:            n,
				Mispredicted: c.Mispredicted,
				Total:        len(c.Points),
				Points:       c.Points,
			})
		}
	}
	boxes, err := l.Figure8()
	if err != nil {
		return nil, err
	}
	for _, b := range boxes {
		r.ErrorBoxes = append(r.ErrorBoxes, ErrorBoxReport{
			Model: b.Model, Algo: b.Algo,
			Min: b.Box.Min, Q1: b.Box.Q1, Median: b.Box.Median, Q3: b.Box.Q3, Max: b.Box.Max,
		})
	}
	fig3, err := l.cells("fig3")
	if err != nil {
		return nil, err
	}
	for _, c := range fig3 {
		r.Startup = append(r.Startup, c[0])
	}
	fig4, err := l.cells("fig4")
	if err != nil {
		return nil, err
	}
	byDst := profiler.RedistByDst(fig4)
	for d := 1; d <= len(fig4); d++ {
		r.RedistByDst = append(r.RedistByDst, byDst[d])
	}
	r.TableII = TableIIReport{
		Mul:       map[int][4]float64{},
		Add:       map[int][2]float64{},
		StartupA:  l.Empirical.StartupFit.A,
		StartupB:  l.Empirical.StartupFit.B,
		RedistAms: 1000 * l.Empirical.RedistFit.A,
		RedistBms: 1000 * l.Empirical.RedistFit.B,
	}
	for n, pw := range l.Empirical.MulFits {
		r.TableII.Mul[n] = [4]float64{pw.Low.A, pw.Low.B, pw.High.A, pw.High.B}
	}
	for n, f := range l.Empirical.AddFits {
		r.TableII.Add[n] = [2]float64{f.A, f.B}
	}
	ablationCells, err := l.cells("ablation")
	if err != nil {
		return nil, err
	}
	r.Ablation = ablation().summaries(ablationCells)
	return r, nil
}

// WriteJSON encodes the report with indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
