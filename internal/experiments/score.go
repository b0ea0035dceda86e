package experiments

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dag"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/simgrid"
	"repro/internal/tgrid"
)

// This file holds the evaluation's one measurement (§V–§VII) — schedule a
// DAG with each compared algorithm under a model, simulate the schedule,
// execute it on the emulated cluster — and the frame codec every study cell
// travels in.

// A pass is what the scoring cell runs under: the emulated environment its
// sessions measure on, the simulated network, and the model schedules are
// built and simulated with, on the environment's cluster.
type pass struct {
	em     *cluster.Emulator
	net    *simgrid.Net
	model  perfmodel.Model
	noise  int64 // the noise seed cell sessions derive from
	trials int   // emulated runs averaged per measured makespan

	cluster platform.Cluster
	cost    dag.CostFunc
	comm    dag.CommFunc
	timing  tgrid.Timing
}

func newPass(em *cluster.Emulator, net *simgrid.Net, model perfmodel.Model, noise int64, trials int) pass {
	c := em.Hidden.Cluster
	return pass{em: em, net: net, model: model, noise: noise, trials: trials,
		cluster: c, cost: perfmodel.CostFunc(model), comm: perfmodel.CommFunc(model, c),
		timing: tgrid.ModelTiming{Model: model}}
}

// session is the private measurement stream of cell i of the named study.
func (p pass) session(study string, i int) *cluster.Session {
	return p.em.Session(CellSeed(p.noise, study, i))
}

// bind returns a pooled scratch bound to g under the pass's model, so every
// algorithm built on it shares its cost memo and per-graph analyses. Release
// it by a plain call once the last schedule is consumed, not a defer: a
// scratch held at an error or a panic is dropped, never pooled.
func (p pass) bind(g *dag.Graph) *sched.Scratch {
	sc := sched.AcquireScratch()
	sc.Bind(g, p.cluster.Nodes, p.cost)
	return sc
}

// build schedules the bound DAG with one algorithm; the schedule is valid
// until the scratch's next build.
func (p pass) build(sc *sched.Scratch, algo sched.Algorithm) (*sched.Schedule, error) {
	return sc.BuildOn(algo, p.cluster, p.comm)
}

// scored is one DAG's makespans in ComparedAlgorithms order: simulated under
// the model, then measured on the emulated cluster.
type scored struct{ sim, exp [2]float64 }

// score is the scoring cell: it pushes one DAG through the pipeline under
// the pass, measuring on sess.
func (p pass) score(g *dag.Graph, sess *cluster.Session) (scored, error) {
	var out scored
	sc := p.bind(g)
	for ai, algo := range ComparedAlgorithms() {
		s, err := p.build(sc, algo)
		if err == nil {
			out.sim[ai], err = tgrid.Makespan(p.net, s, p.timing)
		}
		if err == nil {
			out.exp[ai], err = sess.MeasureMakespan(s, p.trials)
		}
		if err != nil {
			return out, fmt.Errorf("experiments: %s/%s on %s: %w", p.model.Name(), algo.Name(), g.Name, err)
		}
	}
	sched.ReleaseScratch(sc)
	return out, nil
}

// floats is the scored DAG as a cell's float64s: simulated, then measured.
func (s scored) floats() []float64 {
	return []float64{s.sim[hcpa], s.sim[mcpa], s.exp[hcpa], s.exp[mcpa]}
}

func scoredOf(xs []float64) scored {
	return scored{sim: [2]float64{xs[0], xs[1]}, exp: [2]float64{xs[2], xs[3]}}
}

// encodeFloats is the study frame codec: a cell's float64s as little-endian
// IEEE-754 bits, so a frame decodes to the very bits the cell computed, NaN
// and infinities included.
func encodeFloats(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// decodeFloats reads a frame of n float64s back.
func decodeFloats(frame []byte, n int) ([]float64, error) {
	if len(frame) != 8*n {
		return nil, fmt.Errorf("experiments: frame of %d bytes, want %d float64s", len(frame), n)
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(frame[8*i:]))
	}
	return xs, nil
}
